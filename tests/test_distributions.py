import math

import pytest
from hypothesis import example, given, strategies as st

from semcal import Alphabet, Distribution, bayes_invert, kl_divergence, pointwise_info
from semcal.distributions import NORMALIZATION_TOLERANCE
from semcal.errors import (
    AbsoluteContinuityViolated,
    AlphabetMismatch,
    DuplicateLabel,
    NotNormalized,
    OutOfRange,
    UnknownLabel,
    ZeroPrior,
    ZeroSelectionMass,
)

AB = Alphabet(("e1", "e0"))


def dist(*probs):
    return Distribution(Alphabet([f"x{i}" for i in range(len(probs))]), probs)


positive_probs = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6)


def normalized(values):
    total = sum(values)
    return [v / total for v in values]


def assert_valid(d):
    """The Distribution invariant: non-negative probabilities that sum to 1."""
    assert all(p >= 0 for p in d.probs)
    assert abs(math.fsum(d.probs) - 1.0) <= NORMALIZATION_TOLERANCE


class TestDistribution:
    def test_valid_pair(self):
        assert_valid(Distribution(AB, (0.8, 0.2)))

    def test_point_mass(self):
        assert_valid(Distribution(Alphabet(("only",)), (1.0,)))

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            Distribution(AB, (0.6, 0.6))

    def test_within_tolerance_renormalizes(self):
        d = Distribution(AB, (0.8 + 4e-10, 0.2))
        assert math.isclose(sum(d.probs), 1.0, abs_tol=1e-15)

    def test_alphabet_rejects_duplicates(self):
        with pytest.raises(DuplicateLabel) as info:
            Alphabet(("a", "b", "a"))
        assert info.value.exit_code == 1

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            Distribution(AB, (0.5, 0.5))["nope"]


class TestPointwiseInfo:
    def test_equal_probabilities(self):
        assert pointwise_info(0.8, 0.8) == 0.0

    def test_hiv_posterior_ratio(self):
        assert pointwise_info(0.786, 0.004) == pytest.approx(7.62, abs=0.01)

    def test_impossible_posterior(self):
        assert pointwise_info(0.0, 0.5) == float("-inf")

    def test_zero_prior(self):
        with pytest.raises(ZeroPrior):
            pointwise_info(0.5, 0.0)

    @given(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
    def test_antisymmetry(self, a, b):
        assert pointwise_info(a, b) == pytest.approx(-pointwise_info(b, a), abs=1e-12)


class TestKlDivergence:
    def test_swans_positive(self):
        assert kl_divergence(dist(0.99, 0.01), dist(0.8, 0.2)) == pytest.approx(
            0.2611, abs=1e-3)

    def test_swans_negative(self):
        assert kl_divergence(dist(0.95, 0.05), dist(0.99, 0.01)) == pytest.approx(
            0.060, abs=1e-3)

    def test_identity_is_zero(self):
        d = dist(0.3, 0.7)
        assert kl_divergence(d, d) == 0.0

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            kl_divergence(Distribution(AB, (0.5, 0.5)), dist(0.5, 0.5))

    def test_dominance_violation(self):
        with pytest.raises(AbsoluteContinuityViolated):
            kl_divergence(dist(0.5, 0.5), dist(1.0, 0.0))

    @given(positive_probs, positive_probs)
    @example([1.0, 0.9999999999999999], [1.0, 1.0])
    def test_nonnegative_and_zero_iff_equal(self, qs, ps):
        n = min(len(qs), len(ps))
        q, p = dist(*normalized(qs[:n])), dist(*normalized(ps[:n]))
        d = kl_divergence(q, p)
        assert d >= 0.0
        if all(abs(a - b) < 1e-9 for a, b in zip(q.probs, p.probs)):
            assert d <= 1e-7
        elif max(abs(a - b) for a, b in zip(q.probs, p.probs)) > 1e-4:
            assert d > 0.0


class TestBayesInvert:
    def test_hiv_posterior(self):
        prior = Distribution(AB, (0.004, 0.996))
        post = bayes_invert(prior, (0.917, 0.001))
        assert post.probs[0] == pytest.approx(0.786, abs=0.001)
        assert post.probs[1] == pytest.approx(0.214, abs=0.001)

    def test_constant_row_returns_prior(self):
        prior = dist(0.3, 0.2, 0.5)
        post = bayes_invert(prior, (0.4, 0.4, 0.4))
        assert post.probs == pytest.approx(prior.probs, abs=1e-12)

    def test_perfect_selector(self):
        post = bayes_invert(Distribution(AB, (0.5, 0.5)), (1.0, 0.0))
        assert post.probs == (1.0, 0.0)

    def test_zero_selection_mass(self):
        with pytest.raises(ZeroSelectionMass):
            bayes_invert(Distribution(AB, (1.0, 0.0)), (0.0, 1.0))

    @pytest.mark.parametrize("value", [1.5, -0.25])
    def test_row_value_outside_unit_interval_is_out_of_range(self, value):
        with pytest.raises(OutOfRange):
            bayes_invert(Distribution(AB, (0.5, 0.5)), (value, 0.5))

    @given(positive_probs, st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
    def test_output_is_valid_distribution(self, ps, row):
        p = dist(*normalized(ps))
        row = row[: len(p.probs)]
        if sum(a * b for a, b in zip(p.probs, row)) <= 0:
            return
        assert_valid(bayes_invert(p, row))
