import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from semcal import (
    Alphabet,
    Crisp,
    Distribution,
    Gaussian,
    Tabular,
    average_semantic_info,
    bayes_invert,
    belief_adjust,
    contradiction,
    logical_probability,
    negate,
    pointwise_semantic_info,
    semantic_bayes,
    tautology,
)
from semcal.errors import BeliefOutOfRange, OutOfRange, UnknownLabel, ZeroLogicalProbability

AB = Alphabet(("e1", "e0"))

tabular_values = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5)
beliefs = st.floats(-1.0, 1.0)


class TestEvaluate:
    def test_gaussian_center(self):
        assert Gaussian(center=3.0, stddev=1.5).value(3.0) == 1.0

    def test_belief_adjusted_counterexample(self):
        tf = belief_adjust(Crisp(AB, {"e1"}), 0.908)
        assert tf.value("e0") == pytest.approx(0.092, abs=1e-3)

    def test_negative_belief_positive_example(self):
        tf = belief_adjust(Crisp(AB, {"e1"}), -0.808)
        assert tf.value("e1") == pytest.approx(0.192, abs=1e-3)

    def test_belief_out_of_range(self):
        with pytest.raises(BeliefOutOfRange):
            belief_adjust(Crisp(AB, {"e1"}), 1.5)


class TestUnknownLabels:
    LOOKUPS = {
        "crisp": lambda label: Crisp(AB, {"e1"}).value(label),
        "tabular": lambda label: Tabular(AB, (0.7, 0.2)).value(label),
        "distribution": lambda label: Distribution(AB, (0.5, 0.5))[label],
        "alphabet-index": lambda label: AB.index(label),
    }

    @pytest.mark.parametrize("label", ["nope", ["e1"], 0], ids=["unknown", "unhashable", "int"])
    @pytest.mark.parametrize("lookup", LOOKUPS.values(), ids=LOOKUPS.keys())
    def test_raises_unknown_label(self, lookup, label):
        with pytest.raises(UnknownLabel):
            lookup(label)

    def test_membership(self):
        assert "e1" in AB
        assert "nope" not in AB
        assert ["e1"] not in AB

    def test_tabular_on_other_alphabet(self):
        with pytest.raises(UnknownLabel):
            Tabular(AB, (0.7, 0.2)).values(Alphabet(("x", "y")))


@pytest.mark.parametrize("value", [1.5, -0.25])
def test_tabular_value_outside_unit_interval_is_out_of_range(value):
    with pytest.raises(OutOfRange):
        Tabular(AB, (value, 0.5))


class TestGaussianErrors:
    @pytest.mark.parametrize("label", ["nope", ["a"]], ids=["unknown", "unhashable"])
    def test_label_without_position(self, label):
        tf = Gaussian(0.0, 1.0, positions={"a": 0.0})
        assert tf.value("a") == 1.0
        with pytest.raises(UnknownLabel):
            tf.value(label)

    @pytest.mark.parametrize("stddev", [0.0, -1.0])
    def test_nonpositive_stddev_is_out_of_range(self, stddev):
        with pytest.raises(OutOfRange):
            Gaussian(0.0, stddev)

    # (x - center)**2 overflowed or the spread's square underflowed to 0.0
    @pytest.mark.parametrize("stddev, x, expected", [(1.0, 1e200, 0.0), (1e200, 0.0, 1.0),
                                                      (1e-200, 1.0, 0.0)],
                             ids=["far-evidence", "huge-stddev", "tiny-stddev"])
    def test_extreme_scales_give_the_limit(self, stddev, x, expected):
        assert Gaussian(0.0, stddev).value(x) == expected


class TestVectorPath:
    @given(tabular_values, beliefs)
    def test_belief_adjusted_vector_matches_pointwise(self, values, b):
        ab = Alphabet([f"x{i}" for i in range(len(values))])
        for base in (Tabular(ab, values), Crisp(ab, ab.labels[::2])):
            tf = belief_adjust(base, b)
            assert tf.values(ab) == tuple(tf.value(label) for label in ab)

    def test_tabular_vector_on_equal_alphabet(self):
        tf = Tabular(AB, (0.7, 0.2))
        assert tf.values(Alphabet(("e1", "e0"))) == (0.7, 0.2)

    @given(n=st.integers(1, 40), data=st.data())
    def test_crisp_vector_matches_pointwise(self, n, data):
        ab = Alphabet([f"x{i}" for i in range(n)])
        tf = Crisp(ab, data.draw(st.sets(st.sampled_from(ab.labels))))
        pointwise = tuple(tf.value(label) for label in ab)
        assert tf.values(ab) == pointwise
        assert tf.values(Alphabet(ab.labels)) == pointwise    # an equal alphabet
        permuted = Alphabet(data.draw(st.permutations(ab.labels)))
        assert tf.values(permuted) == tuple(tf.value(label) for label in permuted)

    @pytest.mark.parametrize("labels", [("x", "y"), ("e1", "e0", "e2")], ids=["other", "superset"])
    def test_crisp_on_foreign_alphabet_raises(self, labels):
        with pytest.raises(UnknownLabel):
            Crisp(AB, {"e1"}).values(Alphabet(labels))


class TestLogicalProbability:
    def test_tautology_is_one(self):
        prior = Distribution(AB, (0.8, 0.2))
        assert logical_probability(tautology(AB), prior) == pytest.approx(1.0)

    def test_crisp_is_mass_of_positive_set(self):
        prior = Distribution(AB, (0.8, 0.2))
        assert logical_probability(Crisp(AB, {"e1"}), prior) == pytest.approx(0.8)

    def test_belief_adjusted_crisp(self):
        # T(A) = b'*P0 + P1 with b' = 0.0404
        prior = Distribution(AB, (0.8, 0.2))
        tf = belief_adjust(Crisp(AB, {"e1"}), 1.0 - 0.0404)
        assert logical_probability(tf, prior) == pytest.approx(0.80808, abs=1e-5)


class TestSemanticBayes:
    def test_tautology_returns_prior(self):
        prior = Distribution(AB, (0.3, 0.7))
        assert semantic_bayes(prior, tautology(AB)).probs == pytest.approx(prior.probs)

    def test_high_risk_prediction(self):
        prior = Distribution(AB, (0.1, 0.9))
        tf = belief_adjust(Crisp(AB, {"e1"}), 1.0 - 0.0011)
        assert semantic_bayes(prior, tf).probs[0] == pytest.approx(0.991, abs=0.001)

    def test_matches_bayes_inversion_of_test_channel(self):
        # belief-softened crisp hypothesis vs the raw sensitivity channel row
        prior = Distribution(AB, (0.004, 0.996))
        b_prime = 0.001 / 0.917
        tf = belief_adjust(Crisp(AB, {"e1"}), 1.0 - b_prime)
        via_tf = semantic_bayes(prior, tf)
        via_channel = bayes_invert(prior, (0.917, 0.001))
        assert via_tf.probs == pytest.approx(via_channel.probs, abs=1e-9)
        assert via_tf.probs[0] == pytest.approx(0.786, abs=0.002)

    def test_contradiction_raises(self):
        prior = Distribution(AB, (0.5, 0.5))
        with pytest.raises(ZeroLogicalProbability):
            semantic_bayes(prior, contradiction(AB))

    def test_roundtrip_recovers_truth_function(self):
        # invert the prediction back through the prior, rescale to max 1
        prior = Distribution(AB, (0.8, 0.2))
        tf = Tabular(AB, (1.0, 0.25))
        lp = logical_probability(tf, prior)
        predicted = semantic_bayes(prior, tf)
        recovered = [lp * q / p for q, p in zip(predicted.probs, prior.probs)]
        scale = max(recovered)
        assert [r / scale for r in recovered] == pytest.approx(list(tf.table), abs=1e-12)


class TestNegate:
    def test_tautology_to_contradiction(self):
        n = negate(tautology(AB))
        assert n.values(AB) == (0.0, 0.0)

    def test_crisp_complement(self):
        n = negate(Crisp(AB, {"e1"}))
        assert isinstance(n, Crisp)
        assert n.positive_set == frozenset({"e0"})

    @given(tabular_values)
    def test_involution(self, values):
        ab = Alphabet([f"x{i}" for i in range(len(values))])
        tf = Tabular(ab, values)
        assert negate(negate(tf)).values(ab) == pytest.approx(tf.values(ab), abs=1e-15)

    @given(st.floats(-5.0, 5.0), st.floats(0.1, 3.0),
           st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8, unique=True))
    def test_gaussian_complement_is_exact(self, center, stddev, points):
        # a non-tabular truth function is complemented as the belief -1 in it
        g = Gaussian(center, stddev)
        ab = Alphabet([repr(x) for x in points])
        complement = negate(g)
        assert complement.values(ab) == tuple(1.0 - t for t in g.values(ab))
        assert [complement.value(x) for x in points] == [1.0 - g.value(x) for x in points]
        assert negate(complement) is g


class TestBeliefAdjust:
    def test_full_belief_is_identity(self):
        tf = Tabular(AB, (0.7, 0.2))
        assert belief_adjust(tf, 1.0).values(AB) == pytest.approx(tf.values(AB))

    def test_zero_belief_is_tautology(self):
        tf = Tabular(AB, (0.7, 0.2))
        assert belief_adjust(tf, 0.0).values(AB) == (1.0, 1.0)

    def test_full_negative_belief_is_complement_for_crisp(self):
        tf = Crisp(AB, {"e1"})
        assert belief_adjust(tf, -1.0).values(AB) == pytest.approx(
            negate(tf).values(AB))

    @given(tabular_values)
    def test_full_negative_belief_keeps_the_bits_of_one_plus_b_t(self, values):
        ab = Alphabet([f"x{i}" for i in range(len(values))])
        tf = belief_adjust(Tabular(ab, values), -1.0)
        assert tf.values(ab) == tuple(1.0 + -1.0 * t for t in values)

    def test_negative_belief_near_minus_one_does_not_cancel(self):
        # 1 + b*t loses ~8 digits here (b near -1, t near 1); the information
        # read 6.7e-10 bits off the exact value in that form.
        base = Tabular(AB, (0.0, 0.999999999))
        prior = Distribution(AB, (0.2180618212370913, 0.7819381787629087))
        sampling = Distribution(AB, (0.07625980783542242, 0.9237401921645776))
        b = -0.999999999
        truth = [1 + Fraction(b) * Fraction(t) for t in base.table]
        lp = sum(Fraction(p) * t for p, t in zip(prior.probs, truth))
        exact = sum(q * math.log2(t / lp) for q, t in zip(sampling.probs, truth))
        bits = average_semantic_info(belief_adjust(base, b), prior, sampling)
        assert abs(bits - exact) < 1e-12


class TestNegationTheorems:
    @given(tabular_values, st.floats(-1.0, -1e-6))
    def test_denial_with_negative_belief_equals_affirmation(self, values, b0):
        ab = Alphabet([f"x{i}" for i in range(len(values))])
        h1 = Tabular(ab, values)
        lhs = belief_adjust(negate(h1), b0).values(ab)
        rhs = belief_adjust(h1, abs(b0)).values(ab)
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-12

    @given(tabular_values, st.floats(1e-6, 1.0))
    def test_denial_with_positive_belief_equals_negated_affirmation(self, values, b0):
        ab = Alphabet([f"x{i}" for i in range(len(values))])
        h1 = Tabular(ab, values)
        lhs = belief_adjust(negate(h1), b0).values(ab)
        rhs = belief_adjust(h1, -b0).values(ab)
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-12


class TestGaussianDecomposition:
    def test_info_is_severity_minus_deviation(self):
        # pointwise info = log2(1/T(A)) - (e - center)^2/(2 d^2) * log2(e)
        ab = Alphabet(("0.0", "1.0", "2.0", "3.0"))
        prior = Distribution(ab, (0.1, 0.4, 0.3, 0.2))
        tf = Gaussian(center=1.0, stddev=0.8)
        lp = logical_probability(tf, prior)
        for label in ab:
            x = float(label)
            expected = math.log2(1.0 / lp) - (x - 1.0) ** 2 / (2 * 0.8**2) * math.log2(math.e)
            assert pointwise_semantic_info(tf, prior, label) == pytest.approx(
                expected, abs=1e-9)
