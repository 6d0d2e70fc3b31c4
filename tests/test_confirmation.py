import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcal import (
    Alphabet,
    ContingencyTable,
    Crisp,
    Distribution,
    DocCase,
    RateSpec,
    average_semantic_info,
    bayes_invert,
    belief_adjust,
    doc_from_rates,
    doc_from_test,
    doc_h1_from_table,
    doc_h2_from_table,
    gps_cep_doc,
    kl_divergence,
    negate,
    optimize_belief,
    predicted_probability,
    raven_increments,
)
from semcal.errors import (
    DegenerateGeometry,
    DegenerateInput,
    DegenerateRates,
    EmptyColumn,
    EmptyRow,
    NonFinite,
    OutOfRange,
    SemcalError,
    UnknownKind,
    ValidationError,
    ZeroDenominator,
    ZeroSelectionMass,
    ZeroSensitivity,
)

AB = Alphabet(("e1", "e0"))

#: Probabilities with 0, 1 and the values next to them.
UNIT = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1e-16, 1.0 - 1e-16, 1.0 - 2**-53]),
                 st.floats(0.0, 1e-12), st.floats(1.0 - 1e-12, 1.0), st.floats(0.0, 1.0))


def outcome(call):
    """call()'s value, or the class of the SemcalError it raises."""
    try:
        return call()
    except SemcalError as exc:
        return type(exc)


def random_rates(rng):
    p0 = rng.uniform(0.02, 0.98)
    q0 = rng.uniform(0.02, 0.98)
    return RateSpec(prior=(p0, 1 - p0), posterior=(q0, 1 - q0))


class TestDocFromRates:
    def test_swans_positive(self):
        r = doc_from_rates(RateSpec((0.2, 0.8), (0.01, 0.99)))
        assert r.b_prime_star == pytest.approx(0.0404, abs=1e-4)
        assert r.b_star == pytest.approx(0.9596, abs=1e-4)
        assert r.case is DocCase.PROPER_AFFIRMATION

    def test_swans_negative(self):
        r = doc_from_rates(RateSpec((0.01, 0.99), (0.05, 0.95)))
        assert r.b_prime_star == pytest.approx(0.192, abs=1e-3)
        assert r.b_star == pytest.approx(-0.808, abs=1e-3)
        assert r.case is DocCase.EXCESSIVE_AFFIRMATION

    def test_boundary_is_uninformative(self):
        r = doc_from_rates(RateSpec((0.3, 0.7), (0.3, 0.7)))
        assert r.b_star == pytest.approx(0.0, abs=1e-12)
        assert r.b_prime_star == pytest.approx(1.0, abs=1e-12)
        assert r.information_bits == pytest.approx(0.0, abs=1e-12)

    def test_unknown_hypothesis_kind_is_a_validation_error(self):
        with pytest.raises(UnknownKind) as info:
            doc_from_rates(RateSpec((0.2, 0.8), (0.01, 0.99)), hypothesis="bogus")
        assert isinstance(info.value, ValidationError)
        assert info.value.exit_code == 1

    def test_degenerate_rates(self):
        with pytest.raises(DegenerateRates):
            doc_from_rates(RateSpec((1.0, 0.0), (0.5, 0.5)))
        with pytest.raises(DegenerateRates):
            doc_from_rates(RateSpec((0.0, 1.0), (0.0, 1.0)))

    def test_attainment_equals_kl(self):
        # the closed-form bits are KL(Q || P); the information the returned b*
        # achieves, evaluated through the truth-function path, must match them
        rng = random.Random(5)
        affirms = Crisp(AB, {"e1"})
        seen = set()
        for _ in range(200):
            spec = random_rates(rng)
            r = doc_from_rates(spec)
            seen.add(r.case)
            q = Distribution(AB, (spec.posterior[1], spec.posterior[0]))
            p = Distribution(AB, (spec.prior[1], spec.prior[0]))
            assert r.information_bits == pytest.approx(kl_divergence(q, p), abs=1e-9)
            assert r.b_prime_star == pytest.approx(1 - abs(r.b_star), abs=1e-12)
            assert r.information_bits >= 0.0
            assert r.information_bits == pytest.approx(
                average_semantic_info(belief_adjust(affirms, r.b_star), p, q), abs=1e-9)
            d = doc_from_rates(spec, hypothesis="denial")
            assert d.information_bits >= 0.0
            assert d.information_bits == pytest.approx(
                average_semantic_info(belief_adjust(negate(affirms), d.b_star), p, q), abs=1e-9)
        assert seen == {DocCase.PROPER_AFFIRMATION, DocCase.EXCESSIVE_AFFIRMATION}

    def test_denial_sign_flips(self):
        rng = random.Random(9)
        for _ in range(100):
            spec = random_rates(rng)
            affirm = doc_from_rates(spec)
            denial = doc_from_rates(spec, hypothesis="denial")
            assert denial.b_star == pytest.approx(-affirm.b_star, abs=1e-12)
            assert denial.information_bits == pytest.approx(
                affirm.information_bits, abs=1e-12)
            if affirm.case is DocCase.PROPER_AFFIRMATION:
                assert denial.case is DocCase.EXCESSIVE_NEGATION
            else:
                assert denial.case is DocCase.PROPER_NEGATION


class TestRateSpecFromLists:
    """A spec built from lists stores tuples of its own, not the caller's lists."""

    def test_is_hashable(self):
        assert hash(RateSpec([0.2, 0.8], [0.01, 0.99])) == hash(RateSpec((0.2, 0.8), (0.01, 0.99)))

    def test_equals_the_spec_built_from_tuples(self):
        assert RateSpec([0.2, 0.8], [0.01, 0.99]) == RateSpec((0.2, 0.8), (0.01, 0.99))

    def test_changing_the_list_later_changes_nothing(self):
        pair = [0.2, 0.8]
        spec = RateSpec(pair, (0.01, 0.99))
        pair[:] = [0.6, 0.9]    # sums to 1.5: the constructor would refuse it
        assert spec.prior == (0.2, 0.8)
        assert doc_from_rates(spec) == doc_from_rates(RateSpec((0.2, 0.8), (0.01, 0.99)))


class TestDocFromTable:
    def test_birds(self):
        r = doc_h1_from_table(ContingencyTable(83, 57, 17, 686))
        assert r.b_prime_star == pytest.approx(0.0924, abs=5e-4)
        assert r.b_star == pytest.approx(0.908, abs=5e-4)

    def test_fatty_liver(self):
        r = doc_h1_from_table(ContingencyTable(25, 16, 41, 60))
        assert r.b_star == pytest.approx(0.444, abs=1e-3)

    def test_no_counterexamples_fully_confirms(self):
        r = doc_h1_from_table(ContingencyTable(12, 0, 5, 300))
        assert r.b_star == 1.0

    def test_empty_row_and_column(self):
        with pytest.raises(EmptyRow):
            doc_h1_from_table(ContingencyTable(0, 0, 5, 5))
        with pytest.raises(EmptyColumn):
            doc_h1_from_table(ContingencyTable(0, 5, 0, 5))

    def test_contrapositive_differs(self):
        t = ContingencyTable(83, 57, 17, 686)
        assert doc_h2_from_table(t).b_prime_star == pytest.approx(0.4173, abs=1e-3)

    def test_symmetric_table_agrees(self):
        t = ContingencyTable(40, 7, 7, 40)
        assert doc_h1_from_table(t).b_star == pytest.approx(
            doc_h2_from_table(t).b_star, abs=1e-12)

    def test_contrapositive_no_counterexamples(self):
        r = doc_h2_from_table(ContingencyTable(12, 0, 5, 300))
        assert r.b_star == 1.0

    @pytest.mark.parametrize("counts", [(1e308, 1e308, 1, 1), (1e308,) * 4],
                             ids=["two-counts", "four-counts"])
    @pytest.mark.parametrize("doc", [doc_h1_from_table, doc_h2_from_table])
    def test_total_beyond_float_range_is_degenerate(self, doc, counts):
        with pytest.raises(DegenerateInput) as info:
            doc(ContingencyTable(*counts))
        assert info.value.exit_code == 2

    def test_integer_total_beyond_float_range_is_exact(self):
        # ints sum exactly, and their quotients round once: the masses are (1/2, 1/2)
        t = ContingencyTable(10**308, 10**308, 1, 1)
        assert doc_h1_from_table(t) == doc_h1_from_table(ContingencyTable(1, 1, 1, 1))

    def test_contrapositive_is_the_swapped_table(self):
        rng = random.Random(24)
        for _ in range(500):
            n11, n10, n01, n00 = (rng.choice((0, rng.randint(1, 10**6), rng.uniform(0, 1e3)))
                                  for _ in range(4))
            try:
                swapped = doc_h1_from_table(ContingencyTable(n00, n10, n01, n11))
            except SemcalError as exc:
                with pytest.raises(type(exc)):
                    doc_h2_from_table(ContingencyTable(n11, n10, n01, n00))
                continue
            assert doc_h2_from_table(ContingencyTable(n11, n10, n01, n00)) == swapped

    def test_equivalence_condition_fails_generically(self):
        rng = random.Random(17)
        for _ in range(100):
            t = ContingencyTable(*[rng.uniform(1, 100) for _ in range(4)])
            b1 = doc_h1_from_table(t).b_star
            b2 = doc_h2_from_table(t).b_star
            if abs(t.n10 / (t.n11 + t.n10) / (t.n00 / (t.n01 + t.n00))
                   - t.n10 / (t.n00 + t.n10) / (t.n11 / (t.n01 + t.n11))) > 1e-9:
                assert b1 != b2


class TestDocFromTest:
    def test_hiv_characteristics(self):
        pos, neg = doc_from_test(0.917, 0.999)
        assert pos.b_star == pytest.approx(0.9989, abs=1e-4)
        assert neg.b_star == pytest.approx(0.917, abs=1e-3)

    def test_perfect_specificity(self):
        pos, _ = doc_from_test(0.4, 1.0)
        assert pos.b_star == 1.0

    def test_poor_specificity_caps_confirmation(self):
        pos, _ = doc_from_test(1.0, 0.5)
        assert pos.b_star == pytest.approx(0.5)

    @pytest.mark.parametrize("sens", [1.0, 0.5, 0.2])
    def test_zero_specificity(self, sens):
        # the "-" reading never fires on a negative case: b-* is -1, even at
        # sensitivity 1, where both of its selection rates are 0
        pos, neg = doc_from_test(sens, 0.0)
        assert (neg.b_star, neg.b_prime_star) == (-1.0, 0.0)
        assert neg.case is DocCase.EXCESSIVE_AFFIRMATION
        # "+" fires on every negative case, so b'' = sensitivity
        assert pos.b_star == pytest.approx(sens - 1.0, abs=1e-15)

    def test_likelihood_ratio_relation(self):
        rng = random.Random(23)
        for _ in range(100):
            sens = rng.uniform(0.05, 1.0)
            spec = rng.uniform(0.0, 0.999)
            pos, _ = doc_from_test(sens, spec)
            if 1.0 - spec > 0 and pos.case is DocCase.PROPER_AFFIRMATION:
                lr = sens / (1.0 - spec)
                assert pos.b_star == pytest.approx(1.0 - 1.0 / lr, abs=1e-12)
            assert pos.b_star <= 1.0

    def test_prior_independence_cross_check(self):
        # tables generated from any prior with fixed test characteristics
        sens, spec = 0.85, 0.96
        reference, _ = doc_from_test(sens, spec)
        rng = random.Random(31)
        for _ in range(50):
            p1 = rng.uniform(0.01, 0.99)
            scale = 1e4
            t = ContingencyTable(
                n11=scale * p1 * sens,
                n10=scale * (1 - p1) * (1 - spec),
                n01=scale * p1 * (1 - sens),
                n00=scale * (1 - p1) * spec,
            )
            assert doc_h1_from_table(t).b_star == pytest.approx(
                reference.b_star, abs=1e-9)

    def test_test_reading_attainment_equals_kl(self):
        # doc_from_test's prior-free b* achieves the bits it reports under the
        # sampling distribution that Bayes' rule gives each reading
        rng = random.Random(7)
        seen = set()
        for _ in range(200):
            sens, spec = rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.999)
            pi = rng.uniform(0.02, 0.98)
            prior = Distribution(AB, (pi, 1.0 - pi))
            pos, neg = doc_from_test(sens, spec, prior_positive=pi)
            for result, reading, row in ((pos, "e1", (sens, 1.0 - spec)),
                                         (neg, "e0", (1.0 - sens, spec))):
                seen.add(result.case)
                sampling = bayes_invert(prior, row)
                achieved = average_semantic_info(
                    belief_adjust(Crisp(AB, {reading}), result.b_star), prior, sampling)
                assert result.information_bits >= 0.0
                assert result.information_bits == pytest.approx(achieved, abs=1e-9)
        assert seen == {DocCase.PROPER_AFFIRMATION, DocCase.EXCESSIVE_AFFIRMATION}


    @pytest.mark.parametrize("sens, spec, error", [
        (math.nan, 0.5, NonFinite),
        (0.5, math.nan, NonFinite),
        (math.inf, 0.5, NonFinite),
        (0.5, -math.inf, NonFinite),
        (1.5, 0.5, OutOfRange),
        (-0.1, 0.5, OutOfRange),
        (0.5, 1.5, OutOfRange),
        (0.5, -0.1, OutOfRange),
        (0.0, 0.5, ZeroSensitivity),
    ])
    def test_invalid_characteristics(self, sens, spec, error):
        # validation errors (exit 1) for non-finite and out-of-range inputs;
        # only a sensitivity of exactly 0 is a degeneracy (exit 2)
        with pytest.raises(error) as info:
            doc_from_test(sens, spec)
        assert info.value.exit_code == (2 if error is ZeroSensitivity else 1)

    @pytest.mark.parametrize("prior, error", [
        (math.nan, NonFinite), (1.5, OutOfRange), (-0.1, OutOfRange)])
    def test_invalid_prior(self, prior, error):
        with pytest.raises(error):
            doc_from_test(0.917, 0.999, prior_positive=prior)

    @settings(max_examples=500, deadline=None)
    @given(sens=UNIT.filter(lambda x: x > 0.0), spec=UNIT, pi=UNIT)
    def test_mass_pairs_give_the_bits_of_the_distribution_path(self, sens, spec, pi):
        # each reading's bits are those of the Distribution, bayes_invert and
        # kl_divergence objects, to the last bit, or both paths raise alike
        def objects():
            prior = Distribution(AB, (pi, 1.0 - pi))
            return tuple(kl_divergence(bayes_invert(prior, row), prior)
                         for row in ((sens, 1.0 - spec), (1.0 - sens, spec)))

        def pairs():
            return tuple(r.information_bits for r in doc_from_test(sens, spec, prior_positive=pi))

        assert outcome(pairs) == outcome(objects)

    @pytest.mark.parametrize("sens, spec, prior", [
        (0.5, 1.0, 0.0), (0.5, 0.0, 0.0), (1.0, 0.5, 1.0), (1.0, 0.0, 0.5)])
    def test_reading_the_prior_never_selects(self, sens, spec, prior):
        # a reading with no selection mass under the prior is a degeneracy (exit 2)
        with pytest.raises(ZeroSelectionMass) as info:
            doc_from_test(sens, spec, prior_positive=prior)
        assert info.value.exit_code == 2


class TestGpsCep:
    def test_half_coverage_geometry_is_exact(self):
        r = gps_cep_doc(Fraction(1, 2), 7, 7000)
        assert r.b_star == Fraction(998, 999)

    def test_uniform_everywhere(self):
        assert gps_cep_doc(Fraction(1, 2), 5, 10).b_star == 0

    def test_small_grid(self):
        r = gps_cep_doc(Fraction(9, 10), 1, 10)
        assert r.b_prime_star == Fraction(1, 81)

    def test_excessive_branch_is_exact(self):
        # half the cells hold a tenth of the mass: the circle is over-asserted
        f, n, total = Fraction(1, 10), 5, 10
        p1, p0 = f / n, (1 - f) / (total - n)
        r = gps_cep_doc(f, n, total)
        assert r.case is DocCase.EXCESSIVE_AFFIRMATION
        assert isinstance(r.b_star, Fraction)
        assert r.b_star == p1 / p0 - 1
        assert r.b_prime_star == p1 / p0

    @pytest.mark.parametrize("cep", [math.nan, math.inf, -math.inf])
    def test_non_finite_fraction(self, cep):
        with pytest.raises(NonFinite):
            gps_cep_doc(cep, 1, 10)

    def test_degenerate_geometry(self):
        with pytest.raises(DegenerateGeometry):
            gps_cep_doc(Fraction(1, 2), 10, 10)


class TestPredictedProbability:
    def test_high_risk_group(self):
        assert predicted_probability(0.1, 0.0011) == pytest.approx(0.991, abs=0.001)

    def test_full_disbelief_leaves_prior(self):
        assert predicted_probability(0.3, 1.0) == pytest.approx(0.3)

    def test_full_confirmation(self):
        assert predicted_probability(0.3, 0.0) == 1.0

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            predicted_probability(0.0, 0.0)

    @pytest.mark.parametrize("p_e1, b_prime, error", [
        (math.nan, 0.5, NonFinite),
        (0.5, math.inf, NonFinite),
        (1.5, 0.5, OutOfRange),
        (-0.1, 0.5, OutOfRange),
        (0.5, 1.5, OutOfRange),
        (0.5, -0.1, OutOfRange),
    ])
    def test_invalid_inputs(self, p_e1, b_prime, error):
        with pytest.raises(error):
            predicted_probability(p_e1, b_prime)


class TestRavenIncrements:
    def test_designed_crossover(self):
        # n11 = n01 = 10*n10 and n11 > n00/1.9 puts the e00 increment on top
        t = ContingencyTable(n11=100, n10=10, n01=100, n00=80)
        d11, d00 = raven_increments(t)
        assert d00 > d11

    def test_no_counterexamples_freezes_doc(self):
        d11, d00 = raven_increments(ContingencyTable(10, 0, 4, 500))
        assert d11 == 0.0 and d00 == 0.0

    def test_matches_finite_differences(self):
        t = ContingencyTable(10, 1, 10, 100)
        d11, d00 = raven_increments(t)
        h = 1e-4

        def b1(n11, n00):
            return doc_h1_from_table(
                ContingencyTable(n11, t.n10, t.n01, n00)).b_star

        fd11 = (b1(t.n11 + h, t.n00) - b1(t.n11 - h, t.n00)) / (2 * h)
        fd00 = (b1(t.n11, t.n00 + h) - b1(t.n11, t.n00 - h)) / (2 * h)
        assert d11 == pytest.approx(fd11, abs=1e-6)
        assert d00 == pytest.approx(fd00, abs=1e-6)

    def test_integer_tables_within_three_ulps_of_exact(self):
        rng = random.Random(23)
        for _ in range(2000):
            n11, n10, n01, n00 = (rng.randint(1, 10**6) for _ in range(4))
            exact = (Fraction(n10 * n01, (n00 + n10) * n11**2),
                     Fraction(n10 * (n01 + n11), n11 * (n00 + n10) ** 2))
            got = raven_increments(ContingencyTable(n11, n10, n01, n00))
            for value, want in zip(got, exact):
                assert abs(Fraction(value) - want) <= 3 * Fraction(math.ulp(float(want)))

    def test_counts_whose_products_overflow(self):
        # (n00 + n10)**2 overflows, yet d/dn11 = 6e-300 and d/dn00 = 8e-600 underflows to 0
        assert raven_increments(ContingencyTable(1, 2, 3, 1e300)) == (6e-300, 0.0)

    @pytest.mark.parametrize("counts", [(1e-300, 1, 1, 0)], ids=["d11-is-1e600"])
    def test_derivative_beyond_float_range_is_degenerate(self, counts):
        with pytest.raises(DegenerateInput) as info:
            raven_increments(ContingencyTable(*counts))
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("counts", [
        (1e308, 1e308, 1e308, 1e308), (1.7e308, 1.7e308, 1.7e308, 1.7e308),
        (1, 1e308, 1, 1e308), (3, 1.7e308, 1e308, 1e308), (1e308, 7, 1e308, 1e308),
    ], ids=["both-sums", "both-sums-near-max", "counter-sum", "counter-sum-small-n11",
            "both-sums-small-n10"])
    def test_sums_beyond_float_range_are_halved(self, counts):
        # a sum of two counts overflows, yet both derivatives are floats: (1e308,)*4
        # has 5e-309 and 5e-309, and (1, 1e308, 1, 1e308) has 0.5, which read 0
        # while n00 + n10 was inf; within three ulps of the exact value, as above
        n11, n10, n01, n00 = map(Fraction, counts)
        exact = (n10 * n01 / ((n00 + n10) * n11**2), n10 * (n01 + n11) / (n11 * (n00 + n10) ** 2))
        got = raven_increments(ContingencyTable(*counts))
        for value, want in zip(got, exact):
            assert abs(Fraction(value) - want) <= 3 * Fraction(math.ulp(float(want)))

    def test_doubling_claims(self):
        # n00 >> n10 and n11 = n01: doubling n00 halves b'; doubling n11 cuts 1/4
        t = ContingencyTable(n11=50, n10=2, n01=50, n00=5000)
        base = doc_h1_from_table(t).b_prime_star
        double_n00 = doc_h1_from_table(
            ContingencyTable(50, 2, 50, 10000)).b_prime_star
        double_n11 = doc_h1_from_table(
            ContingencyTable(100, 2, 50, 5000)).b_prime_star
        assert 0.49 <= double_n00 / base <= 0.51
        assert 0.74 <= double_n11 / base <= 0.76


class TestClosedFormVsOptimizer:
    def test_random_rate_specs(self):
        rng = random.Random(41)
        for _ in range(100):
            spec = random_rates(rng)
            closed = doc_from_rates(spec)
            prior = Distribution(AB, (spec.prior[1], spec.prior[0]))
            sampling = Distribution(AB, (spec.posterior[1], spec.posterior[0]))
            numeric = optimize_belief(Crisp(AB, {"e1"}), prior, sampling)
            assert numeric.b_star == pytest.approx(closed.b_star, abs=1e-3)
            assert numeric.information_bits == pytest.approx(
                closed.information_bits, abs=1e-6)
