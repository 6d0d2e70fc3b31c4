import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from semcal import (
    Alphabet,
    Channel,
    Crisp,
    Distribution,
    DocCase,
    Gaussian,
    GpsModel,
    RateSpec,
    SampleSet,
    Tabular,
    average_semantic_info,
    bayes_invert,
    belief_adjust,
    channel_from_samples,
    doc_from_rates,
    empirical_conditional,
    gps_fit,
    gps_objective,
    lag_distribution,
    negate,
    optimal_truth_function,
    optimize_belief,
    semantic_bayes,
    tautology,
)
from fractions import Fraction

from semcal import estimation, estimation_types
from semcal.distributions import NORMALIZATION_TOLERANCE
from semcal.estimation import TIE_BITS
from semcal.errors import (
    BeliefOutOfRange,
    DegenerateGeometry,
    DegenerateInput,
    DuplicateLabel,
    EmptyConditionSubset,
    GridTooCoarse,
    IndexMismatch,
    NegativeMass,
    NonFinite,
    NotNormalized,
    OutOfRange,
    SemcalError,
    ValidationError,
    ZeroLogicalProbability,
    ZeroPrior,
    ZeroRow,
)

AB = Alphabet(("e1", "e0"))


def birds_samples():
    records = (
        [("h1", "e1")] * 83 + [("h1", "e0")] * 57
        + [("h0", "e1")] * 17 + [("h0", "e0")] * 686
    )
    return SampleSet(AB, records)


class TestEmpiricalConditional:
    def test_birds_condition(self):
        d = empirical_conditional(birds_samples(), {"h1"})
        assert d.probs[0] == pytest.approx(0.5929, abs=1e-4)
        assert d.probs[1] == pytest.approx(0.4071, abs=1e-4)

    def test_single_record(self):
        s = SampleSet(AB, [("z", "e1")])
        assert empirical_conditional(s, {"z"}).probs == (1.0, 0.0)

    def test_no_matches(self):
        with pytest.raises(EmptyConditionSubset):
            empirical_conditional(birds_samples(), {"h9"})


class TestOptimalTruthFunction:
    def test_birds_row(self):
        channel = Channel(AB, ("h1", "h0"), ((0.830, 0.0767), (0.170, 0.9233)))
        tf = optimal_truth_function(channel, 0)
        assert tf.table[0] == 1.0
        assert tf.table[1] == pytest.approx(0.0924, abs=1e-4)

    def test_constant_row_is_tautology(self):
        channel = Channel(AB, ("h1", "h0"), ((0.3, 0.3), (0.7, 0.7)))
        assert optimal_truth_function(channel, 0).table == (1.0, 1.0)

    def test_one_hot_row(self):
        channel = Channel(AB, ("h1", "h0"), ((1.0, 0.0), (0.0, 1.0)))
        assert optimal_truth_function(channel, 0).table == (1.0, 0.0)

    def test_zero_row(self):
        channel = Channel(AB, ("h1", "h0"), ((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ZeroRow):
            optimal_truth_function(channel, 0)

    def test_channel_matching_beats_grid(self):
        # each hypothesis term maximized over all tabular truth values
        rng = random.Random(13)
        grid = np.linspace(0.0, 1.0, 21)
        mesh = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), -1).reshape(-1, 3)
        mesh = mesh[mesh.max(axis=1) == 1.0]
        for _ in range(10):
            ab = Alphabet(("a", "b", "c"))
            cols = np.array([[rng.uniform(0.05, 1.0) for _ in range(3)] for _ in range(3)])
            cols /= cols.sum(axis=0, keepdims=True)
            channel = Channel(ab, ("h1", "h2", "h3"), cols.tolist())
            p = np.array([0.2, 0.5, 0.3])
            prior = Distribution(ab, p)
            for j in range(3):
                sampling = bayes_invert(prior, channel.row(j))
                q = np.array(sampling.probs)
                with np.errstate(divide="ignore", invalid="ignore"):
                    lp = mesh @ p
                    info = (q[None, :] * np.log2(mesh)).sum(axis=1) - np.log2(lp)
                best_grid = np.max(info[~np.isnan(info)])
                tf = optimal_truth_function(channel, j)
                achieved = average_semantic_info(tf, prior, sampling)
                assert achieved >= best_grid - 1e-9


class TestOptimizeBelief:
    def test_matches_closed_form_on_figure_rates(self):
        spec = RateSpec(prior=(0.8, 0.2), posterior=(0.25, 0.75))
        closed = doc_from_rates(spec)
        prior = Distribution(AB, (0.2, 0.8))
        sampling = Distribution(AB, (0.75, 0.25))
        numeric = optimize_belief(Crisp(AB, {"e1"}), prior, sampling)
        assert numeric.b_star == pytest.approx(closed.b_star, abs=1e-6)

    def test_tautology_base_ties_to_zero(self):
        prior = Distribution(AB, (0.6, 0.4))
        sampling = Distribution(AB, (0.9, 0.1))
        r = optimize_belief(tautology(AB), prior, sampling)
        assert r.b_star == 0.0
        assert r.information_bits == 0.0

    def test_already_optimal_base(self, monkeypatch):
        # two truth values: the closed form gives the end, with no k evaluation
        evaluations = count_search_evaluations(monkeypatch)
        prior = Distribution(AB, (0.6, 0.4))
        base = Tabular(AB, (1.0, 0.3))
        sampling = semantic_bayes(prior, base)
        r = optimize_belief(base, prior, sampling)
        assert r.b_star == 1.0
        assert evaluations == []

    def test_already_optimal_three_valued_base(self, monkeypatch):
        # f still rises into b = 1, so the end test settles it with one k evaluation
        evaluations = count_search_evaluations(monkeypatch)
        ab = Alphabet(["x0", "x1", "x2"])
        prior = Distribution(ab, (0.5, 0.3, 0.2))
        base = Tabular(ab, (1.0, 0.6, 0.3))
        sampling = semantic_bayes(prior, base)
        r = optimize_belief(base, prior, sampling)
        assert r.b_star == 1.0
        assert evaluations == [1.0]

    def test_never_below_tautology(self):
        rng = random.Random(29)
        for _ in range(50):
            prior = Distribution(AB, [0.5, 0.5])
            q = rng.uniform(0.05, 0.95)
            sampling = Distribution(AB, (q, 1 - q))
            base = Tabular(AB, (rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)))
            assert optimize_belief(base, prior, sampling).information_bits >= 0.0

    @pytest.mark.parametrize("kind", ["gaussian", "belief-adjusted", "permuted-tabular"])
    def test_base_off_the_prior_alphabet_matches_a_scan(self, kind):
        # such a base is evaluated into a Tabular first; the reference scans
        # the information of the base itself, on each branch, by golden section
        rng = random.Random(24)
        for _ in range(20):
            n = rng.randint(3, 6)
            ab = Alphabet([f"x{i}" for i in range(n)])
            prior = Distribution(ab, normalized([rng.uniform(0.05, 1.0) for _ in range(n)]))
            sampling = Distribution(ab, normalized([rng.uniform(0.05, 1.0) for _ in range(n)]))
            table = [rng.uniform(0.05, 0.95) for _ in range(n)]
            if kind == "gaussian":
                base = Gaussian(0.0, 1.0, positions={label: rng.uniform(-2.0, 2.0)
                                                     for label in ab})
            elif kind == "belief-adjusted":
                base = belief_adjust(Tabular(ab, table), rng.uniform(-0.9, 0.9))
            else:
                order = rng.sample(range(n), n)
                base = Tabular(Alphabet([ab.labels[i] for i in order]), [table[i] for i in order])

            def f(b):
                return average_semantic_info(belief_adjust(base, b), prior, sampling)

            b_scan, bits_scan = max(golden_max(f, 0.0, 1.0), golden_max(f, -1.0, 0.0),
                                    key=lambda point: point[1])
            r = optimize_belief(base, prior, sampling)
            assert r.b_star == pytest.approx(b_scan, abs=1e-3)
            assert r.information_bits == pytest.approx(bits_scan, abs=1e-6)

    def test_degenerate_base(self):
        prior = Distribution(AB, (0.5, 0.5))
        with pytest.raises(DegenerateInput):
            optimize_belief(Tabular(AB, (0.0, 0.0)), prior, prior)

    @pytest.mark.parametrize("n", [64, 256])
    def test_search_evaluations(self, monkeypatch, n):
        evaluations = count_search_evaluations(monkeypatch)
        rng = random.Random(31)
        ab = Alphabet([f"x{i}" for i in range(n)])
        counts = []
        for _ in range(5):
            prior = Distribution(ab, normalized([rng.uniform(0.01, 1.0) for _ in range(n)]))
            sampling = Distribution(ab, normalized([rng.uniform(0.01, 1.0) for _ in range(n)]))
            crisp = Crisp(ab, rng.sample(ab.labels, n // 8))
            evaluations.clear()
            optimize_belief(crisp, prior, sampling)
            assert evaluations == []    # two truth values: the closed form
            evaluations.clear()
            optimize_belief(Tabular(ab, [rng.uniform(0.0, 1.0) for _ in range(n)]),
                            prior, sampling)
            assert 0 < len(evaluations) <= 20
            counts.append(len(evaluations))
        # from the moment-matched start (from b = 1 these took 8.4 and 9.4 on average)
        assert sum(counts) / len(counts) <= 7.0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_two_group_solve_runs_no_search(self, monkeypatch, sign):
        # at most two truth values where q > 0: the root is closed form, and
        # _concave_root is called only for three or more
        calls = count_calls(monkeypatch, "_concave_root")
        rng = random.Random(41)
        for n in (2, 3, 8, 64, 256):
            ab = Alphabet([f"x{i}" for i in range(n)])
            levels = (rng.uniform(0.0, 0.5), rng.uniform(0.5, 1.0))
            bases = (Crisp(ab, rng.sample(ab.labels, max(1, n // 4))),
                     Tabular(ab, [levels[i % 2] for i in range(n)]))
            for base in bases:
                prior = Distribution(ab, normalized([rng.uniform(0.01, 1.0) for _ in range(n)]))
                sampling = Distribution(ab, normalized([rng.uniform(0.01, 1.0)
                                                        for _ in range(n)]))
                slope = slope_at_zero(base, prior, sampling)
                p, q = (prior, sampling) if (slope > 0) == (sign > 0) else (sampling, prior)
                assert optimize_belief(base, p, q).b_star * sign > 0.0
        assert calls == []
        three = Tabular(Alphabet(["x0", "x1", "x2"]), (1.0, 0.5, 0.0))
        p, q = (Distribution(three.alphabet, masses) for masses in ((0.4, 0.3, 0.3),
                                                                    (0.3, 0.3, 0.4)))
        assert optimize_belief(three, *((p, q) if sign < 0 else (q, p))).b_star * sign > 0.0
        assert len(calls) == 1

    @pytest.mark.parametrize("sign", [1, -1])
    def test_falling_branch_end_is_not_evaluated(self, monkeypatch, sign):
        # by Jensen the branch f falls into from b = 0 stays below 0 bits, and
        # on the branch it rises into the root is the maximizer: the
        # information is evaluated once, at the root, and never past b = 0
        # on the falling side
        calls = count_calls(monkeypatch, "average_semantic_info")
        rng = random.Random(37)
        for n in (2, 3, 8, 64):
            ab = Alphabet([f"x{i}" for i in range(n)])
            for _ in range(5):
                prior = Distribution(ab, normalized([rng.uniform(0.01, 1.0) for _ in range(n)]))
                sampling = Distribution(ab, normalized([rng.uniform(0.01, 1.0) for _ in range(n)]))
                for base in (Crisp(ab, rng.sample(ab.labels, max(1, n // 4))),
                             Tabular(ab, [rng.uniform(0.0, 1.0) for _ in range(n)])):
                    slope = slope_at_zero(base, prior, sampling)
                    p, q = (prior, sampling) if (slope > 0) == (sign > 0) else (sampling, prior)
                    calls.clear()
                    r = optimize_belief(base, p, q)
                    [(tf, _, _)] = calls
                    assert tf.belief * sign > 0.0
                    if r.b_star == 0.0:     # a tie with b = 0
                        assert r.information_bits == 0.0
                    else:
                        assert tf.belief == r.b_star

    def test_interior_optimum_past_a_refused_end(self):
        # the complement of this base is ~1.8e-12 at x1, so at b = -1 the
        # logical probability is below CONTRADICTION_FLOOR; the optimum lies
        # inside the branch, and the end is never evaluated
        ab = Alphabet(["x0", "x1"])
        base = Tabular(ab, (1.0, 0.9999999999981716))
        prior = Distribution(ab, (0.7293033912679356, 0.2706966087320643))
        sampling = Distribution(ab, (0.7208382022610056, 0.27916179773899447))
        with pytest.raises(ZeroLogicalProbability):
            average_semantic_info(belief_adjust(base, -1.0), prior, sampling)
        r = optimize_belief(base, prior, sampling)
        assert -1.0 < r.b_star < 0.0 and r.case is DocCase.EXCESSIVE_AFFIRMATION
        assert r.information_bits == pytest.approx(
            exact_information(base.table, prior, sampling, r.b_star), rel=0.0, abs=1e-12)

    def test_slope_sign_from_rounding_alone_gives_zero(self):
        # the sampling is the prior moved by ~2e-16: the slope at 0 reads
        # negative, but on the complement's groups k does not rise (alpha <= 0),
        # so the closed form gives c = 0; the end c = 1 would have raised, as
        # its logical probability is ~5e-13, under CONTRADICTION_FLOOR
        ab = Alphabet(["x0", "x1"])
        base = Tabular(ab, (1.0, 0.9999999999995))
        prior = Distribution(ab, (0.047120701857565034, 0.952879298142435))
        sampling = Distribution(ab, (0.047120701857565235, 0.9528792981424348))
        assert slope_at_zero(base, prior, sampling) < 0.0
        assert estimation._two_group_root(
            *estimation._belief_groups(branch_table(base.table, -1), prior, sampling)) == 0.0
        with pytest.raises(ZeroLogicalProbability):
            average_semantic_info(belief_adjust(base, -1.0), prior, sampling)
        r = optimize_belief(base, prior, sampling)
        assert (r.b_star, r.b_prime_star, r.information_bits) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("positive, sign", [(["x1"], 1.0), (["x0"], -1.0)])
    def test_root_within_an_ulp_of_a_zero_truth_value(self, positive, sign):
        # the branch's groups are ((0.0, 1e-17), (1.0, 1.0)): the root lies
        # below 1 by less than an ulp, so -alpha/beta rounds up to 1.0, where
        # the truth value 0 would give -inf bits; the root is the float below 1
        ab = Alphabet(["x0", "x1"])
        prior = Distribution(ab, (0.5, 0.5))
        sampling = Distribution(ab, (1e-17, 1.0))
        r = optimize_belief(Crisp(ab, positive), prior, sampling)
        assert r.b_star == sign * math.nextafter(1.0, 0.0)
        assert r.information_bits > 0.9
        assert r.information_bits == pytest.approx(1.0, rel=0.0, abs=1e-12)
        assert r.case is (DocCase.PROPER_AFFIRMATION if sign > 0
                          else DocCase.EXCESSIVE_AFFIRMATION)

    def test_zero_slope_evaluates_nothing(self, monkeypatch):
        # E_Q[t] = E_P[t]: k(b) <= 0 on both branches, so b = 0 is the global maximum
        calls = count_calls(monkeypatch, "average_semantic_info")
        evaluations = count_search_evaluations(monkeypatch)
        ab = Alphabet(["x0", "x1", "x2"])
        base = Tabular(ab, (1.0, 0.5, 0.0))
        r = optimize_belief(base, Distribution(ab, (0.25, 0.5, 0.25)),
                            Distribution(ab, (0.5, 0.0, 0.5)))
        assert (r.b_star, r.b_prime_star, r.information_bits) == (0.0, 1.0, 0.0)
        assert r.case is DocCase.PROPER_AFFIRMATION
        assert calls == [] and evaluations == []


def normalized(weights):
    total = math.fsum(weights)
    return [w / total for w in weights]


def count_search_evaluations(monkeypatch):
    """Wrap the k that ``optimize_belief`` hands to ``_concave_root``; returns its points."""
    points = []
    original = estimation._concave_root

    def counted(k, *args, **kwargs):
        def g(x):
            points.append(x)
            return k(x)

        return original(g, *args, **kwargs)

    monkeypatch.setattr(estimation, "_concave_root", counted)
    return points


def count_calls(monkeypatch, name):
    """Wrap the module global ``estimation.<name>``; returns the list of its calls."""
    calls = []
    original = getattr(estimation, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(estimation, name, counted)
    return calls


def golden_max(f, lo, hi, tol=1e-9):
    """Maximize a unimodal f on [lo, hi] by golden-section search; returns (x, f(x)).

    The independent reference for the solvers: f is evaluated only strictly
    inside [lo, hi] (so -inf past the maximizer is fine), and each step keeps
    the golden share of the bracket on the better side until it is at most
    tol wide.
    """
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - ratio * (b - a), a + ratio * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - ratio * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + ratio * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 >= f2 else (x2, f2)


@st.composite
def gps_points(draw):
    """(lags, delta, d, b): a random lag vector with zeros on m in [8, 64] and
    an in-range point of the position model, delta off the kinks of the
    toroidal wrap (an integer shift for even m, a half-integer one for odd m).
    """
    m = draw(st.integers(8, 64))
    lags = lag_distribution(random_channel(m, draw(st.integers(0, 2**32 - 1)),
                                           draw(st.floats(0.0, 0.95))))
    delta = draw(st.integers(-m // 2, m // 2)) + draw(st.floats(0.1, 0.4))
    return lags, delta, draw(st.floats(2.0, m / 4.0)), draw(st.floats(0.01, 0.99))


def stacked_newton_terms(lags, total, delta, d, b, absolute=False):
    """Gradient and Hessian of F = ln 2 * gps_objective from an (8, m) stack of the slopes of g.

    The form ``_gps_newton_terms`` had before it summed moments: each first
    and second derivative of g is a row of its own, and two matrix products
    sum them.  With ``absolute`` every monomial of a slope (b*G*s^2/d^2 and
    b*G/d^2 of b*G*(s^2 - 1)/d^2, for one) and every term of the sums is
    taken in absolute value, which gives the magnitude rounding acts on in
    each entry.
    """
    m = lags.shape[0]
    sign = 1.0 if absolute else -1.0
    s = ((np.arange(m) - delta + m / 2) % m - m / 2) / d
    s = np.abs(s) if absolute else s
    s2 = s * s
    profile = np.exp(-0.5 * s2)
    ps, ps2 = profile * s, profile * s2
    outer, inner = b / d, b / (d * d)
    rows = np.stack((ps * outer, ps2 * outer, -sign * (profile - 1.0),
                     (ps2 + sign * profile) * inner, (ps2 + 2.0 * sign * profile) * s * inner,
                     (ps2 + 3.0 * sign * profile) * s2 * inner, ps / d, ps2 / d))
    truth = b * profile + (1.0 - b)
    ratio = lags / truth
    sums, means = (rows @ np.stack((ratio, np.full(m, 1.0 / m)), axis=1)).T.tolist()
    cross = ((rows[:3] * (ratio / truth)) @ rows[:3].T).tolist()
    sums, means = sums + [0.0], means + [0.0]    # g_bb = 0
    mean_g = 1.0 - sign * b * means[2]
    grad = [sums[i] + sign * total * means[i] / mean_g for i in range(3)]
    hess = [[sums[k] + sign * total * means[k] / mean_g + sign * cross[i][j]
             + total * means[i] * means[j] / mean_g**2 for j, k in enumerate(row)]
            for i, row in enumerate(((3, 4, 6), (4, 5, 7), (6, 7, 8)))]
    return grad, hess


def check_moment_sums(lags, total, delta, d, b):
    """``_gps_newton_terms`` is within 1e-12 of ``stacked_newton_terms``, relative to the
    magnitude of the terms of each entry, an independent path."""
    grad, hess = estimation._gps_newton_terms(lags, total, delta, d, b)
    ref_grad, ref_hess = stacked_newton_terms(lags, total, delta, d, b)
    size_grad, size_hess = stacked_newton_terms(lags, total, delta, d, b, absolute=True)
    for got, want, size in zip(grad + sum(hess, []), ref_grad + sum(ref_hess, []),
                               size_grad + sum(size_hess, [])):
        assert abs(got - want) <= 1e-12 * size


@st.composite
def belief_problems(draw, kind):
    """(base, prior, sampling) on 2-12 labels with strictly positive masses.

    A crisp base holds a proper, non-empty subset of the labels.
    """
    n = draw(st.integers(2, 12))
    ab = Alphabet([f"x{i}" for i in range(n)])
    masses = st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
    prior = Distribution(ab, normalized(draw(masses)))
    sampling = Distribution(ab, normalized(draw(masses)))
    if kind == "crisp":
        size = draw(st.integers(1, n - 1))
        base = Crisp(ab, draw(st.permutations(ab.labels))[:size])
    else:
        table = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        assume(max(table) >= 0.01)
        base = Tabular(ab, table)
    return base, prior, sampling


def slope_at_zero(base, prior, sampling):
    """E_Q[t] - E_P[t]: ln 2 times the slope of the belief objective at b = 0."""
    t = base.values(prior.alphabet)
    return math.fsum((q - p) * v for q, p, v in zip(sampling.probs, prior.probs, t))


def with_slope_sign(base, prior, sampling, sign):
    """Order (prior, sampling) so that E_Q[t] - E_P[t] has the given sign.

    Swapping the two distributions flips the sign of that slope at b = 0.
    """
    slope = slope_at_zero(base, prior, sampling)
    assume(slope != 0.0)
    return (prior, sampling) if (slope > 0) == (sign > 0) else (sampling, prior)


def grid_information(table, prior, sampling, points=20001):
    """Average semantic information at every b of a dense grid on [-1, 1]."""
    c = np.array(table)
    p = np.array(prior.probs)
    q = np.array(sampling.probs)
    b = np.linspace(-1.0, 1.0, points)[:, None]
    truth = np.where(b >= 0, 1.0 - b + b * c, 1.0 + b * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        info = (q * np.log2(truth)).sum(axis=1) - np.log2(truth @ p)
    return info[np.isfinite(info)]


@st.composite
def near_one_problems(draw):
    """(base, prior, sampling) on 2-12 labels, every truth value within 1e-6 of 1."""
    n = draw(st.integers(2, 12))
    ab = Alphabet([f"x{i}" for i in range(n)])
    masses = st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
    prior = Distribution(ab, normalized(draw(masses)))
    sampling = Distribution(ab, normalized(draw(masses)))
    gaps = draw(st.lists(st.floats(1e-9, 1e-6), min_size=n, max_size=n))
    return Tabular(ab, [1.0 - g for g in gaps]), prior, sampling


def exact_information(table, prior, sampling, b):
    """Average semantic information at belief b from exact rational truth values.

    Only each ratio t/LP is rounded, once, for its logarithm.
    """
    b = Fraction(b)
    offset = 1 - b if b >= 0 else Fraction(1)
    truth = [offset + b * Fraction(t) for t in table]
    lp = sum(Fraction(p) * t for p, t in zip(prior.probs, truth))
    return math.fsum(q * math.log2(t / lp) for q, t in zip(sampling.probs, truth) if q > 0)


@st.composite
def constant_base_problems(draw):
    """(base, prior, sampling) on 2-64 labels for a base of one constant value.

    The masses have zeros, and the two sum to different floats, so the
    slope at b = 0 need not round to 0.  The constant stays above 1e-9: at
    b = 1 the logical probability of a smaller one falls toward
    ``CONTRADICTION_FLOOR``.
    """
    n = draw(st.integers(2, 64))
    ab = Alphabet([f"x{i}" for i in range(n)])
    masses = st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n, max_size=n)
    prior, sampling = draw(masses), draw(masses)
    assume(any(prior) and any(sampling))
    prior, sampling = normalized(prior), normalized(sampling)
    assume(math.fsum(q - p for q, p in zip(sampling, prior)) != 0.0)
    value = draw(st.one_of(st.just(1.0), st.floats(1e-9, 1.0)))
    return Tabular(ab, [value] * n), Distribution(ab, prior), Distribution(ab, sampling)


class TestOptimizeBeliefProperties:
    @settings(max_examples=200, deadline=None)
    @given(problem=st.one_of(belief_problems("crisp"), belief_problems("tabular")))
    # all but a tautology: at b = -1 its logical probability is under CONTRADICTION_FLOOR
    @example(problem=(Tabular(Alphabet(["x0", "x1"]), (1.0, 0.9999999999999999)),
                      Distribution(Alphabet(["x0", "x1"]), (0.5, 0.5)), None))
    def test_uninformative_evidence_gives_exactly_zero(self, problem):
        # sampling == prior: by Jensen no belief carries positive information
        base, prior, _ = problem
        r = optimize_belief(base, prior, prior)
        assert r.b_star == 0.0
        assert r.b_prime_star == 1.0
        assert r.information_bits == 0.0
        assert r.case is DocCase.PROPER_AFFIRMATION

    @settings(max_examples=200, deadline=None)
    @given(problem=belief_problems("crisp"), sign=st.sampled_from([1, -1]))
    # an optimum worth ~1e-33 bits, which ties with b = 0
    @example(problem=(Crisp(AB, {"e1"}), Distribution(AB, (0.5, 0.5)),
                      Distribution(AB, (0.5 - 1e-16, 0.5 + 1e-16))), sign=1)
    @example(problem=(Crisp(AB, {"e1"}), Distribution(AB, (0.5, 0.5)),
                      Distribution(AB, (0.5 - 1e-16, 0.5 + 1e-16))), sign=-1)
    def test_crisp_matches_two_mass_closed_form(self, problem, sign):
        # a crisp hypothesis on n labels only sees the masses P(S), Q(S) of its set
        base, prior, sampling = problem
        prior, sampling = with_slope_sign(base, prior, sampling, sign)
        p1 = math.fsum(p for p, t in zip(prior.probs, base.values(prior.alphabet)) if t)
        q1 = math.fsum(q for q, t in zip(sampling.probs, base.values(prior.alphabet)) if t)
        closed = doc_from_rates(RateSpec(prior=(1.0 - p1, p1), posterior=(1.0 - q1, q1)))
        numeric = optimize_belief(base, prior, sampling)
        assert numeric.information_bits == pytest.approx(closed.information_bits, abs=1e-6)
        if closed.information_bits <= TIE_BITS:
            assert numeric.b_star == 0.0    # the tie rule
        else:
            assert numeric.b_star == pytest.approx(closed.b_star, abs=1e-3)
            assert (numeric.b_star > 0) == (sign > 0)

    @settings(max_examples=200, deadline=None)
    @given(problem=belief_problems("tabular"), sign=st.sampled_from([1, -1]))
    def test_tabular_reaches_grid_maximum(self, problem, sign):
        base, prior, sampling = problem
        prior, sampling = with_slope_sign(base, prior, sampling, sign)
        numeric = optimize_belief(base, prior, sampling)
        assert -1.0 <= numeric.b_star <= 1.0
        assert numeric.information_bits >= grid_information(
            base.table, prior, sampling).max() - 1e-9

    @settings(max_examples=200, deadline=None)
    @given(problem=st.one_of(belief_problems("crisp"), belief_problems("tabular")))
    def test_denial_mirrors_affirmation(self, problem):
        # the belief -c in t has the truth values of the belief c in 1 - t, so
        # the denial's positive branch is the same solve as the base's negative
        # one.  (Oriented this way because negate computes 1 - t as the solver
        # does; 1 - (1 - t) can differ from t in the last bit.)
        base, prior, sampling = problem
        prior, sampling = with_slope_sign(base, prior, sampling, -1)
        denial = negate(base)
        assume(slope_at_zero(denial, prior, sampling) > 0.0)
        affirmed = optimize_belief(base, prior, sampling)
        denied = optimize_belief(denial, prior, sampling)
        assert denied.b_star == -affirmed.b_star
        assert denied.information_bits == affirmed.information_bits

    @settings(max_examples=300, deadline=None)
    @given(problem=st.one_of(near_one_problems(), belief_problems("crisp"),
                             belief_problems("tabular")),
           sign=st.sampled_from([1, -1]))
    def test_near_one_base_matches_exact_information(self, problem, sign):
        # the reported bits are those at b*; on the negative branch 1 + b*t
        # cancels near b = -1 for t near 1
        base, prior, sampling = problem
        prior, sampling = with_slope_sign(base, prior, sampling, sign)
        r = optimize_belief(base, prior, sampling)
        assert r.b_star * sign >= 0.0
        assert r.information_bits == pytest.approx(
            exact_information(base.values(prior.alphabet), prior, sampling, r.b_star),
            rel=0.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(problem=constant_base_problems())
    @example(problem=(Tabular(AB, (1.0, 1.0)), Distribution(AB, (0.3, 0.7)),
                      Distribution(AB, (0.1, 0.9))))
    def test_constant_base_carries_no_information(self, problem):
        # every belief leaves the truth values of a constant base equal, while
        # rounding can leave its slope a few 1e-16 from 0 either way
        base, prior, sampling = problem
        r = optimize_belief(base, prior, sampling)
        assert (r.b_star, r.b_prime_star, r.information_bits) == (0.0, 1.0, 0.0)
        assert r.case is DocCase.PROPER_AFFIRMATION


def outcome(measure, tf) -> str:
    """The repr of ``measure(tf)``, or the name of the SemcalError it raised.

    A float's repr names its bits exactly, -0.0 and -inf included.
    """
    try:
        return repr(measure(tf))
    except SemcalError as exc:
        return type(exc).__name__


class TestCrispIsItsTable:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 256), seed=st.integers(0, 2**32 - 1))
    def test_crisp_and_its_table_give_the_same_bits(self, n, seed):
        rng = random.Random(seed)
        ab = Alphabet([f"x{i}" for i in range(n)])
        members = set(rng.sample(ab.labels, rng.randint(0, n)))
        crisp = Crisp(ab, members)
        assert crisp.table == tuple(1.0 if label in members else 0.0 for label in ab.labels)
        table = Tabular(ab, crisp.table)
        assert crisp != table and table != crisp
        prior = Distribution(ab, normalized([rng.uniform(0.01, 1.0) for _ in range(n)]))
        masses = [rng.random() if rng.random() < 0.8 else 0.0 for _ in range(n)]
        masses[rng.randrange(n)] = 1.0
        sampling = Distribution(ab, normalized(masses))
        for base in (crisp, negate(crisp)):
            same = Tabular(ab, base.table)
            assert base.values(ab) == same.values(ab)
            for measure in (lambda tf: optimize_belief(tf, prior, sampling),
                            lambda tf: average_semantic_info(tf, prior, sampling),
                            lambda tf: semantic_bayes(prior, tf)):
                assert outcome(measure, base) == outcome(measure, same)


@st.composite
def objective_problems(draw):
    """(table, prior, sampling) on 2-256 labels for the grouped belief solve.

    The base is crisp or takes a few repeated values, so that labels share a
    truth value and their sampling mass merges into one group.  The sampling
    has zero entries; the prior is positive.
    """
    n = draw(st.integers(2, 256))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = [0.0, 1.0]
    else:
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    table = [rng.choice(values) for _ in range(n)]
    zero_share = draw(st.floats(0.0, 0.9))
    ab = Alphabet([f"x{i}" for i in range(n)])
    prior = Distribution(ab, normalized([rng.uniform(0.01, 1.0) for _ in range(n)]))
    weights = [0.0 if rng.random() < zero_share else rng.uniform(0.01, 1.0) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1.0
    return table, prior, Distribution(ab, normalized(weights))


def branch_table(table, sign):
    """The table the belief solve groups on a branch: the base, or its complement for sign < 0."""
    return tuple(table) if sign > 0 else tuple(1.0 - t for t in table)


def branch_problems():
    """(table, prior, sampling) with crisp, few-valued and all-distinct bases."""
    def as_table(problem):
        base, prior, sampling = problem
        return list(base.values(prior.alphabet)), prior, sampling

    return st.one_of(objective_problems(), belief_problems("tabular").map(as_table))


class TestBeliefGap:
    """k = H - LP, whose root on a branch ``_concave_root`` finds."""

    @settings(max_examples=200, deadline=None)
    @given(problem=branch_problems(), sign=st.sampled_from([1.0, -1.0]))
    def test_concave_with_matching_slope(self, problem, sign):
        table, prior, sampling = problem
        k = estimation._belief_gap(*estimation._belief_groups(branch_table(table, sign), prior,
                                                              sampling))
        grid = [i / 64 for i in range(1, 64)]
        values = [k(b)[0] for b in grid]
        for left, mid, right in zip(values, values[1:], values[2:]):
            assert left - 2.0 * mid + right <= 1e-12
        h = 1e-6
        for b in grid[1:-1:4]:
            difference = (k(b + h)[0] - k(b - h)[0]) / (2.0 * h)
            assert k(b)[1] == pytest.approx(difference, rel=1e-5, abs=1e-7)

    @settings(max_examples=200, deadline=None)
    @given(problem=branch_problems(), sign=st.sampled_from([1.0, -1.0]),
           size=st.floats(0.05, 0.95))
    def test_information_slope(self, problem, sign, size):
        # f'(b) = M*k/(b*H*LP*ln 2) against a central difference of the
        # information at the belief sign*b in the base
        table, prior, sampling = problem
        b = size
        groups, kept, mean = estimation._belief_groups(branch_table(table, sign), prior, sampling)
        gap, _ = estimation._belief_gap(groups, kept, mean)(b)
        offset = 1.0 - b
        harmonic = kept / math.fsum(q / (offset + b * t) for t, q in groups)
        slope = kept * gap / (b * harmonic * (offset + b * mean) * math.log(2.0))
        base = Tabular(prior.alphabet, table)

        def info(x):
            return average_semantic_info(belief_adjust(base, sign * x), prior, sampling)

        h = 1e-6
        assert slope == pytest.approx((info(b + h) - info(b - h)) / (2.0 * h),
                                      rel=1e-5, abs=1e-7)

    @settings(max_examples=300, deadline=None)
    @given(problem=branch_problems())
    def test_root_is_no_worse_than_brent(self, problem):
        # on the branch f rises into, as optimize_belief solves it
        table, prior, sampling = problem
        slope = slope_at_zero(Tabular(prior.alphabet, table), prior, sampling)
        assume(slope != 0.0)
        branch = branch_table(table, slope)
        groups = estimation._belief_groups(branch, prior, sampling)
        root = estimation._concave_root(estimation._belief_gap(*groups),
                                        estimation._moment_start(*groups))
        tf = Tabular(prior.alphabet, branch)

        def f(x):
            return average_semantic_info(belief_adjust(tf, x), prior, sampling)

        try:
            _, brent = golden_max(f, 0.0, 1.0)
            bits = f(root)
        except ZeroLogicalProbability:      # it underflows near the end of the branch
            assume(False)
        assert bits >= brent - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(problem=gps_points())
    def test_lag_gap_matches_grouped_gap(self, problem):
        # at fixed (delta, d) the position model's belief is a belief problem
        # on the lag alphabet: F_b = M*k/(b*H*LP) in nats, from the groups
        lags, delta, d, b = problem
        m = lags.shape[0]
        profile = estimation_types.gaussian_profile(m, delta, d)
        ab = Alphabet([f"k{i}" for i in range(m)])
        groups, kept, mean = estimation._belief_groups(
            tuple(profile.tolist()), Distribution(ab, [1.0 / m] * m), Distribution(ab, lags.tolist()))
        gap, _ = estimation._belief_gap(groups, kept, mean)(b)
        harmonic = kept / math.fsum(q / (1.0 - b + b * t) for t, q in groups)
        slope = kept * gap / (b * harmonic * (1.0 - b + b * mean) * math.log(2.0))
        grad, _ = estimation._gps_newton_terms(lags, float(lags.sum()), delta, d, b)
        assert grad[2] / math.log(2.0) == pytest.approx(slope, rel=1e-8, abs=1e-10)


@st.composite
def two_group_problems(draw):
    """(groups, kept, mean) of a rising branch with at most two truth values.

    The truth values include 0 and 1, the kept mass may be below 1, and the
    prior mean is drawn near the sampling mean as well, for a root near 0;
    a sampling share near 0 or 1 puts the root near 1.
    """
    truth = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    t0, t1 = draw(truth), draw(truth)
    assume(abs(t0 - t1) >= 1e-3)
    kept = draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0)))
    share = draw(st.floats(1e-9, 1.0 - 1e-9))
    q0, q1 = kept * share, kept * (1.0 - share)
    sampling_mean = (q0 * t0 + q1 * t1) / kept
    mean = draw(st.one_of(st.floats(0.0, 1.0),
                          st.floats(-1e-4, 0.0).map(lambda x: max(0.0, sampling_mean + x))))
    groups = ((t0, q0), (t1, q1)) if draw(st.booleans()) else ((t0, kept),)
    # f rises from b = 0, as on the branch optimize_belief solves.  The search
    # reads the sign of k = H - LP, which is only good to ~1e-16 absolute,
    # so its root is good to ROOT_TOL only where k' = alpha/M at 0 is not tiny
    assume(sum(Fraction(q) * (Fraction(t) - Fraction(mean)) for t, q in groups) > 1e-6)
    return groups, math.fsum(q for _, q in groups), mean


def exact_root(groups, mean):
    """The root of k = H - LP on (0, 1], by bisection on the exact sign of k.

    The kept mass is the exact sum of the group masses, so that k(0) = 0.
    Every k is evaluated in rationals at a float c; the bracket ends on two
    adjacent floats.  Returns 1.0 when k(1) >= 0.
    """
    kept = sum(Fraction(q) for _, q in groups)

    def k_sign(c):
        c = Fraction(c)
        truth = [1 + c * (Fraction(t) - 1) for t, _ in groups]
        if 0 in truth:
            return -1
        h = kept / sum(Fraction(q) / x for (_, q), x in zip(groups, truth))
        gap = h - (1 + c * (Fraction(mean) - 1))
        return (gap > 0) - (gap < 0)

    if k_sign(1.0) >= 0:
        return 1.0
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        sign = k_sign(mid)
        if sign == 0:
            return mid
        lo, hi = (mid, hi) if sign > 0 else (lo, mid)


def belief_root(groups, mean):
    """The root of k on a branch's groups, as ``optimize_belief`` finds it.

    Closed form for at most two groups, else the search from the start of
    ``_moment_start``.
    """
    kept = math.fsum(q for _, q in groups)
    if len(groups) <= 2:
        return estimation._two_group_root(groups, kept, mean)
    return estimation._concave_root(estimation._belief_gap(groups, kept, mean),
                                    estimation._moment_start(groups, kept, mean))


class TestTwoGroupRoot:
    """The closed-form root against ``_concave_root`` and ``exact_root`` on the same groups."""

    @settings(max_examples=500, deadline=None)
    @given(problem=two_group_problems())
    # a crisp base: the root 1 - (Q0/Q1)/(P0/P1) is ~4.8e-7 from 0 here
    @example(problem=(((1.0, 0.3000001), (0.0, 0.6999999)), 1.0, 0.3))
    # and ~2e-9 from 1 here
    @example(problem=(((1.0, 1.0 - 1e-9), (0.0, 1e-9)), 1.0, 0.5))
    def test_matches_root_search(self, problem):
        groups, kept, mean = problem
        closed = estimation._two_group_root(groups, kept, mean)
        searched = estimation._concave_root(estimation._belief_gap(groups, kept, mean), 1.0)
        assert 0.0 <= closed <= 1.0
        assert closed == pytest.approx(searched, rel=0.0, abs=2 * estimation.ROOT_TOL)

    @pytest.mark.parametrize("groups, mean", [
        (((1.0, 0.25), (0.0, 0.75)), 0.2),                  # crisp
        (((1.0, 0.3000001), (0.0, 0.6999999)), 0.3),        # root near 0
        (((0.0, 0.25), (1.0, 0.75)), 0.75 - 2.0**-50),      # root ~5e-15 from 0
        (((1.0, 1.0 - 1e-9), (0.0, 1e-9)), 0.5),            # root near 1
        (((0.9, 0.5), (0.0, 0.3)), 0.4),                    # a zero truth value, M < 1
        (((0.7, 0.45), (0.2, 0.45)), 0.35),                 # M < 1
        (((1.0, 0.6), (0.3, 0.4)), 1.0 / (0.6 + 0.4 / 0.3)),  # already optimal: the end
        (((0.6, 1.0),), 0.4),                               # one group: the end
        (((0.0, 1e-17), (1.0, 1.0)), 0.5),                  # root < 1 ulp below 1
        # three groups, searched: the complement branch of the base (0, 5e-9,
        # 1e-8) under prior (0.093, 0.558, 0.349) and sampling (0.126, 0.519,
        # 0.355), so b* = -1.  k(1) > 0 and the root is the end: a search
        # started at the float below 1 must still evaluate the end
        (((1.0, 0.126), (0.999999995, 0.519), (0.99999999, 0.355)), 0.99999999372),
    ])
    def test_matches_exact_root(self, groups, mean):
        closed = belief_root(groups, mean)
        exact = exact_root(groups, mean)
        assert 0.0 < closed <= 1.0
        assert (closed < 1.0) == (exact < 1.0)
        assert closed == pytest.approx(exact, rel=0.0, abs=1e-15)


@st.composite
def many_group_problems(draw):
    """(groups, kept, mean) of a rising branch with three to eight truth values.

    Drawn as ``two_group_problems`` draws two, under the same assumption of
    a slope at b = 0 that is not tiny: truth values 0, 1 or between, a kept
    mass that may be below 1, and a prior mean near the sampling mean as
    well; a small share on a low truth value puts the root near 1.
    """
    truth = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    values = draw(st.lists(truth, min_size=3, max_size=8, unique=True))
    kept = draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0)))
    shares = draw(st.lists(st.floats(1e-9, 1.0), min_size=len(values), max_size=len(values)))
    total = math.fsum(shares)
    groups = tuple((t, kept * share / total) for t, share in zip(values, shares))
    sampling_mean = math.fsum(q * t for t, q in groups) / kept
    mean = draw(st.one_of(st.floats(0.0, 1.0),
                          st.floats(-1e-4, 0.0).map(lambda x: max(0.0, sampling_mean + x))))
    assume(sum(Fraction(q) * (Fraction(t) - Fraction(mean)) for t, q in groups) > 1e-6)
    return groups, math.fsum(q for _, q in groups), mean


#: At b = 1 the 1/T of the last group overflows: the sums that give k(1) > 0, and so
#: the root 1, are taken relative to that truth value.
SUBNORMAL_TRUTH = (((1.0, 1 / 3), (0.5, 1 / 3), (2.2250738585e-313, 1 / 3)), 1.0,
                   2.2250738585e-313)


class TestMomentStart:
    """The search from the two-point model's root against ``exact_root``."""

    @settings(max_examples=300, deadline=None)
    @given(problem=many_group_problems())
    @example(problem=SUBNORMAL_TRUTH)
    def test_search_matches_exact_root(self, problem):
        groups, kept, mean = problem
        assert 0.0 < estimation._moment_start(groups, kept, mean) <= 1.0
        searched = belief_root(groups, mean)
        exact = exact_root(groups, mean)
        if exact == 1.0:
            assert searched == 1.0
        assert searched == pytest.approx(exact, rel=0.0, abs=2 * estimation.ROOT_TOL)

    @settings(max_examples=200, deadline=None)
    @given(problem=many_group_problems(),
           start=st.one_of(st.just(math.nextafter(1.0, 0.0)), st.floats(1e-3, 1.0)))
    # the root lies between the float below 1 and 1, where k < 0: the
    # search ends on the end as the far side and returns the near side
    @example(problem=(((1.0, 0.49999999975), (0.5, 0.49999999975),
                       (1.3586790189257224e-270, 4.9999999975e-10)), 1.0, 1e-09),
             start=math.nextafter(1.0, 0.0))
    @example(problem=SUBNORMAL_TRUTH, start=1.0)
    @example(problem=SUBNORMAL_TRUTH, start=0.5)
    def test_any_start_keeps_the_end(self, problem, start):
        # the end is evaluated before a root below 1 is returned, from any
        # start: one at the float below 1 as well
        groups, kept, mean = problem
        searched = estimation._concave_root(estimation._belief_gap(groups, kept, mean), start)
        exact = exact_root(groups, mean)
        assert (searched == 1.0) == (exact == 1.0)
        assert searched == pytest.approx(exact, rel=0.0, abs=2 * estimation.ROOT_TOL)


def traced(f):
    """f and the list of the points it is evaluated at."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


def falsified_past(x):
    """-inf on (0.6, 1], as the belief objective is at b = 1 after a counterexample."""
    return float("-inf") if x > 0.6 else -((x - 0.55) ** 2)


# name: (f, lo, hi, argmax or None where every point is a maximizer)
LINE_CASES = {
    "interior_parabola": (lambda x: -((x - 0.3) ** 2), 0.0, 1.0, 0.3),
    "max_at_lo": (lambda x: -x, 0.0, 1.0, 0.0),
    "max_at_hi": (lambda x: x, -1.0, 0.0, 0.0),
    "minus_inf_at_hi": (falsified_past, 0.0, 1.0, 0.55),
    "flat": (lambda x: 0.0, 2.0, 50.0, None),
}


class TestLineMax:
    """The line-maximizer contract, held by ``golden_max``: the solver tests
    compare against it, so it must find the maximizer it claims to."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("name", sorted(LINE_CASES))
    def test_contract(self, name, tol):
        f, lo, hi, argmax = LINE_CASES[name]
        g, points = traced(f)
        x, fx = golden_max(g, lo, hi, tol=tol)
        assert all(lo < u < hi for u in points)
        assert x in points and fx == f(x)
        # the evaluations certify a bracket around x at most tol wide
        left = max([lo] + [u for u in points if u < x])
        right = min([hi] + [u for u in points if u > x])
        assert right - left <= tol
        if argmax is not None:
            assert abs(x - argmax) <= tol

    @settings(max_examples=200, deadline=None)
    @given(peak=st.floats(0.0, 1.0), power=st.floats(0.5, 4.0),
           lo=st.floats(-5.0, 0.0), width=st.floats(0.01, 10.0))
    def test_unimodal_peak_found(self, peak, power, lo, width):
        hi = lo + width
        c = lo + peak * width
        x, fx = golden_max(lambda u: -abs(u - c) ** power, lo, hi, tol=1e-9)
        assert lo < x < hi
        assert abs(x - c) <= 1e-9


@st.composite
def tagged_samples(draw):
    """Records over 2-64 labels and 1-8 condition tags, every label seen."""
    labels = [f"e{i}" for i in range(draw(st.integers(2, 64)))]
    tag = st.sampled_from([f"c{j}" for j in range(draw(st.integers(1, 8)))])
    records = [(draw(tag), label) for label in labels]
    records += draw(st.lists(st.tuples(tag, st.sampled_from(labels)), max_size=200))
    return SampleSet(Alphabet(labels), draw(st.permutations(records)))


class TestChannelFromSamples:
    def test_birds_selecting_rule(self):
        channel, prior = channel_from_samples(birds_samples())
        j = channel.hypothesis_index("h1")
        assert channel.row(j)[0] == pytest.approx(0.830, abs=1e-3)
        assert channel.row(j)[1] == pytest.approx(0.0767, abs=1e-4)
        assert prior.probs[0] == pytest.approx(100 / 843, abs=1e-9)

    def test_likelihood_matches_empirical_conditional(self):
        # MSIE/MLE agreement: the matched semantic channel predicts the sample
        channel, prior = channel_from_samples(birds_samples())
        for j, name in enumerate(channel.hypotheses):
            tf = optimal_truth_function(channel, j)
            predicted = semantic_bayes(prior, tf)
            observed = empirical_conditional(birds_samples(), {name})
            assert predicted.probs == pytest.approx(observed.probs, abs=1e-6)

    def test_reads_the_records_once(self):
        class CountingRecords(tuple):
            iterations = 0

            def __iter__(self):
                CountingRecords.iterations += 1
                return super().__iter__()

        samples = birds_samples()
        object.__setattr__(samples, "records", CountingRecords(samples.records))
        channel_from_samples(samples)
        assert CountingRecords.iterations == 1

    def test_label_without_records_is_a_zero_prior(self):
        samples = SampleSet(Alphabet(("a", "b", "z")), [("h", "a"), ("g", "b")])
        with pytest.raises(ZeroPrior, match="'z'") as info:
            channel_from_samples(samples)
        assert info.value.exit_code == 2

    def test_empty_sample_set(self):
        with pytest.raises(EmptyConditionSubset):
            channel_from_samples(SampleSet(AB, []))

    @settings(max_examples=100, deadline=None)
    @given(samples=tagged_samples())
    def test_rows_are_bayes_from_exact_counts(self, samples):
        channel, prior = channel_from_samples(samples)
        records = samples.records
        assert channel.hypotheses == tuple(dict.fromkeys(c for c, _ in records))
        total = len(records)
        n_e = {label: sum(1 for _, e in records if e == label) for label in samples.alphabet}
        for c, row in zip(channel.hypotheses, channel.matrix):
            n_c = sum(1 for h, _ in records if h == c)
            for label, value in zip(samples.alphabet, row):
                # P(c) * P(e|c) / P(e)
                exact = (Fraction(n_c, total) * Fraction(records.count((c, label)), n_c)
                         / Fraction(n_e[label], total))
                assert abs(value - exact) <= 1e-15
        for i in range(len(samples.alphabet)):
            column = math.fsum(row[i] for row in channel.matrix)
            assert abs(column - 1.0) <= NORMALIZATION_TOLERANCE
        assert prior == empirical_conditional(samples, channel.hypotheses)


@pytest.mark.parametrize("value", [1.5, -0.25])
def test_channel_value_outside_unit_interval_is_out_of_range(value):
    with pytest.raises(OutOfRange):
        Channel(AB, ("h1", "h0"), ((value, 0.5), (1.0 - value, 0.5)))


# name: (constructor call, error); shape errors are IndexMismatch, range errors OutOfRange,
# a repeated name DuplicateLabel
MISUSE_CASES = {
    "channel-duplicate-hypothesis": (
        lambda: Channel(AB, ("h1", "h1"), ((0.5, 0.5), (0.5, 0.5))), DuplicateLabel),
    "channel-row-count": (lambda: Channel(AB, ("h1", "h0"), ((1.0, 1.0),)), IndexMismatch),
    "channel-row-length": (lambda: Channel(AB, ("h1",), ((1.0,),)), IndexMismatch),
    "rates-prior-not-a-pair": (lambda: RateSpec(prior=(0.2, 0.3, 0.5), posterior=(0.5, 0.5)),
                               IndexMismatch),
    "rates-posterior-not-a-pair": (lambda: RateSpec(prior=(0.5, 0.5), posterior=(1.0,)),
                                   IndexMismatch),
    "rates-negative-mass": (lambda: RateSpec(prior=(1.2, -0.2), posterior=(0.5, 0.5)),
                            NegativeMass),
    "rates-not-normalized": (lambda: RateSpec(prior=(0.5, 0.5 + 2e-9), posterior=(0.5, 0.5)),
                             NotNormalized),
    "distribution-negative-mass": (lambda: Distribution(AB, (1.2, -0.2)), NegativeMass),
    "gps-floor-fills-grid": (lambda: GpsModel(grid_size=50, delta_e=0.0, d=5.0, c=0.02),
                             OutOfRange),
    "gps-fractional-grid": (lambda: GpsModel(grid_size=64.5, delta_e=3, d=5.0, c=0.001),
                            OutOfRange),
    "gps-float-grid": (lambda: GpsModel(grid_size=64.0, delta_e=3, d=5.0, c=0.001), OutOfRange),
    "gps-bool-grid": (lambda: GpsModel(grid_size=True, delta_e=3, d=5.0, c=0.001), OutOfRange),
    "gps-bool-shift": (lambda: GpsModel(grid_size=64, delta_e=True, d=5.0, c=0.001),
                       OutOfRange),
    "gps-bool-floor": (lambda: GpsModel(grid_size=64, delta_e=3, d=5.0, c=False), OutOfRange),
    "gps-string-spread": (lambda: GpsModel(grid_size=64, delta_e=3, d="5", c=0.001),
                          OutOfRange),
    "gps-huge-int-shift": (lambda: GpsModel(grid_size=64, delta_e=10**400, d=5.0, c=0.001),
                           OutOfRange),
    "gps-huge-int-grid": (lambda: GpsModel(grid_size=10**400, delta_e=3, d=5.0, c=0.0),
                          OutOfRange),
    "gps-spread-square-overflows": (lambda: GpsModel(grid_size=64, delta_e=3, d=1e200, c=0.001),
                                    OutOfRange),
}


@pytest.mark.parametrize("build, error", MISUSE_CASES.values(), ids=MISUSE_CASES.keys())
def test_shape_and_range_misuse_error_class(build, error):
    with pytest.raises(error) as info:
        build()
    assert info.value.exit_code == 1


def test_rate_pair_within_normalization_tolerance_is_accepted():
    spec = RateSpec(prior=(0.5, 0.5 + 5e-10), posterior=(0.25, 0.75 - 5e-10))
    assert spec.prior == (0.5, 0.5 + 5e-10)
    assert doc_from_rates(spec).information_bits >= 0.0


def _floor_at_peak_spec(m=120, d=5.0):
    """(m, 0, d, c) with the floor c equal to the peak coefficient: b_ref = 0.5."""
    offsets = np.where(np.arange(m) > m / 2, np.arange(m) - m, np.arange(m))
    gsum = float(np.exp(-(offsets.astype(float) ** 2) / (2 * d * d)).sum())
    return (m, 0, d, 1.0 / (gsum + m))


#: (grid_size, delta_e, d, c): the models of test_12; d at the m/4 bound; a
#: fractional shift on a wide grid; c = 0, b at its top; and floor = peak.
EXACT_MODELS = [(200, 3, 6.0, 0.001), (240, 10, 8.0, 0.002), (200, 0, 6.0, 0.0004),
                (200, 0, 6.0, 0.001), (200, 0, 6.0, 0.002), (200, 0, 6.0, 0.004),
                (64, 0, 16.0, 0.001), (512, -30.49, 12.0, 0.0015), (200, -0.5, 2.0, 0.0),
                _floor_at_peak_spec()]


def random_exact_models(count=400, seed=25):
    """Exact position models: m in 8..256, d in [2, m/4], c = 0 one time in ten and
    else up to 0.9/m, and delta_e anywhere on the ring, drawn in that order."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(8, 256)
        d = rng.uniform(2, m / 4)
        c = 0.0 if rng.random() < 0.1 else rng.uniform(0, 0.9) / m
        yield GpsModel(m, rng.uniform(-m / 2, m / 2), d, c)


#: Exact models on which a Newton step that clipping turned below the rounding of F
#: once ended the fit far from the optimum: d = 9.32, 16.51 and, from the
#: least-squares start alone, delta off by 0.063.
CLIPPED_STALLS = [(51, 1.5, 12.5, 0.006740196078431373),
                  (94, 7.652902624439982, 21.52496523007765, 0.0038956310578615394),
                  (11, 4.515168407077873, 2.566295311738731, 0.06648093864197545)]


class TestGpsFit:
    def test_no_long_tail_full_confirmation(self):
        model = GpsModel(grid_size=120, delta_e=0, d=5.0, c=0.0)
        _, _, b_hat = gps_fit(model.channel_matrix())
        assert b_hat == pytest.approx(1.0, abs=0.02)

    def test_floor_equal_to_peak_halves_belief(self):
        # choose c so the peak coefficient equals the floor: b_ref = 0.5
        model = GpsModel(*_floor_at_peak_spec())
        assert model.reference_belief == pytest.approx(0.5, abs=1e-9)
        _, _, b_hat = gps_fit(model.channel_matrix())
        assert b_hat == pytest.approx(0.5, abs=0.02)

    def test_shift_recovery(self):
        model = GpsModel(grid_size=120, delta_e=3, d=5.0, c=0.001)
        delta_hat, d_hat, _ = gps_fit(model.channel_matrix())
        assert delta_hat == pytest.approx(3.0, abs=1.0)
        assert d_hat == pytest.approx(5.0, rel=0.05)

    def test_objective_translation_invariance(self):
        model = GpsModel(grid_size=64, delta_e=2, d=4.0, c=0.002)
        observed = model.channel_matrix()
        shifted = np.roll(np.roll(observed, 5, axis=0), 5, axis=1)
        a = gps_objective(observed, 2.0, 4.0, 0.8)
        b = gps_objective(shifted, 2.0, 4.0, 0.8)
        assert a == pytest.approx(b, abs=1e-9)

    def test_objective_calls_at_m200(self, monkeypatch):
        calls = count_calls(monkeypatch, "gps_objective")
        model = GpsModel(grid_size=200, delta_e=3, d=6.0, c=0.001)
        gps_fit(model.channel_matrix())
        assert 0 < len(calls) <= 250
        for observed, *_ in calls:    # the lag vector, as the benchmark's trace reads it
            assert isinstance(observed, np.ndarray) and observed.shape == (200,)

    def test_belief_step_maximizes_objective(self):
        model = GpsModel(grid_size=200, delta_e=3, d=6.0, c=0.001)
        lags = lag_distribution(model.channel_matrix())
        delta, d, b = gps_fit(model.channel_matrix())
        brent, best = golden_max(lambda x: gps_objective(lags, delta, d, x), 0.0, 1.0 - 1e-9)
        assert b == pytest.approx(brent, abs=1e-6)
        assert gps_objective(lags, delta, d, b) >= best - 1e-12

    def test_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            GpsModel(grid_size=100, delta_e=0, d=1.0, c=0.0)

    @pytest.mark.parametrize("spec", EXACT_MODELS, ids=[str(s) for s in EXACT_MODELS])
    def test_exact_channel_recovery(self, spec):
        # on an exact channel the model's own (delta_e, d, k/(k+c)) is the
        # global maximizer, so any error here is the solver's; the belief is
        # compared within the fit's box, whose top is 1 - 1e-9 (c = 0 gives 1)
        model = GpsModel(*spec)
        m = model.grid_size
        lags = lag_distribution(model.channel_matrix())
        delta, d, b = gps_fit(model.channel_matrix())
        b_ref = min(model.reference_belief, 1.0 - 1e-9)
        assert abs((delta - model.delta_e + m / 2) % m - m / 2) <= 1e-6
        assert abs(d - model.d) <= 1e-6
        assert abs(b - b_ref) <= 1e-6
        assert gps_objective(lags, delta, d, b) >= gps_objective(lags, model.delta_e, model.d,
                                                                 b_ref) - 1e-15

    def test_accuracy_on_random_exact_channels(self):
        # the accuracy gps_fit documents for this draw; measured at most 1.43e-9,
        # 4.10e-7 and 3.2e-9.  Over 26 draws of the same kind (seeds 25 to 50)
        # 0.26% of the fits end farther than these bounds, none with d off by
        # more than 4e-6; this draw holds none of them.
        for model in random_exact_models():
            m = model.grid_size
            delta, d, b = gps_fit(model.channel_matrix())
            assert abs((delta - model.delta_e + m / 2) % m - m / 2) <= 2e-9, model
            assert abs(d - model.d) <= 5e-7, model
            assert abs(b - min(model.reference_belief, 1.0 - 1e-9)) <= 4e-8, model

    @pytest.mark.parametrize("spec", CLIPPED_STALLS, ids=[str(s) for s in CLIPPED_STALLS])
    def test_clipped_step_stall(self, spec, monkeypatch):
        # the clipped Newton step is retried as the scaled slope, which clipping
        # cannot turn away from the gradient
        model = GpsModel(*spec)
        m = model.grid_size
        steps = count_calls(monkeypatch, "_gps_newton_terms")
        delta, d, b = gps_fit(model.channel_matrix())
        assert abs((delta - model.delta_e + m / 2) % m - m / 2) <= 1e-6
        assert abs(d - model.d) <= 1e-6
        assert abs(b - model.reference_belief) <= 1e-6
        assert len(steps) <= 12    # measured: 9, 10 and 7

    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
    def test_objective_calls_pinned(self, monkeypatch, sampled):
        # measured: 1 call on the exact channel, 3 on this sample of it
        model = GpsModel(grid_size=200, delta_e=3, d=6.0, c=0.001)
        observed = model.channel_matrix()
        if sampled:
            counts = np.random.default_rng(7).multinomial(20000, observed)
            observed = counts / counts.sum(axis=1, keepdims=True)
        calls = count_calls(monkeypatch, "gps_objective")
        gps_fit(observed)
        assert 0 < len(calls) <= (3 if sampled else 1)
        for lags, *_ in calls:
            assert isinstance(lags, np.ndarray) and lags.shape == (200,)

    def test_exact_channel_fits_in_one_step(self, monkeypatch):
        # the least-squares log-parabola reads (delta, d, b) off an exact channel
        # to rounding, with the vertex between two lags, so one Newton step confirms it
        model = GpsModel(grid_size=200, delta_e=2.37, d=6.4, c=0.001)
        objective = count_calls(monkeypatch, "gps_objective")
        steps = count_calls(monkeypatch, "_gps_newton_terms")
        delta, d, b = gps_fit(model.channel_matrix())
        assert (len(objective), len(steps)) == (1, 1)
        assert abs(delta - model.delta_e) <= 1e-9 and abs(d - model.d) <= 1e-9
        assert abs(b - model.reference_belief) <= 1e-9

    @pytest.mark.parametrize("seed", [11, 13, 28])
    def test_fit_returns_python_floats(self, seed):
        # uniform noise often has no concave peak, and d then starts at the half-maximum
        # width, a count: a numpy count would turn every coordinate into a numpy scalar
        observed = np.random.default_rng(seed).random((50, 50))
        observed /= observed.sum(axis=1, keepdims=True)
        assert all(type(v) is float for v in gps_fit(observed))

    def test_sampled_fit_is_a_coordinate_maximum(self):
        # an independent path to the optimum: golden-section search on F along
        # each coordinate in turn, from the fit's result, gains no more than
        # the rounding of F
        rng = np.random.default_rng(32)
        for _ in range(6):
            m = int(rng.integers(40, 257))
            model = GpsModel(m, float(rng.uniform(-6, 6)), float(rng.uniform(3, m / 8)),
                             float(rng.uniform(0.2, 0.9)) / m)
            counts = rng.multinomial(20000, model.channel_matrix())
            observed = counts / counts.sum(axis=1, keepdims=True)
            lags = lag_distribution(observed)
            point = list(gps_fit(observed))
            value = gps_objective(lags, *point)
            for i, (lo, hi) in enumerate([(point[0] - 1.0, point[0] + 1.0),
                                          (2.0, m / 4.0), (0.0, 1.0 - 1e-9)]):
                def along(x, i=i):
                    return gps_objective(lags, *point[:i], x, *point[i + 1:])
                _, best = golden_max(along, lo, hi, tol=1e-12)
                assert best - value <= 1e-12, (model, i)

    @pytest.mark.parametrize("observed, most_calls", [
        ((np.roll(np.eye(64), 3, 1) + np.roll(np.eye(64), 20, 1)) / 2, 9),
        (GpsModel(100, -33.66, 6.58, 2.4e-6).channel_matrix(), 7),
    ], ids=["two_point_masses", "floor_far_below_start"])
    def test_belief_does_not_crawl_back_from_the_top(self, monkeypatch, observed, most_calls):
        # measured: 9 and 7 calls; 33 and 20 when b started at, or stepped to,
        # the top 1 - 1e-9 of its box, from where each step toward the optimum
        # only doubled 1 - b
        lags = lag_distribution(observed)
        calls = count_calls(monkeypatch, "gps_objective")
        delta, d, b = gps_fit(observed)
        assert len(calls) <= most_calls
        brent, _ = golden_max(lambda x: gps_objective(lags, delta, d, x), 0.0, 1.0 - 1e-9)
        assert b == pytest.approx(brent, abs=1e-6)

    @staticmethod
    def sampled_channel():
        observed = GpsModel(grid_size=200, delta_e=3, d=6.0, c=0.001).channel_matrix()
        counts = np.random.default_rng(7).multinomial(20000, observed)
        return counts / counts.sum(axis=1, keepdims=True)

    def test_overshooting_steps_are_halved(self, monkeypatch):
        # a Hessian shrunk a hundredfold makes every Newton step a hundred
        # times too long: the fit must halve until the objective does not fall
        observed = self.sampled_channel()
        lags = lag_distribution(observed)
        newton_terms, objective = estimation._gps_newton_terms, estimation.gps_objective
        events = []

        def long_steps(lags, total, *point):
            events.append(("step from", objective(lags, *point)))
            grad, hess = newton_terms(lags, total, *point)
            return grad, [[h / 100.0 for h in row] for row in hess]

        def recorded(lags, *point):
            value = objective(lags, *point)
            events.append(("trial", value))
            return value

        monkeypatch.setattr(estimation, "_gps_newton_terms", long_steps)
        monkeypatch.setattr(estimation, "gps_objective", recorded)
        result = gps_fit(observed)
        accepted = [value for kind, value in events if kind == "step from"]
        assert len(accepted) > 1 and accepted == sorted(accepted)
        assert objective(lags, *result) >= accepted[-1]
        current, halvings = None, 0
        for kind, value in events:
            if kind == "step from":
                current = value
            elif current is not None and value < current:
                halvings += 1
        assert halvings > 0

    def test_fit_stops_after_fit_steps(self, monkeypatch):
        observed = self.sampled_channel()
        lags = lag_distribution(observed)
        steps = count_calls(monkeypatch, "_gps_newton_terms")
        gps_fit(observed)
        assert len(steps) > 1
        steps.clear()
        trials = count_calls(monkeypatch, "gps_objective")
        monkeypatch.setattr(estimation, "FIT_STEPS", 1)
        result = gps_fit(observed)
        assert len(steps) == 1
        start = trials[0][1:]
        assert result != start and result == trials[-1][1:]
        assert gps_objective(lags, *result) > gps_objective(lags, *start)

    @settings(max_examples=200, deadline=None)
    @given(problem=gps_points())
    def test_moment_sums_match_stacked_slopes(self, problem):
        lags, delta, d, b = problem
        check_moment_sums(lags, float(lags.sum()), delta, d, b)

    def test_moment_sums_on_model_channels(self):
        # the same check at m = 200 and 256, at and near each model's own point
        for spec in ((200, 3, 6.0, 0.001), (256, -7.3, 40.0, 0.0), (200, 0.5, 2.0, 0.0)):
            model = GpsModel(*spec)
            delta_e, d = model.delta_e, model.d
            lags = lag_distribution(model.channel_matrix())
            check_moment_sums(lags, 1.0, delta_e, d, min(model.reference_belief, 1 - 1e-9))
            check_moment_sums(lags, 1.0, delta_e + 0.3, 1.2 * d, 0.5)

    @settings(max_examples=100, deadline=None)
    @given(problem=gps_points())
    def test_derivatives_match_central_differences(self, problem):
        # in coordinates scaled by (1, d, 1 - b), so that a step near b = 1,
        # where the truth values near 0 curve F sharply, stays small against 1 - b
        lags, delta, d, b = problem
        grad, hess = estimation._gps_newton_terms(lags, float(lags.sum()), delta, d, b)
        scale = np.array([1.0, d, 1.0 - b])
        unit = np.eye(3) * scale

        def f(p):
            return gps_objective(lags, *(np.array([delta, d, b]) + p)) * math.log(2.0)

        h, k = 1e-6, 1e-4
        for i in range(3):
            slope = (f(h * unit[i]) - f(-h * unit[i])) / (2.0 * h)
            assert grad[i] * scale[i] == pytest.approx(slope, rel=1e-6, abs=1e-8)
            for j in range(3):
                curve = (f(k * (unit[i] + unit[j])) - f(k * (unit[i] - unit[j]))
                         - f(k * (unit[j] - unit[i])) + f(-k * (unit[i] + unit[j])))
                assert hess[i][j] * scale[i] * scale[j] == pytest.approx(
                    curve / (4.0 * k * k), rel=1e-5, abs=1e-6)


def exact_offset_row(m, delta, d, c):
    """Row 0 of a GpsModel channel from exact toroidal offsets.

    The offset of each lag j from the shift and x^2/2d^2 are Fractions; only
    that exponent is rounded, once, before ``math.exp``.  The peak
    coefficient takes the exact offsets from 0, and both sums are
    ``math.fsum``.
    """
    def gaussian(shift):
        half, spread = Fraction(m, 2), 2 * Fraction(d) ** 2
        offsets = [(j - shift + half) % m - half for j in range(m)]
        return [math.exp(-float(x * x / spread)) for x in offsets]

    peak = (1.0 - m * c) / math.fsum(gaussian(Fraction(0)))
    row = [peak * g + c for g in gaussian(Fraction(delta))]
    total = math.fsum(row)
    return np.array([v / total for v in row])


def channel_rounding_bound(m, delta, d):
    """Largest error of a channel entry from rounding, as a share of the row maximum.

    With u = 2^-53, a build that computes the offset of a lag from the shift
    and wraps it on the ring rounds at most five values, each below
    2.5m + |delta| (``(r - delta) - t`` of the dense build reaches 2m +
    |delta| before the wrap adds m/2), so the offset is off by at most
    eps = 16u(m + |delta|).  The Gaussian's slope is at most e^-1/2 / d, so
    an entry moves by at most 0.7 eps/d of the row maximum (the largest
    Gaussian value is at least e^-1/8); the slopes at the m lags sum to at
    most 2 + 1.22/d, so the row sum moves by at most 3 eps of itself, and
    every entry by at most 3 eps of the row maximum.  The exponentials,
    products and quotient add a few u, the sum of m entries at most
    (m - 1)u, and the reference a few u more: (m + 10)u in all.
    """
    u = 2.0**-53
    eps = 16.0 * u * (m + abs(delta))
    return eps * (1.0 / d + 3.0) + (m + 10) * u


def dense_channel(m, delta_e, d, c):
    """The channel from an m x m offset matrix: ``(r - delta_e) - t`` for every (t, r)."""
    k = np.arange(m, dtype=float)
    offsets = np.where(k > m / 2, k - m, k)
    profile_sum = float(np.exp(-(offsets**2) / (2.0 * d**2)).sum())
    peak = (1.0 - m * c) / profile_sum
    true_idx = np.arange(m).reshape(-1, 1)
    rep_idx = np.arange(m).reshape(1, -1)
    raw = rep_idx - delta_e - true_idx
    dist = (raw + m / 2) % m - m / 2
    rows = peak * np.exp(-(dist**2) / (2.0 * d**2)) + c
    return rows / rows.sum(axis=1, keepdims=True)


def check_channel_matrix(m, delta_e, d, c):
    """Rows are exact rotations of row 0, which is within rounding of the exact one.

    The dense build is held to the same bound, so that the bound is not
    fitted to one way of rounding.
    """
    channel = GpsModel(grid_size=m, delta_e=delta_e, d=d, c=c).channel_matrix()
    reference = exact_offset_row(m, delta_e, d, c)
    tol = channel_rounding_bound(m, delta_e, d) * reference.max()
    for t, row in enumerate(channel):
        assert np.array_equal(row, np.roll(channel[0], t))
    assert np.abs(channel[0] - reference).max() <= tol
    dense = dense_channel(m, delta_e, d, c)
    for t, row in enumerate(dense):
        assert np.abs(row - np.roll(reference, t)).max() <= tol


class TestGpsModelChannel:
    def test_numpy_integer_grid_size(self):
        model = GpsModel(grid_size=np.int64(64), delta_e=3, d=5.0, c=0.001)
        assert model == GpsModel(grid_size=64, delta_e=3, d=5.0, c=0.001)
        assert model.channel_matrix().shape == (64, 64)

    @pytest.mark.parametrize("m, delta_e, d, c", [
        (200, 3, 6.0, 0.001), (201, -2.5, 5.0, 0.0), (64, 7.25, 4.0, 0.002), (9, 0.5, 2.0, 0.01),
    ])
    def test_channel_matrix_matches_dense_formula(self, m, delta_e, d, c):
        check_channel_matrix(m, delta_e, d, c)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(8, 400), delta_e=st.floats(-20.0, 20.0), d=st.floats(2.0, 30.0),
           floor_share=st.floats(0.0, 0.9))
    def test_channel_matrix_within_rounding_of_exact_offsets(self, m, delta_e, d, floor_share):
        check_channel_matrix(m, delta_e, d, floor_share / m)

    def test_channel_matrix_is_an_owned_writeable_copy(self):
        # a window view over the doubled row is read-only, and every row aliases it
        channel = GpsModel(grid_size=16, delta_e=1.5, d=3.0, c=0.01).channel_matrix()
        assert channel.flags.c_contiguous and channel.flags.writeable and channel.flags.owndata
        before = channel.copy()
        channel[3, 5] = -1.0
        before[3, 5] = -1.0
        assert np.array_equal(channel, before)


def dense_gps_objective(observed, delta, d, b):
    """O(m^2) reference: the truth matrix over every (true, reported) pair."""
    m = observed.shape[0]
    true_idx = np.arange(m).reshape(-1, 1)
    rep_idx = np.arange(m).reshape(1, -1)
    raw = rep_idx - delta - true_idx
    dist = (raw + m / 2) % m - m / 2
    truth = b * np.exp(-(dist**2) / (2.0 * d**2)) + (1.0 - b)
    logical = truth.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log2(truth) - np.log2(logical)[None, :]
        joint = observed / m
        terms = joint * log_ratio
    if np.any(np.isneginf(log_ratio) & (joint > 0)):
        return float("-inf")
    return float(np.sum(terms[joint > 0]))


def random_channel(m, seed, zero_share):
    """Row-normalized non-negative m x m channel with about zero_share zeros."""
    rng = np.random.default_rng(seed)
    weights = rng.random((m, m))
    weights[rng.random((m, m)) < zero_share] = 0.0
    empty = weights.sum(axis=1) == 0
    weights[empty, rng.integers(0, m, size=int(empty.sum()))] = 1.0
    return weights / weights.sum(axis=1, keepdims=True)


@st.composite
def sparse_lag_channels(draw):
    """A circulant channel (m in 8..64) whose lags have mass on a few lags only."""
    m = draw(st.integers(8, 64))
    support = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m // 2, unique=True))
    row = np.zeros(m)
    row[support] = draw(st.lists(st.floats(0.01, 1.0), min_size=len(support),
                                 max_size=len(support)))
    row /= row.sum()
    return np.array([np.roll(row, t) for t in range(m)])


class TestLagReductionEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(8, 64), seed=st.integers(0, 2**32 - 1),
           zero_share=st.floats(0.0, 0.95), delta=st.floats(-70.0, 70.0),
           d=st.floats(0.1, 40.0), b=st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    @example(m=16, seed=0, zero_share=0.0, delta=0.0, d=0.2, b=1.0)  # -inf branch
    def test_matches_dense_objective(self, m, seed, zero_share, delta, d, b):
        observed = random_channel(m, seed, zero_share)
        reference = dense_gps_objective(observed, delta, d, b)
        for channel in (observed, lag_distribution(observed)):
            value = gps_objective(channel, delta, d, b)
            if reference == float("-inf"):
                assert value == float("-inf")
            else:
                assert value == pytest.approx(reference, rel=1e-10, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(observed=sparse_lag_channels(), delta=st.floats(-70.0, 70.0), d=st.floats(0.1, 40.0),
           b=st.floats(0.0, 1.0, exclude_max=True))
    def test_unmasked_sum_matches_dense_objective(self, observed, delta, d, b):
        # below b = 1 the objective sums over every lag, the empty ones too
        lags = lag_distribution(observed)
        assert (lags == 0.0).any()
        reference = dense_gps_objective(observed, delta, d, b)
        for channel in (observed, lags):
            assert gps_objective(channel, delta, d, b) == pytest.approx(reference, rel=1e-10,
                                                                        abs=1e-10)

    def test_zero_truth_value_at_b_one(self):
        # at b = 1 and d = 2 the truth value half a ring from delta underflows to 0:
        # -inf where that lag has mass, and nothing added where it has none
        m = 200
        falsified = (np.eye(m) + np.roll(np.eye(m), m // 2, axis=1)) / 2
        for channel in (falsified, lag_distribution(falsified)):
            assert gps_objective(channel, 0.0, 2.0, 1.0) == float("-inf")
        assert dense_gps_objective(falsified, 0.0, 2.0, 1.0) == float("-inf")
        value = gps_objective(np.eye(m), 0.0, 2.0, 1.0)
        assert value == pytest.approx(dense_gps_objective(np.eye(m), 0.0, 2.0, 1.0), rel=1e-12)
        assert value > 0.0

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(8, 64), seed=st.integers(0, 2**32 - 1), zero_share=st.floats(0.0, 0.95))
    def test_peak_lag_is_best_integer_shift(self, m, seed, zero_share):
        observed = random_channel(m, seed, zero_share)
        idx = np.arange(m)
        shift_scores = [observed[idx, (idx + s) % m].sum() for s in range(m)]
        assert np.argmax(lag_distribution(observed)) == np.argmax(shift_scores)


_GOOD_CHANNEL = GpsModel(grid_size=32, delta_e=1, d=3.0, c=0.001).channel_matrix()


def _channel(kind):
    observed = _GOOD_CHANNEL.copy()
    if kind == "negative":      # rows still sum to 1
        observed[0, 20] -= 0.01
        observed[0, 21] += 0.01
    elif kind == "rows_sum_to_3":
        observed *= 3.0
    elif kind == "nan":
        observed[2, 3] = float("nan")
    elif kind == "inf":
        observed[2, 3] = float("inf")
    return observed


def _lags(kind):
    lags = lag_distribution(_GOOD_CHANNEL)
    if kind == "negative":
        lags[20] -= 0.01
        lags[21] += 0.01
    elif kind == "sums_to_3":
        lags *= 3.0
    elif kind == "nan":
        lags[3] = float("nan")
    return lags


NAN, INF = float("nan"), float("inf")


class TestGpsValidation:
    @pytest.mark.parametrize("delta, d, b, error", [
        (0.0, 0.0, 0.9, OutOfRange),
        (0.0, -1.0, 0.9, OutOfRange),
        (0.0, NAN, 0.9, NonFinite),
        (0.0, INF, 0.9, NonFinite),
        (0.0, 3.0, 1.5, BeliefOutOfRange),
        (0.0, 3.0, -0.1, BeliefOutOfRange),
        (0.0, 3.0, NAN, BeliefOutOfRange),
        (NAN, 3.0, 0.9, NonFinite),
        (INF, 3.0, 0.9, NonFinite),
        (0.0, 1e200, 0.9, OutOfRange),      # d**2 overflows
        (0.0, np.float64(1.3407807929942596e154), 0.9, OutOfRange),  # 2*d**2 overflows
        ("a", 3.0, 0.5, OutOfRange),
        (0.0, None, 0.5, OutOfRange),
        (0.0, 3.0, "x", OutOfRange),
        pytest.param(0.0, 10**400, 0.5, OutOfRange, id="0.0-10**400-0.5-OutOfRange"),
        (True, 3.0, 0.5, OutOfRange),
    ])
    def test_objective_rejects_bad_parameters(self, delta, d, b, error):
        for observed in (_GOOD_CHANNEL, lag_distribution(_GOOD_CHANNEL)):
            with pytest.raises(error) as info:
                gps_objective(observed, delta, d, b)
            assert isinstance(info.value, ValidationError) and info.value.exit_code == 1

    @pytest.mark.parametrize("observed, error", [
        (_channel("negative"), NegativeMass),
        (_channel("rows_sum_to_3"), NotNormalized),
        (_channel("nan"), NonFinite),
        (_channel("inf"), NonFinite),
        (_lags("negative"), NegativeMass),
        (_lags("sums_to_3"), NotNormalized),
        (_lags("nan"), NonFinite),
    ], ids=["negative", "rows_sum_to_3", "nan", "inf",
            "lags_negative", "lags_sum_to_3", "lags_nan"])
    def test_objective_rejects_bad_channel(self, observed, error):
        with pytest.raises(error) as info:
            gps_objective(observed, 0.0, 3.0, 0.9)
        assert isinstance(info.value, ValidationError) and info.value.exit_code == 1

    @pytest.mark.parametrize("kind, error", [
        ("negative", NegativeMass),
        ("rows_sum_to_3", NotNormalized),
        ("nan", NonFinite),
        ("inf", NonFinite),
    ])
    def test_fit_rejects_bad_channel(self, kind, error):
        with pytest.raises(error) as info:
            gps_fit(_channel(kind))
        assert isinstance(info.value, ValidationError) and info.value.exit_code == 1

    def test_non_square_channel(self):
        with pytest.raises(DegenerateGeometry):
            lag_distribution(np.full((4, 5), 0.2))

    @pytest.mark.parametrize("call", [lag_distribution,
                                      lambda observed: gps_objective(observed, 0.0, 3.0, 0.9)],
                             ids=["lag_distribution", "gps_objective"])
    def test_empty_channel_is_degenerate(self, call):
        with pytest.raises(DegenerateGeometry) as info:
            call(np.zeros((0, 0)))
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("observed", [
        np.full((8, 9), 1 / 9),
        np.full((7, 7), 1 / 7),
        np.zeros((0, 0)),
    ], ids=["8x9", "7x7", "empty"])
    def test_fit_needs_square_grid_of_eight(self, observed):
        with pytest.raises(DegenerateGeometry) as info:
            gps_fit(observed)
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("call", [lag_distribution, gps_fit,
                                      lambda observed: gps_objective(observed, 0.0, 2.0, 0.5)],
                             ids=["lag_distribution", "gps_fit", "gps_objective"])
    @pytest.mark.parametrize("observed", [np.float64(1.0), np.full((8, 8, 8), 1 / 8)],
                             ids=["0-d", "3-d"])
    def test_wrong_number_of_dimensions_is_out_of_range(self, call, observed):
        # a validation error (exit 1), not a degenerate grid (exit 2)
        with pytest.raises(OutOfRange) as info:
            call(observed)
        assert info.value.exit_code == 1

    @pytest.mark.parametrize("call", [lag_distribution, gps_fit],
                             ids=["lag_distribution", "gps_fit"])
    def test_vector_where_a_channel_belongs_is_out_of_range(self, call):
        # gps_objective takes a vector: the lag distribution
        with pytest.raises(OutOfRange) as info:
            call(np.full(8, 1 / 8))
        assert info.value.exit_code == 1

    @pytest.mark.parametrize("entry", ["a", 1 + 1j], ids=["text", "complex"])
    @pytest.mark.parametrize("call, position", [
        (lag_distribution, (2, 3)),
        (lambda observed: gps_objective(observed, 0.0, 3.0, 0.9), (2, 3)),
        (lambda observed: gps_objective(observed, 0.0, 3.0, 0.9), 3),
        (gps_fit, (2, 3)),
    ], ids=["lag_distribution", "gps_objective", "gps_objective-lags", "gps_fit"])
    def test_non_number_entries_are_out_of_range(self, call, position, entry):
        values = (_GOOD_CHANNEL if isinstance(position, tuple) else _GOOD_LAGS).astype(object)
        values[position] = entry
        with pytest.raises(OutOfRange) as info:
            call(values)
        assert info.value.exit_code == 1

    @pytest.mark.parametrize("dtype, entry", [
        (complex, 0.1j), (complex, 0.0), (str, "0.5"), (object, "0.5"), (object, None),
    ], ids=["complex-entry", "complex-dtype", "numeric-text", "object-numeric-text", "object-none"])
    @pytest.mark.parametrize("call", [lag_distribution, gps_fit,
                                      lambda observed: gps_objective(observed, 0.0, 3.0, 0.9)],
                             ids=["lag_distribution", "gps_fit", "gps_objective"])
    def test_non_real_arrays_are_out_of_range(self, call, dtype, entry):
        # a float cast would drop the imaginary part or parse the text
        values = _GOOD_CHANNEL.astype(dtype)
        values[2, 3] = entry
        with pytest.raises(OutOfRange) as info:
            call(values)
        assert info.value.exit_code == 1

    def test_object_array_of_reals_is_accepted(self):
        values = _GOOD_CHANNEL.astype(object)
        values[2, 3] = Fraction(values[2, 3])
        assert np.array_equal(lag_distribution(values), _GOOD_LAGS)


def index_gather(observed):
    """Lag distribution by two m x m index arrays: row k holds observed[t, (t+k) mod m]."""
    m = observed.shape[0]
    idx = np.arange(m)
    return observed[idx[None, :], (idx[None, :] + idx[:, None]) % m].sum(axis=1) / m


def masked_objective(lags, delta, d, b):
    """gps_objective on a lag vector, written apart from it.

    The Gaussian is built inline, not by ``gaussian_profile``, and a truth
    value of 0 is found after the log, not by a minimum before it.  The sum
    runs over every lag, a lag without mass adding a term of 0, so that it
    adds in the objective's order: a sum over the lags with mass alone
    differs from it in the last bit on some vectors with empty lags.
    """
    m = lags.shape[0]
    dist = (np.arange(m) - delta + m / 2) % m - m / 2
    truth = b * np.exp(-(dist**2) / (2.0 * d**2)) + (1.0 - b)
    seen = lags > 0
    with np.errstate(divide="ignore"):
        log_truth = np.log2(truth)
    if np.isneginf(log_truth[seen]).any():
        return float("-inf")
    return float(lags @ np.where(seen, log_truth, 0.0) - math.log2(truth.mean()) * lags.sum())


def check_gather(lags, observed):
    """``lags`` is within the rounding of two sums of m non-negative terms of ``index_gather``.

    Each side adds the m cells of one lag (m - 1 roundings, each of at most
    u = 2^-53 relative to a partial sum no larger than the lag's exact
    mass) and divides by m (one more): each is within m*u of the exact mass,
    relative to it, and so the two are within 2m*u = m*eps of each other to
    first order; (m + 1)*eps of the reference covers the second-order terms.
    """
    m = observed.shape[0]
    reference = index_gather(observed)
    assert lags.shape == (m,)
    assert np.all(np.abs(lags - reference) <= (m + 1) * np.finfo(float).eps * reference)


class TestGpsFastPaths:
    """The strided gather within summation rounding; the one-pass checks change no bit."""

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(8, 64), seed=st.integers(0, 2**32 - 1), zero_share=st.floats(0.0, 0.95))
    def test_gather_matches_index_gather(self, m, seed, zero_share):
        observed = random_channel(m, seed, zero_share)
        check_gather(lag_distribution(observed), observed)

    @pytest.mark.parametrize("m", [200, 256])
    @settings(max_examples=10, deadline=None)
    @given(delta_e=st.floats(-10.0, 10.0), d=st.floats(2.0, 30.0),
           floor_share=st.floats(0.0, 0.9))
    def test_gather_matches_index_gather_on_model_channels(self, m, delta_e, d, floor_share):
        observed = GpsModel(grid_size=m, delta_e=delta_e, d=d, c=floor_share / m).channel_matrix()
        check_gather(lag_distribution(observed), observed)

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(8, 64), seed=st.integers(0, 2**32 - 1),
           zero_share=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
           delta=st.floats(-70.0, 70.0), d=st.floats(0.1, 40.0),
           b=st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    @example(m=16, seed=0, zero_share=0.0, delta=0.0, d=0.2, b=1.0)  # -inf branch
    def test_objective_matches_masked_objective(self, m, seed, zero_share, delta, d, b):
        lags = lag_distribution(random_channel(m, seed, zero_share))
        spaced = np.zeros(2 * m)
        spaced[::2] = lags
        for vector in (lags, spaced[::2]):    # contiguous and strided
            assert gps_objective(vector, delta, d, b) == masked_objective(lags, delta, d, b)


def in_layout(channel, layout):
    """``channel`` in a memory layout, every entry the same.

    "C" and "F" order; the transpose of its column-normalized table
    (reported x true, C-ordered); and a view of every other column of a
    wider array.
    """
    if layout == "C":
        return np.ascontiguousarray(channel)
    if layout == "F":
        return np.asfortranarray(channel)
    if layout == "transposed-table":
        return np.ascontiguousarray(channel.T).T
    wide = np.zeros((channel.shape[0], 2 * channel.shape[1]))
    wide[:, 1::2] = channel
    return wide[:, 1::2]


LAYOUTS = ["C", "F", "transposed-table", "column-strided"]


def lag_vector_layouts(lags):
    """One lag vector contiguous, with a stride of two and with a negative stride."""
    spaced = np.zeros(2 * len(lags))
    spaced[::2] = lags
    return {"contiguous": lags, "strided": spaced[::2], "reversed": lags[::-1].copy()[::-1]}


@st.composite
def layout_channels(draw):
    """A random channel (m 8..64) or an exact model channel (m 8..256)."""
    if draw(st.booleans()):
        return random_channel(draw(st.integers(8, 64)), draw(st.integers(0, 2**32 - 1)),
                              draw(st.floats(0.0, 0.95)))
    m = draw(st.integers(8, 256))
    model = GpsModel(grid_size=m, delta_e=draw(st.floats(-m / 2, m / 2)),
                     d=draw(st.floats(2.0, m / 4)), c=draw(st.floats(0.0, 0.9)) / m)
    return model.channel_matrix()


def objective_rounding(lags, delta, d, b):
    """How far ``gps_objective`` may move when each lag moves by (m + 1)*eps of itself.

    The objective is sum_k h_k*L_k - log2(mean g)*sum_k h_k with L_k =
    log2 g_k, and the truth values g do not depend on h.  Let A = sum_k
    h_k*|L_k| + |log2 mean g|*sum_k h_k, which bounds the objective.  Lags
    within (m + 1)*eps of the reference move it by at most (m + 1)*eps*A;
    the dot product and the sum of m terms, the product and the difference
    round it by at most (m + 2)*u*A on each side, u = eps/2.  In all
    (2m + 3)*eps*A, here 2(m + 2)*eps*A.
    """
    m = lags.shape[0]
    dist = (np.arange(m) - delta + m / 2) % m - m / 2
    truth = b * np.exp(-(dist**2) / (2.0 * d**2)) + (1.0 - b)
    seen = lags > 0
    scale = lags[seen] @ np.abs(np.log2(truth[seen])) + abs(math.log2(truth.mean())) * lags.sum()
    return 2 * (m + 2) * np.finfo(float).eps * scale


@pytest.mark.parametrize("layout", LAYOUTS)
class TestGpsLayouts:
    """Every memory layout of a channel gives the same lags, objective and fit.

    The reference is the C-ordered channel through the independent
    ``index_gather``.  The "F" and "transposed-table" layouts gathered the
    wrong cells before the gather read its strides from the array.
    """

    @settings(max_examples=40, deadline=None)
    @given(channel=layout_channels())
    def test_gather(self, layout, channel):
        check_gather(lag_distribution(in_layout(channel, layout)), channel)

    @settings(max_examples=40, deadline=None)
    @given(channel=layout_channels(), delta=st.floats(-70.0, 70.0), d=st.floats(0.1, 40.0),
           b=st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    def test_objective(self, layout, channel, delta, d, b):
        observed = in_layout(channel, layout)
        reference_lags = index_gather(channel)
        reference = gps_objective(reference_lags, delta, d, b)
        values = [gps_objective(observed, delta, d, b)]
        values += [gps_objective(lags, delta, d, b)
                   for lags in lag_vector_layouts(lag_distribution(observed)).values()]
        if reference == float("-inf"):
            assert values == [reference] * len(values)
        else:
            tol = objective_rounding(reference_lags, delta, d, b)
            assert max(abs(value - reference) for value in values) <= tol

    @pytest.mark.parametrize("spec", EXACT_MODELS, ids=[str(s) for s in EXACT_MODELS])
    def test_fit(self, layout, spec):
        # test_12's bounds: the shift within 1 cell, the spread within 5%, the belief within 0.02
        model = GpsModel(*spec)
        m = model.grid_size
        delta, d, b = gps_fit(in_layout(model.channel_matrix(), layout))
        assert abs((delta - model.delta_e + m / 2) % m - m / 2) <= 1.0
        assert abs(d - model.d) <= 0.05 * model.d
        assert abs(b - model.reference_belief) <= 0.02


def _with_entry(values, position, value):
    values = values.copy()
    values[position] = value
    return values


_GOOD_LAGS = lag_distribution(_GOOD_CHANNEL)

# name: (lag vector, channel matrix, error of both); the first failing check of
# NonFinite, NegativeMass, NotNormalized names the error
BAD_MASS_CASES = {
    "inf": (_with_entry(_GOOD_LAGS, 3, INF), _with_entry(_GOOD_CHANNEL, (2, 3), INF), NonFinite),
    "-inf": (_with_entry(_GOOD_LAGS, 3, -INF), _with_entry(_GOOD_CHANNEL, (2, 3), -INF),
             NonFinite),
    "nan": (_with_entry(_GOOD_LAGS, 3, NAN), _with_entry(_GOOD_CHANNEL, (2, 3), NAN), NonFinite),
    "negative": (_with_entry(_GOOD_LAGS, 3, -0.01), _with_entry(_GOOD_CHANNEL, (2, 3), -0.01),
                 NegativeMass),
    "nan-and-negative": (_with_entry(_with_entry(_GOOD_LAGS, 3, -0.01), 5, NAN),
                         _with_entry(_with_entry(_GOOD_CHANNEL, (2, 3), -0.01), (4, 5), NAN),
                         NonFinite),
    "inf-and-negative": (_with_entry(_with_entry(_GOOD_LAGS, 3, -0.01), 5, INF),
                         _with_entry(_with_entry(_GOOD_CHANNEL, (2, 3), -0.01), (4, 5), INF),
                         NonFinite),
    "negative-and-unnormalized": (_with_entry(_GOOD_LAGS, 3, -0.01) * 3.0,
                                  _with_entry(_GOOD_CHANNEL, (2, 3), -0.01) * 3.0, NegativeMass),
    "finite-sum-overflows": (np.full(32, 1e308), np.full((32, 32), 1e308), NotNormalized),
}


@pytest.mark.parametrize("lags, observed, error", BAD_MASS_CASES.values(),
                         ids=BAD_MASS_CASES.keys())
def test_one_pass_checks_keep_error_class(lags, observed, error):
    calls = [lambda: gps_objective(lags, 0.0, 3.0, 0.9),
             lambda: gps_objective(observed, 0.0, 3.0, 0.9),
             lambda: lag_distribution(observed)]
    for call in calls:
        with pytest.raises(error) as info, np.errstate(over="ignore"):
            call()
        assert info.value.exit_code == 1


NARROW_CASES = {name: cases for name, cases in BAD_MASS_CASES.items()
                if name != "finite-sum-overflows"}    # 1e308 is inf in float32


@pytest.mark.parametrize("lags, observed, error", NARROW_CASES.values(), ids=NARROW_CASES.keys())
def test_float32_checks_keep_error_class(lags, observed, error):
    lags, observed = lags.astype(np.float32), observed.astype(np.float32)
    for call in (lambda: gps_objective(lags, 0.0, 3.0, 0.9),
                 lambda: gps_objective(observed, 0.0, 3.0, 0.9),
                 lambda: lag_distribution(observed), lambda: gps_fit(observed)):
        with pytest.raises(error):
            call()


class TestNarrowFloatChannels:
    """A float32 channel is held to the rounding of float32, a float64 one to 1e-9."""

    MODELS = [(32, 1, 3.0, 0.001), (200, 3, 6.0, 0.001), (64, 2, 4.0, 0.002)]

    @pytest.mark.parametrize("model", MODELS, ids=str)
    def test_fit_matches_the_float64_fit(self, model):
        channel = GpsModel(*model).channel_matrix()
        narrow = channel.astype(np.float32)
        # the cast moves the row sums beyond the float64 tolerance
        assert abs(narrow.sum(axis=1, dtype=float) - 1.0).max() > NORMALIZATION_TOLERANCE
        fit = gps_fit(channel)
        assert max(abs(a - b) for a, b in zip(gps_fit(narrow), fit)) <= 1e-6
        exact = gps_objective(channel, *fit)
        assert gps_objective(narrow, *fit) == pytest.approx(exact, abs=1e-6)
        narrow_lags = lag_distribution(channel).astype(np.float32)
        assert gps_objective(narrow_lags, *fit) == pytest.approx(exact, abs=1e-6)
        assert lag_distribution(narrow).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [200, 1024])
    def test_rows_normalized_in_float32_are_accepted(self, m):
        # a row sum in float32 rounds by up to ~2 eps, beside eps/2 for a cast
        narrow = GpsModel(m, 3, 6.0, 0.1 / m).channel_matrix().astype(np.float32)
        narrow /= narrow.sum(axis=1, keepdims=True, dtype=np.float32)
        assert lag_distribution(narrow).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dtype, off", [(np.float64, 2e-9), (np.float32, 1e-5),
                                            (np.float16, 0.05)])
    def test_sums_beyond_the_rounding_of_their_type_are_refused(self, dtype, off):
        # float32 allows 4 eps = 4.8e-7 off 1, float16 4 eps = 0.0039
        channel = (_GOOD_CHANNEL * (1.0 + off)).astype(dtype)
        lags = (_GOOD_LAGS * (1.0 + off)).astype(dtype)
        for call in (lambda: gps_fit(channel), lambda: gps_objective(lags, 0.0, 3.0, 0.9)):
            with pytest.raises(NotNormalized):
                call()

    def test_the_bound_does_not_grow_with_the_row(self):
        # 1024 float16 masses of 2**-11: every row, and the lags, sum to 0.5
        channel = np.full((1024, 1024), 0.5 / 1024, dtype=np.float16)
        lags = np.full(1024, 0.5 / 1024, dtype=np.float16)
        for call in (lambda: gps_fit(channel), lambda: gps_objective(lags, 0.0, 3.0, 0.9)):
            with pytest.raises(NotNormalized):
                call()


def pure_gaussian(m, delta, d):
    """exp(-x^2/2d^2) at the toroidal offset x of each of m lags from delta, in plain Python."""
    return [math.exp(-(((k - delta + m / 2) % m - m / 2) ** 2) / (2.0 * d * d)) for k in range(m)]


@st.composite
def lag_belief_problems(draw):
    m = draw(st.integers(8, 64))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                            min_size=m, max_size=m).filter(any))
    return (m, normalized(weights), draw(st.floats(-float(m), float(m))),
            draw(st.floats(2.0, m / 4)), draw(st.one_of(st.sampled_from([0.0, 1.0]),
                                                        st.floats(0.0, 1.0))))


class TestPositionModelIsBeliefProblem:
    """The position model is a belief problem on the lag alphabet.

    Each lag is a letter, the prior over lags is uniform, the sampling
    distribution is the lag vector h, and the hypothesis is the Gaussian of
    the lags adjusted by the belief b.  Near b = 0 both sides are a
    difference of nearly equal sums, so bits below 1e-12 are compared to an
    absolute 1e-12.
    """

    @settings(max_examples=200, deadline=None)
    @given(problem=lag_belief_problems())
    def test_objective_is_average_semantic_info(self, problem):
        m, h, delta, d, b = problem
        lags = Alphabet([f"k{k}" for k in range(m)])
        gaussian = Tabular(lags, pure_gaussian(m, delta, d))
        expected = average_semantic_info(belief_adjust(gaussian, b),
                                         Distribution(lags, [1.0 / m] * m), Distribution(lags, h))
        got = gps_objective(np.array(h), delta, d, b)
        if expected == float("-inf"):
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
