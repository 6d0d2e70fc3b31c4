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
from semcal.estimation import TIE_BITS, _line_max
from semcal.errors import (
    BeliefOutOfRange,
    DegenerateInput,
    DuplicateLabel,
    EmptyConditionSubset,
    GridTooCoarse,
    IndexMismatch,
    NegativeMass,
    NonFinite,
    NotNormalized,
    OutOfRange,
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
        # f still rises into b = 1, so the end test settles it with one k evaluation
        evaluations = count_search_evaluations(monkeypatch)
        prior = Distribution(AB, (0.6, 0.4))
        base = Tabular(AB, (1.0, 0.3))
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

    def test_degenerate_base(self):
        prior = Distribution(AB, (0.5, 0.5))
        with pytest.raises(DegenerateInput):
            optimize_belief(Tabular(AB, (0.0, 0.0)), prior, prior)

    @pytest.mark.parametrize("n", [64, 256])
    def test_search_evaluations(self, monkeypatch, n):
        evaluations = count_search_evaluations(monkeypatch)
        rng = random.Random(31)
        ab = Alphabet([f"x{i}" for i in range(n)])
        for _ in range(5):
            prior = Distribution(ab, normalized([rng.uniform(0.01, 1.0) for _ in range(n)]))
            sampling = Distribution(ab, normalized([rng.uniform(0.01, 1.0) for _ in range(n)]))
            for base in (Crisp(ab, rng.sample(ab.labels, n // 8)),
                         Tabular(ab, [rng.uniform(0.0, 1.0) for _ in range(n)])):
                evaluations.clear()
                optimize_belief(base, prior, sampling)
                assert 0 < len(evaluations) <= 20

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
        root = estimation._concave_root(estimation._belief_gap(*groups), 1.0)
        tf = Tabular(prior.alphabet, branch)

        def f(x):
            return average_semantic_info(belief_adjust(tf, x), prior, sampling)

        try:
            _, brent = _line_max(f, 0.0, 1.0)
            bits = f(root)
        except ZeroLogicalProbability:      # it underflows near the end of the branch
            assume(False)
        assert bits >= brent - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(8, 64), seed=st.integers(0, 2**32 - 1), zero_share=st.floats(0.0, 0.95),
           delta=st.floats(-10.0, 10.0), d=st.floats(0.5, 20.0), b=st.floats(1e-3, 0.999))
    def test_lag_gap_matches_grouped_gap(self, m, seed, zero_share, delta, d, b):
        # the position model's belief step is a belief problem on the lag alphabet
        lags = lag_distribution(random_channel(m, seed, zero_share))
        profile = estimation_types.gaussian_profile(m, delta, d)
        ab = Alphabet([f"k{i}" for i in range(m)])
        uniform = Distribution(ab, [1.0 / m] * m)
        groups = estimation._belief_groups(tuple(profile.tolist()), uniform,
                                           Distribution(ab, lags.tolist()))
        gap, slope = estimation._lag_belief_gap(lags, profile)(b)
        expected_gap, expected_slope = estimation._belief_gap(*groups)(b)
        assert gap == pytest.approx(expected_gap, rel=1e-9, abs=1e-12)
        assert slope == pytest.approx(expected_slope, rel=1e-8, abs=1e-10)


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
    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("name", sorted(LINE_CASES))
    def test_contract(self, name, tol):
        f, lo, hi, argmax = LINE_CASES[name]
        g, points = traced(f)
        x, fx = _line_max(g, lo, hi, tol=tol)
        assert all(lo < u < hi for u in points)
        assert x in points and fx == f(x)
        # the evaluations certify a bracket around x at most tol wide
        left = max([lo] + [u for u in points if u < x])
        right = min([hi] + [u for u in points if u > x])
        assert right - left <= tol
        if argmax is not None:
            assert abs(x - argmax) <= tol

    def test_parabola_takes_few_evaluations(self):
        g, points = traced(LINE_CASES["interior_parabola"][0])
        _line_max(g, 0.0, 1.0, tol=1e-9)
        assert len(points) <= 12

    @settings(max_examples=200, deadline=None)
    @given(peak=st.floats(0.0, 1.0), power=st.floats(0.5, 4.0),
           lo=st.floats(-5.0, 0.0), width=st.floats(0.01, 10.0))
    def test_unimodal_peak_found(self, peak, power, lo, width):
        hi = lo + width
        c = lo + peak * width
        x, fx = _line_max(lambda u: -abs(u - c) ** power, lo, hi, tol=1e-9)
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


class TestGpsFit:
    def test_no_long_tail_full_confirmation(self):
        model = GpsModel(grid_size=120, delta_e=0, d=5.0, c=0.0)
        _, _, b_hat = gps_fit(model.channel_matrix())
        assert b_hat == pytest.approx(1.0, abs=0.02)

    def test_floor_equal_to_peak_halves_belief(self):
        # choose c so the peak coefficient equals the floor: b_ref = 0.5
        m, d = 120, 5.0
        offsets = np.where(np.arange(m) > m / 2, np.arange(m) - m, np.arange(m))
        gsum = float(np.exp(-(offsets.astype(float) ** 2) / (2 * d * d)).sum())
        c = 1.0 / (gsum + m)
        model = GpsModel(grid_size=m, delta_e=0, d=d, c=c)
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
        brent, best = _line_max(lambda x: gps_objective(lags, delta, d, x), 0.0, 1.0 - 1e-9)
        assert b == pytest.approx(brent, abs=1e-6)
        assert gps_objective(lags, delta, d, b) >= best - 1e-12

    def test_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            GpsModel(grid_size=100, delta_e=0, d=1.0, c=0.0)


class TestGpsModelChannel:
    def test_numpy_integer_grid_size(self):
        model = GpsModel(grid_size=np.int64(64), delta_e=3, d=5.0, c=0.001)
        assert model == GpsModel(grid_size=64, delta_e=3, d=5.0, c=0.001)
        assert model.channel_matrix().shape == (64, 64)

    @pytest.mark.parametrize("m, delta_e, d, c", [
        (200, 3, 6.0, 0.001), (201, -2.5, 5.0, 0.0), (64, 7.25, 4.0, 0.002), (9, 0.5, 2.0, 0.01),
    ])
    def test_channel_matrix_matches_dense_formula(self, m, delta_e, d, c):
        k = np.arange(m, dtype=float)
        offsets = np.where(k > m / 2, k - m, k)
        profile_sum = float(np.exp(-(offsets**2) / (2.0 * d**2)).sum())
        peak = (1.0 - m * c) / profile_sum
        true_idx = np.arange(m).reshape(-1, 1)
        rep_idx = np.arange(m).reshape(1, -1)
        raw = rep_idx - delta_e - true_idx
        dist = (raw + m / 2) % m - m / 2
        rows = peak * np.exp(-(dist**2) / (2.0 * d**2)) + c
        expected = rows / rows.sum(axis=1, keepdims=True)
        model = GpsModel(grid_size=m, delta_e=delta_e, d=d, c=c)
        assert np.array_equal(model.channel_matrix(), expected)


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
        with pytest.raises(DegenerateInput):
            lag_distribution(np.full((4, 5), 0.2))

    @pytest.mark.parametrize("call", [lag_distribution,
                                      lambda observed: gps_objective(observed, 0.0, 3.0, 0.9)],
                             ids=["lag_distribution", "gps_objective"])
    def test_empty_channel_is_degenerate(self, call):
        with pytest.raises(DegenerateInput) as info:
            call(np.zeros((0, 0)))
        assert info.value.exit_code == 2


def index_gather(observed):
    """Lag distribution by two m x m index arrays: row k holds observed[t, (t+k) mod m]."""
    m = observed.shape[0]
    idx = np.arange(m)
    return observed[idx[None, :], (idx[None, :] + idx[:, None]) % m].sum(axis=1) / m


def masked_objective(lags, delta, d, b):
    """gps_objective on a lag vector without the shortcuts."""
    m = lags.shape[0]
    dist = (np.arange(m) - delta + m / 2) % m - m / 2
    truth = b * np.exp(-(dist**2) / (2.0 * d**2)) + (1.0 - b)
    seen = lags > 0
    with np.errstate(divide="ignore"):
        log_truth = np.log2(truth[seen])
    if np.isneginf(log_truth).any():
        return float("-inf")
    return float(lags[seen] @ log_truth - math.log2(truth.mean()) * lags.sum())


class TestGpsFastPaths:
    """The strided gather and the one-pass checks change no bit."""

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(8, 64), seed=st.integers(0, 2**32 - 1), zero_share=st.floats(0.0, 0.95))
    def test_gather_matches_index_gather(self, m, seed, zero_share):
        observed = random_channel(m, seed, zero_share)
        assert np.array_equal(lag_distribution(observed), index_gather(observed))

    @pytest.mark.parametrize("m", [200, 256])
    @settings(max_examples=10, deadline=None)
    @given(delta_e=st.floats(-10.0, 10.0), d=st.floats(2.0, 30.0),
           floor_share=st.floats(0.0, 0.9))
    def test_gather_matches_index_gather_on_model_channels(self, m, delta_e, d, floor_share):
        observed = GpsModel(grid_size=m, delta_e=delta_e, d=d, c=floor_share / m).channel_matrix()
        assert np.array_equal(lag_distribution(observed), index_gather(observed))

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
