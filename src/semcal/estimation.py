"""Maximum semantic information estimation.

Derives optimal truth functions by max-normalizing selecting-rule rows of a
Shannon channel, finds the degree of belief that maximizes the semantic
information as the root of a concave function, and fits the 1-D
position-estimator deviation model by coordinate search on the semantic
mutual information.

The belief optimum.  A negative belief b in a base t gives the truth values
1 + b*t = (1 - |b|) + |b|*(1 - t): the positive belief |b| in the Zadeh
complement 1 - t.  So only positive beliefs are solved, on the base itself
or on its complement (which also keeps the digits of a small 1 + b*t, for
b near -1 and t near 1), and there the adjusted truth values are
T_b = 1 + b*u with u = t - 1.  Let H(b) be their harmonic mean under the
sampling distribution Q (over the labels with q > 0, of total mass M) and
LP(b) = E_P[T_b] the logical probability.  Then the information f(b) has
slope f'(b) = M*k(b) / (b*H*LP*ln 2) with k(b) = H(b) - LP(b).  A weighted
harmonic mean of positive affine functions is concave, so k is concave on
[0, 1], and k(0) = 0: f is unimodal and its maximizer is the root of k.

The sampling mass is grouped by base truth value once per solve.  Where
the labels with q > 0 carry at most two truth values -- every crisp base,
every two-letter problem -- the root is closed form (``_two_group_root``);
for a crisp base it is the abstract's 1 - (Q0/Q1)/(P0/P1).  With three or
more, ``_concave_root`` finds the root by a bracketed Newton iteration,
each evaluation of k one plain loop over the groups; the belief steps of
``gps_fit`` use it too.  The
other one-dimensional maximizations (the shift and spread steps of
``gps_fit``) are ``_line_max``: Brent's method, golden-section steps plus
parabolic interpolation.

numpy is imported inside the position-model functions, not at module
load: it is the bulk of ``import semcal``, and only these functions use it.
Their cost per call is mostly fixed overhead, so they check their inputs
in one pass and take the long route only to name a fault, and gather the
lag distribution through a strided view; each of these leaves every
output bit unchanged.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from typing import TYPE_CHECKING

from .confirmation import DocCase, DocResult
from .distributions import (
    NORMALIZATION_TOLERANCE,
    Distribution,
    _require_same_alphabet,
    require_finite,
)
from .errors import (
    BeliefOutOfRange,
    DegenerateGeometry,
    DegenerateInput,
    EmptyConditionSubset,
    NegativeMass,
    NonFinite,
    NotNormalized,
    OutOfRange,
    ZeroPrior,
    ZeroRow,
)
from .estimation_types import Channel, SampleSet, gaussian_profile, require_gaussian_spread
from .semantic_info import average_semantic_info
from .truth_functions import Crisp, Tabular, TruthFunction, belief_adjust

if TYPE_CHECKING:
    import numpy as np

#: Fraction of the longer side of the bracket that a golden-section step covers.
GOLDEN_SECTION = (3.0 - math.sqrt(5.0)) / 2.0

#: Width of the final bracket of ``_concave_root`` around a belief optimum.
ROOT_TOL = 1e-9

#: A belief optimum worth at most this many bits ties with b = 0, which then
#: wins: rounding never decides between them.
TIE_BITS = 1e-12


def empirical_conditional(samples: SampleSet, condition_subset) -> Distribution:
    """Relative evidence frequencies among records whose tag is in the subset."""
    subset = {str(c) for c in condition_subset}
    counts = dict.fromkeys(samples.alphabet.labels, 0)
    matched = 0
    for condition, label in samples.records:
        if condition in subset:
            counts[label] += 1
            matched += 1
    if matched == 0:
        raise EmptyConditionSubset(f"no records match conditions {sorted(subset)}")
    return Distribution(samples.alphabet,
                        [counts[label] / matched for label in samples.alphabet])


def optimal_truth_function(channel: Channel, j: int) -> TruthFunction:
    """Max-normalize the selecting-rule row P(h_j|E) into a truth function.

    This is the semantic channel matching the Shannon channel: with this
    truth function the semantic Bayes prediction reproduces P(E|h_j) and the
    average semantic information attains its KL upper bound.
    """
    row = channel.row(j)
    peak = max(row)
    if peak <= 0:
        raise ZeroRow(f"hypothesis {channel.hypotheses[j]!r} is never selected")
    return Tabular(channel.alphabet, tuple(v / peak for v in row))


def _line_max(f, lo: float, hi: float, tol: float = 1e-9) -> tuple[float, float]:
    """Maximize f on [lo, hi] by Brent's method (Brent 1973, ch. 5).

    Each step jumps to the vertex of the parabola through the three best
    points so far.  It takes a golden-section step instead when that jump is
    unsafe: the vertex leaves the bracket, the steps stop halving, or one of
    the three values is not finite (such as -inf at a falsified b = 1).
    f is only evaluated strictly inside (lo, hi), and never within tol/4 of
    the best point so far.  Returns (x, f(x)) for the best point found.  The
    final bracket around x is at most tol wide; when f is unimodal it holds
    the maximizer.
    """
    min_step = tol / 4.0
    a, b = lo, hi
    x = w = v = a + GOLDEN_SECTION * (b - a)
    fx = fw = fv = f(x)
    step = previous = 0.0
    while max(x - a, b - x) > 2.0 * min_step:
        mid = 0.5 * (a + b)
        golden = True
        if abs(previous) > min_step and math.isfinite(fx + fw + fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accept the vertex x + p/q if it lies inside the bracket and the
            # step is under half the step before last
            if abs(p) < abs(0.5 * q * previous) and q * (a - x) < p < q * (b - x):
                golden = False
                previous, step = step, p / q
                if x + step - a < 2.0 * min_step or b - (x + step) < 2.0 * min_step:
                    step = math.copysign(min_step, mid - x)
        if golden:
            previous = (a - x) if x >= mid else (b - x)
            step = GOLDEN_SECTION * previous
        u = x + (step if abs(step) >= min_step else math.copysign(min_step, step))
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _concave_root(k, end: float, start: float | None = None) -> float:
    """Maximize a unimodal f on [0, ``end``] as the root of its k, for ``end`` > 0.

    k(b) returns (k, k') for a function that is concave on the branch with
    k(0) = 0, at least 0 from b = 0 up to the maximizer of f and below 0
    past it; or None where a truth value is 0, which counts as past it.  The
    search starts at ``end``, or at ``start`` when one is given.  If
    k(end) >= 0, f still rises into the end: the end is returned, and no
    search runs.

    Otherwise each step is a Newton step on k(b)/b, the slope of the chord
    of k from 0, which has the same root on (0, ``end``].  Near b = 0, k is
    close to a parabola s*b - c*b**2, and Newton steps on k from past its
    small root only halve the distance to it; k(b)/b is close to the line
    s - c*b, which one Newton step solves.  The steps stay inside the
    bracket formed by the last point seen on each side of the root (b = 0
    and ``end`` to begin with).  A step bisects the bracket instead when the
    Newton point leaves it or is undefined, or when the steps stop halving,
    as in ``_line_max``; a warm start that has not yet seen past the root
    tries ``end`` instead.

    The search stops once the bracket is at most ``ROOT_TOL`` wide, or
    ``ROOT_TOL`` times the distance from its far side to ``end`` where that
    is under 1: f changes on the scale of that distance when ``end`` has a
    truth value of 0 and the root lies close to it.  (It also stops on a
    bracket with no float inside.)  Every step moves at least a quarter of
    that width, so a small Newton step alone does not end the search: near
    b = 0 the difference H - LP has lost most of its digits.  Returns the
    Newton point of the last evaluation when it lies strictly inside the
    final bracket, else the last point evaluated.
    """
    near, far, far_seen = 0.0, end, False
    x = end if start is None else start
    step = previous = math.inf
    while True:
        value = k(x)
        if value is None or value[0] < 0.0:
            far, far_seen = x, True
        elif x == end:
            return end
        else:
            near = x
        mid = 0.5 * (near + far)
        newton = math.nan
        if value is not None and value[1] * x != value[0]:
            newton = -value[0] * x / (value[1] * x - value[0])
        width = ROOT_TOL * min(1.0, end - far)
        if far - near <= width or not near < mid < far:
            return x + newton if near < x + newton < far else x
        if abs(newton) < width / 4.0:
            newton = math.copysign(width / 4.0, newton)
        if near < x + newton < far and abs(newton) < 0.5 * abs(previous):
            previous, step = step, newton
        else:
            previous, step = step, (mid if far_seen else end) - x
        x += step


def _belief_groups(table: tuple[float, ...], prior: Distribution, sampling: Distribution):
    """The sampling mass grouped by base truth value, for the belief solve.

    Returns (groups, kept, mean): the (t_g, Q_g) pairs, where Q_g is the
    sampling mass of the labels with truth value t_g over labels with q > 0
    only, their total M, and the prior mean E_P[t] of the base.  The caller
    has checked that prior and sampling share an alphabet.
    """
    grouped = {}
    for q, t in zip(sampling.probs, table):
        if q > 0.0:
            grouped[t] = grouped.get(t, 0.0) + q
    mean = math.fsum(map(operator.mul, prior.probs, table))
    return tuple(grouped.items()), math.fsum(grouped.values()), mean


def _two_group_root(groups, kept: float, mean: float) -> float:
    """The root of k on [0, 1] in closed form, for at most two groups.

    With u_i = t_i - 1, w = E_P[t] - 1 and A = Q_0*u_1 + Q_1*u_0, clearing
    the denominators of k = H - LP gives k(c) = c*(alpha + beta*c) / (M + c*A),
    where alpha = M*(u_0 + u_1) - A - M*w, beta = M*u_0*u_1 - w*A, and
    M + c*A = Q_0*T_1 + Q_1*T_0 is positive.  So k rises from 0 only when
    alpha > 0, and then its one root on (0, 1) is -alpha/beta, when beta < 0
    and that lies below 1; otherwise k >= 0 on the whole branch and the end
    c = 1 is the maximizer.  A group with truth value 0 makes H zero, and so
    k negative, at c = 1 (and beta < 0), so the root lies below 1 even where
    -alpha/beta rounds up to it: the result is then the float below 1, where
    ``_concave_root`` also stops.  When alpha <= 0 (a slope at b = 0 that
    only rounding made positive) f does not rise and the result is 0.  A
    single group is paired with an empty copy of itself, which leaves k
    unchanged.
    """
    (t0, q0), (t1, q1) = groups if len(groups) == 2 else (groups[0], (groups[0][0], 0.0))
    u0, u1, w = t0 - 1.0, t1 - 1.0, mean - 1.0
    a = q0 * u1 + q1 * u0
    alpha = kept * (u0 + u1) - a - kept * w
    if not alpha > 0.0:
        return 0.0
    beta = kept * u0 * u1 - w * a
    if beta < 0.0 and -alpha / beta < 1.0:
        return -alpha / beta
    if t0 == 0.0 or t1 == 0.0:
        return math.nextafter(1.0, 0.0)
    return 1.0


def _belief_gap(groups, kept: float, mean: float):
    """k(b) = H(b) - LP(b) and its slope on [0, 1], for ``_concave_root``.

    With S = sum_g Q_g/T_g, H = M/S and k' = H*D/S - E_P[u], where
    D = sum_g Q_g*u_g/T_g**2.  Since u_g = (T_g - 1)/b, D = (S - S2)/b with
    S2 = sum_g Q_g/T_g**2, so one loop over the groups, with two divisions
    per group and no log, gives both.  S - S2 loses digits as b nears 0,
    which only blunts the Newton steps there; the sign of k, which settles
    the bracket, does not use it.  Returns None where a truth value is 0,
    which only happens at b = 1.
    """
    lp_slope = mean - 1.0     # E_P[u]

    def k(b: float):
        offset = 1.0 - b
        s = s2 = 0.0
        try:
            for t, q in groups:
                truth = offset + b * t
                r = q / truth
                s += r
                s2 += r / truth
        except ZeroDivisionError:
            return None
        h = kept / s
        return h - (offset + b * mean), h * (1.0 - s2 / s) / b - lp_slope

    return k


def optimize_belief(base_tf: TruthFunction, prior: Distribution,
                    sampling: Distribution) -> DocResult:
    """Degree of confirmation of a general (possibly fuzzy) hypothesis.

    Maximizes the average semantic information f(b) of the belief-adjusted
    hypothesis over b in [-1, 1].  A base that is not a ``Tabular`` or a
    ``Crisp`` on the prior's alphabet is evaluated once, into a ``Tabular``;
    those two are used as they are, since their truth vectors are valid and
    cheap to read again.  The sampling mass is grouped by truth value once
    (``_belief_groups``).  The maximizer on a branch is the root of
    k = H - LP (see the module docstring): closed form for at most two
    truth values where q > 0 (``_two_group_root``, on the branch's own
    groups), else found by ``_concave_root`` from the end of the branch,
    each of its steps one loop over the groups.

    Branch rule: both one-sided slopes at b = 0 equal
    (E_Q[t] - E_P[t]) / ln 2 for the base truth vector t, sampling Q and
    prior P.  f is unimodal, so it stays below 0 bits on the branch it falls
    into from 0, and only the branch it rises into is solved: c* on [0, 1]
    for the base, b* = c*, when the slope is positive, and for its
    complement 1 - t, b* = -c*, when it is negative.  When the slope is
    exactly 0, b = 0 is the global maximum: the result is b* = 0.0 with
    0 bits, and nothing else is evaluated.  Constant-base rule: a base with
    min(t) == max(t) gets the same result on the same path.  At every
    belief its truth values are all equal, which carries no information;
    but rounding can leave its slope a few 1e-16 from 0 and send the root
    to where the logical probability of the complement underflows.
    Otherwise the information is evaluated once, at the root b* = +-c*, by
    ``average_semantic_info`` on the base with its -inf and contradiction
    rules.

    Tie rule: when those bits are at most ``TIE_BITS``, b = 0 (the
    tautology, 0 bits) wins and the result is b* = 0.0 with 0 bits.  So
    evidence that carries no information (sampling equal to the prior)
    gives b* = 0.0 exactly, and no result has negative bits.
    """
    if isinstance(base_tf, (Tabular, Crisp)) and base_tf.alphabet.labels == prior.alphabet.labels:
        base = base_tf
    else:
        base = Tabular(prior.alphabet, base_tf.values(prior.alphabet))
    table = base.values(prior.alphabet)
    if max(table) <= 0:
        raise DegenerateInput("base truth function is identically zero")
    _require_same_alphabet(prior, sampling)

    slope = math.fsum((q - p) * t for q, p, t in zip(sampling.probs, prior.probs, table))
    if slope != 0.0:
        # the belief -c in t is the belief c in 1 - t
        branch = table if slope > 0.0 else tuple([1.0 - t for t in table])
        groups, kept, mean = _belief_groups(branch, prior, sampling)
        # two truth values where q > 0 rule out a constant base without a scan
        if len(groups) > 1 or min(table) != max(table):
            if len(groups) > 2:
                c = _concave_root(_belief_gap(groups, kept, mean), 1.0)
            else:
                c = _two_group_root(groups, kept, mean)
            b_star = math.copysign(c, slope)
            bits = average_semantic_info(belief_adjust(base, b_star), prior, sampling)
            if bits > TIE_BITS:
                case = (DocCase.PROPER_AFFIRMATION if slope > 0.0
                        else DocCase.EXCESSIVE_AFFIRMATION)
                return DocResult(b_star=b_star, b_prime_star=1.0 - c, case=case,
                                 information_bits=bits)
    return DocResult(b_star=0.0, b_prime_star=1.0, case=DocCase.PROPER_AFFIRMATION,
                     information_bits=0.0)


def channel_from_samples(samples: SampleSet) -> tuple[Channel, Distribution]:
    """Synthesize the selecting-rule channel P(H|E) from tagged samples.

    One pass over the records counts each (condition, label) pair.  Each
    distinct condition becomes a hypothesis, in order of first appearance,
    and its row is n(c, e)/n(e) = P(c) * P(e|c) / P(e).  The prior is the
    sample marginal n(e)/N, the only prior under which every column sums
    to 1.  Returns (channel, prior).

    A label of the alphabet with no record leaves P(h|e) = 0/0 undefined
    and raises ZeroPrior.
    """
    pairs = Counter(samples.records)
    if not pairs:
        raise EmptyConditionSubset("sample set has no records")
    labels = samples.alphabet.labels
    label_counts = dict.fromkeys(labels, 0)
    for (_, label), n in pairs.items():
        label_counts[label] += n
    for label, n in label_counts.items():
        if n == 0:
            raise ZeroPrior(f"label {label!r} has no records, so P(h|{label!r}) is 0/0")
    conditions = tuple(dict.fromkeys(c for c, _ in pairs))
    rows = [[pairs[c, label] / label_counts[label] for label in labels] for c in conditions]
    total = len(samples)
    prior = Distribution(samples.alphabet, [label_counts[label] / total for label in labels])
    return Channel(samples.alphabet, conditions, rows), prior


def lag_distribution(observed: np.ndarray) -> np.ndarray:
    """Joint mass of a uniform-prior channel at each toroidal lag.

    ``observed`` is the row-normalized channel P(reported | true) on a grid
    of m cells; entry k of the result is (1/m) * sum_t observed[t, (t+k) mod m],
    the joint probability that the reported cell lies k steps past the true
    one; the entries total 1.  The channel is checked in one pass (its
    minimum and row sums); only a channel that fails it is scanned again to
    name the fault.  The gather is a strided view of the channel placed
    beside itself: row k of the view walks the diagonal t -> t + k.  The
    view is copied to a contiguous m x m array so that each row sums in the
    same order as before.
    """
    import numpy as np

    observed = np.asarray(observed, dtype=float)
    if observed.ndim != 2 or observed.shape[0] != observed.shape[1] or observed.size == 0:
        raise DegenerateInput(f"observed channel must be square and non-empty, "
                              f"got {observed.shape}")
    m = observed.shape[0]
    lowest = observed.min()
    row_error = float(np.abs(observed.sum(axis=1) - 1.0).max()) if lowest >= 0 else math.nan
    if not row_error <= NORMALIZATION_TOLERANCE:
        _raise_bad_mass(observed, "observed channel")
        raise NotNormalized(f"observed rows must sum to 1, one is off by {row_error:.3g}")
    doubled = np.concatenate((observed, observed), axis=1)
    step = doubled.itemsize
    # view[k, t] = doubled[t, t + k] = observed[t, (t+k) mod m]
    view = np.lib.stride_tricks.as_strided(doubled, shape=(m, m),
                                           strides=(step, (2 * m + 1) * step), writeable=False)
    return np.ascontiguousarray(view).sum(axis=1) / m


def _raise_bad_mass(values: np.ndarray, what: str) -> None:
    """Raise NonFinite or NegativeMass, in that order, if either applies."""
    import numpy as np

    if not np.isfinite(values).all():
        raise NonFinite(f"{what} has a NaN or infinite entry")
    if (values < 0).any():
        raise NegativeMass(f"{what} has a negative entry")


def _checked_lags(lags: np.ndarray) -> tuple[float, float]:
    """Return (sum, minimum) of a valid lag vector; raise for an invalid one.

    A vector whose minimum is at least 0 and whose sum is 1 is valid, and
    that takes one min and one sum.  Anything else is scanned again to
    raise NonFinite, NegativeMass or NotNormalized, first match in that
    order.  The sum runs only once the minimum has ruled out NaN and -inf.
    """
    lowest = lags.min() if lags.size else 0.0
    total = float(lags.sum()) if lowest >= 0 else math.nan
    if not abs(total - 1.0) <= NORMALIZATION_TOLERANCE:
        _raise_bad_mass(lags, "lag distribution")
        raise NotNormalized(f"lag distribution sums to {total}, not 1")
    return total, lowest


def gps_objective(observed: np.ndarray, delta: float, d: float, b: float) -> float:
    """Semantic mutual information of the parametric deviation hypothesis.

    ``observed`` is either the row-normalized channel P(reported | true) on
    a toroidal grid of m cells or its ``lag_distribution``; a matrix is
    reduced first.  The truth functions are g = b*exp(-dist^2/2d^2) + 1 - b,
    centered at each reported cell shifted back by ``delta``, and the prior
    over true positions is uniform.  Every truth value depends only on the
    lag k = (reported - true) mod m, so every reported cell has the same
    logical probability mean(g) and the information is exactly
    sum_k h[k]*log2 g(k - delta) - log2(mean g)*sum_k h[k]: an O(m)
    evaluation on the lag distribution h.  Returns ``-inf`` when a lag with
    mass has truth value 0 (possible only at b = 1).

    Every call checks its lag vector: one min and one sum accept a valid
    one, and only a vector that fails them is scanned again to name the
    fault.  No mask is built when every lag has mass, and below b = 1 no
    truth value is 0, so no ``-inf`` check runs.  None of this changes a
    bit of the result.
    """
    import numpy as np

    require_finite("shift and spread", (delta, d))
    if not d > 0:
        raise OutOfRange(f"spread must be positive, got d={d}")
    require_gaussian_spread("spread", d)
    if not 0.0 <= b <= 1.0:
        raise BeliefOutOfRange(f"belief must lie in [0, 1], got b={b}")
    lags = np.asarray(observed, dtype=float)
    if lags.ndim == 1:
        lags = np.ascontiguousarray(lags)    # the dot product sums in one order
        total, lowest = _checked_lags(lags)
    else:
        lags = lag_distribution(lags)
        total, lowest = float(lags.sum()), lags.min()
    m = lags.shape[0]
    truth = b * gaussian_profile(m, delta, d) + (1.0 - b)
    if lowest > 0:    # every lag has mass
        mass, kept = lags, truth
    else:
        seen = lags > 0
        mass, kept = lags[seen], truth[seen]
    if b < 1.0:    # every truth value is at least 1 - b > 0
        log_truth = np.log2(kept)
    else:
        with np.errstate(divide="ignore"):
            log_truth = np.log2(kept)
        if np.isneginf(log_truth).any():
            return float("-inf")
    return float(mass @ log_truth - math.log2(truth.sum() / m) * total)


def _lag_belief_gap(lags: np.ndarray, profile: np.ndarray):
    """``_belief_gap`` for the position model's belief at a fixed (delta, d).

    The same problem on the lag alphabet: the sampling mass is the lag
    vector h, the prior is uniform and u = G - 1 for the Gaussian profile G.
    Returns k(b) -> (k, k') for ``_concave_root``, in numpy.  Every truth
    value b*G + 1 - b is at least 1 - b, so below b = 1 none is 0.
    """
    total = float(lags.sum())
    u = profile - 1.0
    lp_slope = float(u.mean())

    def k(b: float):
        truth = b * profile + (1.0 - b)
        r = lags / truth
        s = float(r.sum())
        h = total / s
        return h - float(truth.mean()), h * float((r / truth) @ u) / s - lp_slope

    return k


def gps_fit(observed: np.ndarray) -> tuple[float, float, float]:
    """Recover (delta_e, d, b) of the deviation model from an observed channel.

    Reduces the channel to its lag distribution once (O(m^2)); every
    evaluation after that is O(m).  The integer shift is the lag with the
    most mass; then five passes each run a Brent line search on the spread
    d over [2, m/4] grid steps, calling the module's ``gps_objective`` on
    the lag vector, and then solve for the belief b.  At fixed (delta, d)
    the belief step is a belief problem on the lag alphabet, so it is the
    root of k = H - LP (``_lag_belief_gap``, on the ``gaussian_profile``)
    found by ``_concave_root`` on [0, 1 - 1e-9], starting from the previous
    pass's b.  The shift is refined continuously, by a line search, before
    the fifth pass.  Returns (delta_hat, d_hat, b_hat).

    On grids of at least 200 cells whose true spread is at least 4 steps,
    the recovered shift is within one grid step of the true delta_e, the
    spread within 5 percent of d, and the belief within 0.02 of the model's
    reference belief.
    """
    import numpy as np

    observed = np.asarray(observed, dtype=float)
    m = observed.shape[0]
    if observed.shape != (m, m) or m < 8:
        raise DegenerateGeometry(f"need a square grid of at least 8 cells, got {observed.shape}")
    d_lo, d_hi = 2.0, m / 4.0

    lags = lag_distribution(observed)
    delta = float(np.argmax(lags))
    if delta > m / 2:
        delta -= m

    d_hat = 0.5 * (d_lo + d_hi)
    b_hat = 0.9
    for fit_pass in range(5):
        if fit_pass == 4:
            delta, _ = _line_max(lambda s: gps_objective(lags, s, d_hat, b_hat),
                                 delta - 1.0, delta + 1.0, tol=1e-6)
        d_hat, _ = _line_max(lambda d: gps_objective(lags, delta, d, b_hat),
                             d_lo, d_hi, tol=1e-6)
        b_hat = _concave_root(_lag_belief_gap(lags, gaussian_profile(m, delta, d_hat)),
                              1.0 - 1e-9, start=b_hat)
    return delta, d_hat, b_hat
