"""Maximum semantic information estimation.

Derives optimal truth functions by max-normalizing selecting-rule rows of a
Shannon channel, finds the degree of belief that maximizes the semantic
information as the root of a concave function, and fits the 1-D
position-estimator deviation model by bounded Newton ascent on the
semantic mutual information.

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
each evaluation of k one plain loop over the groups.  It starts at the
closed-form root of the two-group model that matches the moments 0-3 of
the truth values under Q (``_moment_start``), which halves the
evaluations of a start at b = 1, where a truth value near 0 puts a pole
of k just past the end.  ``gps_fit`` takes
Newton steps on its shift, spread and belief at once, with the analytic
gradient and Hessian of its objective (``_gps_newton_terms``).

numpy is imported inside the position-model functions, not at module
load: it is the bulk of ``import semcal``, and only these functions use it.
Channel rows and lag vectors pass one mass check, ``_check_mass``.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import Counter
from typing import TYPE_CHECKING

from .confirmation import DocCase, DocResult
from .distributions import (
    NORMALIZATION_TOLERANCE,
    Distribution,
    _require_distributions,
    require_count,
    require_finite,
    require_sequence,
    require_type,
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
from .estimation_types import (SampleSet, _real, _require_spread, gaussian_profile,
                               toroidal_offset)
from .semantic_info import Channel, average_semantic_info
from .truth_functions import Tabular, TruthFunction, belief_adjust

if TYPE_CHECKING:
    import numpy as np

#: Most Newton steps ``gps_fit`` takes; a fit from its start converges in far fewer.
FIT_STEPS = 100

#: Most that one ``gps_fit`` step divides 1 - b by.  Near b = 1 the objective
#: runs like log(1 - b), and a Newton step from past the optimum back toward
#: it only doubles 1 - b, so a step that lands far too near 1 is slow to undo.
BELIEF_SHRINK = 64.0

#: Width of the final bracket of ``_concave_root`` around a belief optimum.
ROOT_TOL = 1e-9

#: A belief optimum worth at most this many bits ties with b = 0, which then
#: wins: rounding never decides between them.
TIE_BITS = 1e-12


def empirical_conditional(samples: SampleSet, condition_subset) -> Distribution:
    """Relative evidence frequencies among records whose tag is in the subset."""
    require_type("samples", samples, SampleSet)
    subset = set(map(str, require_sequence("condition subset", condition_subset)))
    counts = Counter(label for condition, label in samples.records if condition in subset)
    matched = sum(counts.values())
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
    require_type("channel", channel, Channel)
    if not 0 <= require_count("hypothesis index", j) < len(channel.hypotheses):
        raise OutOfRange(f"hypothesis index {j} is not below {len(channel.hypotheses)}")
    row = channel.row(j)
    peak = max(row)
    if peak <= 0:
        raise ZeroRow(f"hypothesis {channel.hypotheses[j]!r} is never selected")
    return Tabular(channel.alphabet, tuple(v / peak for v in row))


def _concave_root(k, start: float) -> float:
    """Maximize a unimodal f on [0, 1] as the root of its k.

    k(b) returns (k, k') for a function that is concave on the branch with
    k(0) = 0, at least 0 from b = 0 up to the maximizer of f and below 0
    past it; or None where a truth value is 0, which counts as past it.  The
    search starts at ``start`` in (0, 1].  Whenever k(1) >= 0, f still rises
    into the end and 1 is returned: the end is evaluated before any result
    below 1 unless k has already read below 0 at a point below 1, which by
    concavity puts the root below that point.  From a start at 1 that
    evaluation is the first, and no search runs when k(1) >= 0.

    Otherwise each step is a Newton step on k(b)/b, the slope of the chord
    of k from 0, which has the same root on (0, 1].  Near b = 0, k is
    close to a parabola s*b - c*b**2, and Newton steps on k from past its
    small root only halve the distance to it; k(b)/b is close to the line
    s - c*b, which one Newton step solves.  The steps stay inside the
    bracket formed by the last point seen on each side of the root (b = 0
    and b = 1 to begin with).  A step bisects the bracket instead when the
    Newton point leaves it or is undefined, or when the steps stop halving
    (the safeguard of Brent's method); while the end is not yet evaluated,
    such a step goes to the end instead.

    The search stops once the bracket is at most ``ROOT_TOL`` times the
    distance from its far side to b = 1: f changes on the scale of that
    distance when b = 1 has a truth value of 0 and the root lies close to
    it.  (It also stops on a
    bracket with no float inside.)  Every step moves at least a quarter of
    that width, so a small Newton step alone does not end the search: near
    b = 0 the difference H - LP has lost most of its digits.  Returns the
    Newton point of the last evaluation when it lies strictly inside the
    final bracket, else the last point evaluated, or the near side when
    that point was the end (where k < 0 or a truth value is 0).
    """
    near, far, x = 0.0, 1.0, start
    end = start < 1.0      # k(1) not yet evaluated, and not ruled out by a point below 0
    step = previous = math.inf
    while True:
        value = k(x)
        if value is None or value[0] < 0.0:
            far, end = x, False
        elif x == 1.0:
            return 1.0
        else:
            near = x
        mid = 0.5 * (near + far)
        newton = math.nan
        if value is not None and value[1] * x != value[0]:
            newton = -value[0] * x / (value[1] * x - value[0])
        width = ROOT_TOL * (1.0 - far)
        if not end and (far - near <= width or not near < mid < far):
            if near < x + newton < far:
                return x + newton
            return near if x == 1.0 else x     # never the end, where k < 0 or a truth value is 0
        if abs(newton) < width / 4.0:
            newton = math.copysign(width / 4.0, newton)
        if near < x + newton < far and abs(newton) < 0.5 * abs(previous):
            target = x + newton
        else:
            target = 1.0 if end else mid
        previous, step, x = step, target - x, target


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


def _moment_start(groups, kept: float, mean: float) -> float:
    """Where ``_concave_root`` starts: the root of a two-group model of the groups.

    The model is the two-point Gauss rule of the truth values under Q: the
    two nodes and weights that match the moments 0-3 of t (Golub and
    Welsch, Math. Comp. 23, 1969).  One loop sums them about the first
    group's truth value, which keeps the digits of a narrow spread.  With
    mean mu, variance v and third central moment s, the nodes are mu + y
    for the two roots y of y**2 - (s/v)*y - v, clipped to [0, 1], each
    weighted by the other's distance over their gap.  ``_two_group_root``
    solves the model.  The start is 1 when the model gives no root inside
    (0, 1) short of the float below 1, or when v does not come out positive.
    """
    origin = groups[0][0]
    m1 = m2 = m3 = 0.0
    for t, q in groups:
        d = t - origin
        qd = q * d
        m1 += qd
        m2 += qd * d
        m3 += qd * d * d
    mu, m2, m3 = m1 / kept, m2 / kept, m3 / kept
    variance = m2 - mu * mu
    if not variance > 0.0:
        return 1.0
    skew = (m3 - 3.0 * mu * variance - mu * mu * mu) / variance
    gap = math.sqrt(skew * skew + 4.0 * variance)
    # the root of larger size first; the other is -v over it, with no cancellation
    y0 = 0.5 * (skew + math.copysign(gap, skew))
    y1 = -variance / y0
    centre = origin + mu
    model = ((min(max(centre + y0, 0.0), 1.0), kept * abs(y1) / gap),
             (min(max(centre + y1, 0.0), 1.0), kept * abs(y0) / gap))
    c = _two_group_root(model, kept, mean)
    return c if 0.0 < c < math.nextafter(1.0, 0.0) else 1.0


def _belief_gap(groups, kept: float, mean: float):
    """k(b) = H(b) - LP(b) and its slope on [0, 1], for ``_concave_root``.

    With S = sum_g Q_g/T_g, H = M/S and k' = H*D/S - E_P[u], where
    D = sum_g Q_g*u_g/T_g**2.  Since u_g = (T_g - 1)/b, D = (S - S2)/b with
    S2 = sum_g Q_g/T_g**2, so one loop over the groups, with two divisions
    per group and no log, gives both.  S - S2 loses digits as b nears 0,
    which only blunts the Newton steps there; the sign of k, which settles
    the bracket, does not use it.  Returns None where a truth value is 0,
    which only happens at b = 1.

    Only at b = 1 can a truth value be small enough (below about 1e-154)
    for S2 to overflow, and below about 1e-308 S as well, which would read
    H as 0.  There the sums are taken again relative to the least truth
    value T_0, as s = sum_g Q_g*(T_0/T_g) and s2 = sum_g Q_g*(T_0/T_g)**2,
    which neither overflow: H = T_0*M/s and k' = (M/s)*(T_0 - s2/s) - E_P[u].
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
        if s2 == math.inf:     # b = 1, where T_g = t_g
            least = min(t for t, _ in groups)
            s = sum(q * (least / t) for t, q in groups)
            s2 = sum(q * (least / t) ** 2 for t, q in groups)
            h = kept / s
            return h * least - mean, h * (least - s2 / s) - lp_slope
        h = kept / s
        return h - (offset + b * mean), h * (1.0 - s2 / s) / b - lp_slope

    return k


def optimize_belief(base_tf: TruthFunction, prior: Distribution,
                    sampling: Distribution) -> DocResult:
    """Degree of confirmation of a general (possibly fuzzy) hypothesis.

    Maximizes the average semantic information f(b) of the belief-adjusted
    hypothesis over b in [-1, 1].  A base that is not a ``Tabular`` on the
    prior's alphabet is evaluated once, into a ``Tabular``; a ``Tabular``,
    which every crisp truth function is, is used as it is, since its truth
    vector is valid and stored.  The sampling mass is grouped by truth value
    once (``_belief_groups``).  The maximizer on a branch is the root of
    k = H - LP (see the module docstring): closed form for at most two
    truth values where q > 0 (``_two_group_root``, on the branch's own
    groups), else found by ``_concave_root`` from the root of a
    moment-matched two-group model (``_moment_start``), each of its steps
    one loop over the groups.

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
    _require_distributions(prior, sampling)
    if isinstance(base_tf, Tabular) and base_tf.alphabet.labels == prior.alphabet.labels:
        base = base_tf
    else:
        require_type("base", base_tf, TruthFunction)
        base = Tabular(prior.alphabet, base_tf.values(prior.alphabet))
    table = base.values(prior.alphabet)
    if max(table) <= 0:
        raise DegenerateInput("base truth function is identically zero")

    slope = math.fsum((q - p) * t for q, p, t in zip(sampling.probs, prior.probs, table))
    if slope != 0.0:
        # the belief -c in t is the belief c in 1 - t
        branch = table if slope > 0.0 else tuple([1.0 - t for t in table])
        groups, kept, mean = _belief_groups(branch, prior, sampling)
        # two truth values where q > 0 rule out a constant base without a scan
        if len(groups) > 1 or min(table) != max(table):
            if len(groups) > 2:
                c = _concave_root(_belief_gap(groups, kept, mean),
                                  _moment_start(groups, kept, mean))
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
    require_type("samples", samples, SampleSet)
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


def _float_array(values, what: str) -> np.ndarray:
    """``values`` as a float array, or OutOfRange unless every entry is a real number.

    The kind of the array is checked before the cast, which would parse
    numeric text and drop the imaginary part of a complex number; the
    entries of an object array are checked one by one.  A float32 or
    float16 array keeps its type, so that ``_check_mass`` can hold it to its
    own rounding; every other array becomes float64.
    """
    import numpy as np

    try:
        array = np.asarray(values)
        kind = array.dtype.kind
        if kind == "f" and array.itemsize < 8:
            return array
        if kind in "biuf" or (kind == "O" and all(isinstance(v, numbers.Real) for v in array.flat)):
            return array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise OutOfRange(f"{what} must hold real numbers")


def _check_mass(values: np.ndarray, what: str, axis: int | None = None):
    """Return the float64 sums of ``values`` along ``axis``, once each is a probability mass.

    One min and one sum accept a valid array: no entry below 0 and every sum
    within ``NORMALIZATION_TOLERANCE`` of 1, or, for float32 and float16
    masses, within 4 eps of their type if that is larger: masses that sum
    to 1 in such a type do so to a few ulps of 1, whatever their number (at
    most eps/2 off when rounded from float64, 2 eps when normalized in the
    type itself, seen up to 4096 masses).  The sum runs only once the
    minimum has ruled out NaN and -inf.  The one sum of a whole array
    (``axis`` None) is a float, compared in a tenth of the time of a numpy
    scalar.  Only an array that fails is scanned again, to raise
    NonFinite, NegativeMass or NotNormalized, first match in that order.
    """
    import numpy as np

    tolerance = NORMALIZATION_TOLERANCE
    if values.itemsize < 8:
        tolerance = max(tolerance, 4.0 * float(np.finfo(values.dtype).eps))
        values = values.astype(float)
    sums = off = None
    if not values.size or values.min() >= 0:
        if axis is None:
            sums = float(values.sum())
            off = abs(sums - 1.0)
        else:
            sums = values.sum(axis=axis)
            off = abs(sums - 1.0).max()
    if off is None or not off <= tolerance:
        if not np.isfinite(values).all():
            raise NonFinite(f"{what}: an entry is NaN or infinite")
        if (values < 0).any():
            raise NegativeMass(f"{what}: an entry is negative")
        raise NotNormalized(f"{what}: a sum is off from 1 by {off:.3g}")
    return sums


def lag_distribution(observed: np.ndarray) -> np.ndarray:
    """Joint mass of a uniform-prior channel at each toroidal lag.

    ``observed`` is the row-normalized channel P(reported | true) on a grid
    of m cells; entry k of the result is (1/m) * sum_t observed[t, (t+k) mod m],
    the joint probability that the reported cell lies k steps past the true
    one; the entries total 1.  An array of other than two dimensions raises
    OutOfRange, an empty or non-square matrix DegenerateGeometry, and each
    row passes ``_check_mass``.  The rows of a float32 or float16 channel,
    which sum to 1 only to the rounding of their type, are divided by their
    float64 sums.  The gather is a strided view of the channel placed
    beside itself: row k of the view walks the diagonal t -> t + k, with
    strides read from the doubled array, so a channel in any memory layout
    gathers the same cells.
    """
    import numpy as np

    observed = _float_array(observed, "observed channel")
    if observed.ndim != 2:
        raise OutOfRange(f"observed channel must be a matrix, got shape {observed.shape}")
    if observed.shape[0] != observed.shape[1] or observed.size == 0:
        raise DegenerateGeometry(f"need a non-empty square channel, got {observed.shape}")
    sums = _check_mass(observed, "observed channel rows", axis=1)
    if observed.itemsize < 8:
        observed = observed / sums[:, None]
    doubled = np.concatenate((observed, observed), axis=1)
    row, column = doubled.strides
    # view[k, t] = doubled[t, t + k] = observed[t, (t+k) mod m]
    view = np.lib.stride_tricks.as_strided(doubled, shape=observed.shape,
                                           strides=(column, row + column), writeable=False)
    return view.mean(axis=1)


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
    evaluation on the lag distribution h, after one ``_check_mass`` of h.
    For b < 1 every truth value is at least 1 - b > 0, and the sum is one
    dot product over all the lags, with no mask.  At b = 1 a truth value can
    be 0: the result is ``-inf`` when a lag with mass has truth value 0, and
    otherwise a lag without mass adds 0 to the same dot product.
    """
    import numpy as np

    delta, d, b = _real("shift", delta), _real("spread", d), _real("belief", b)
    require_finite("shift and spread", (delta, d))
    _require_spread("spread", d)
    if not 0.0 <= b <= 1.0:
        raise BeliefOutOfRange(f"belief must lie in [0, 1], got b={b}")
    lags = _float_array(observed, "observed channel or lag distribution")
    if lags.ndim != 1:
        lags = lag_distribution(lags)
    lags = np.ascontiguousarray(lags)    # the dot product sums in one order
    total = float(_check_mass(lags, "lag distribution"))
    lags = lags.astype(float, copy=False)    # a float32 or float16 vector, once checked
    m = lags.shape[0]
    truth = b * gaussian_profile(m, delta, d) + (1.0 - b)
    logged = truth
    if b == 1.0:    # below 1 every truth value is at least 1 - b > 0
        seen = lags > 0
        if not truth[seen].min() > 0.0:
            return float("-inf")
        logged = np.where(seen, truth, 1.0)
    return float(lags @ np.log2(logged) - math.log2(truth.sum() / m) * total)


def _gps_newton_terms(lags: np.ndarray, total: float, delta: float, d: float, b: float):
    """Gradient and Hessian of F = ln 2 * ``gps_objective`` in (delta, d, b).

    With s = x/d for the toroidal offset x of each lag from delta,
    G = exp(-s^2/2) and g = 1 - b + b*G, the slopes of g are b*G*s/d,
    b*G*s^2/d and G - 1; its second derivatives are b*G*(s^2 - 1)/d^2,
    b*G*s*(s^2 - 2)/d^2 and b*G*s^2*(s^2 - 3)/d^2 in (delta, delta),
    (delta, d) and (d, d), G*s/d and G*s^2/d in (delta, b) and (d, b), and
    0 in (b, b).  For F = sum h*ln g - H*ln(mean g), with H = ``total``,
    F_i = sum h*g_i/g - H*mean(g_i)/mean(g) and F_ij = sum h*(g_ij/g -
    g_i*g_j/g^2) - H*(mean(g_ij)/mean(g) - mean(g_i)*mean(g_j)/mean(g)^2).

    Each derivative of g but g_b = G - 1 is a fixed combination of the
    moments P_k = G*s^k (k = 0..4), and so is each product of two slopes
    in (delta, d) over G, and each such slope times g_b over g_b.  So every
    sum above comes from one (4, m) @ (m, 6) product: the weights r = h/g,
    1/m, w*G and w*g_b, where w = r/g, against the rows P_0 .. P_4 and g_b.
    g_b is a row of its own, not P_0 - 1, so that F_b and F_bb keep their
    digits where G is close to 1.
    """
    import numpy as np

    m = lags.shape[0]
    s = toroidal_offset(np.arange(m) - delta, m) / d
    moments = np.empty((6, m))      # P_0 .. P_4, then g_b
    profile = np.exp(-0.5 * s * s, out=moments[0])
    for k in range(1, 5):
        np.multiply(moments[k - 1], s, out=moments[k])
    slope_b = np.subtract(profile, 1.0, out=moments[5])
    truth = b * profile + (1.0 - b)
    weights = np.empty((4, m))
    ratio = np.divide(lags, truth, out=weights[0])
    weights[1] = 1.0 / m
    scaled = ratio / truth
    np.multiply(scaled, profile, out=weights[2])
    np.multiply(scaled, slope_b, out=weights[3])
    sums, means, curved, mixed = (weights @ moments.T).tolist()
    mean_g = 1.0 + b * means[5]
    # sum r*P_k - H*mean(P_k)/mean(g): each first and second derivative of F but
    # the cross terms is a fixed combination of these
    q0, q1, q2, q3, q4, qb = (x - total / mean_g * y for x, y in zip(sums, means))
    outer, inner = b / d, b / (d * d)
    # mean(g_i)/mean(g)
    share = [outer * means[1] / mean_g, outer * means[2] / mean_g, means[5] / mean_g]
    second = [[inner * (q2 - q0), inner * (q3 - 2.0 * q1), q1 / d],
              [inner * (q3 - 2.0 * q1), inner * (q4 - 3.0 * q2), q2 / d],
              [q1 / d, q2 / d, 0.0]]
    cross = [[outer * outer * curved[2], outer * outer * curved[3], outer * mixed[1]],
             [outer * outer * curved[3], outer * outer * curved[4], outer * mixed[2]],
             [outer * mixed[1], outer * mixed[2], mixed[5]]]
    grad = [outer * q1, outer * q2, qb]
    hess = [[f - c + total * si * sj for f, c, sj in zip(f_row, c_row, share)]
            for f_row, c_row, si in zip(second, cross, share)]
    return grad, hess


def _newton_step(grad, hess, free):
    """The Newton step -H^-1 F' on the coordinates in ``free``, or None.

    -H there is factored as L*D*L^T, with L unit lower triangular and no
    pivoting, in one array that holds D on its diagonal and L below it:
    every pivot in D is positive exactly when -H is positive definite
    there, and only then is the step sure to be an ascent direction.
    Returns None otherwise.
    """
    a = [[-hess[i][j] for j in free] for i in free]
    for j, row in enumerate(a):
        for k in range(j):
            row[j] -= row[k] * row[k] * a[k][k]
        if not row[j] > 0.0:
            return None
        for other in a[j + 1:]:
            for k in range(j):
                other[j] -= other[k] * row[k] * a[k][k]
            other[j] /= row[j]
    step = [grad[i] for i in free]
    for i, row in enumerate(a):            # L*y = F'
        for k in range(i):
            step[i] -= row[k] * step[k]
    for i in reversed(range(len(a))):      # D*L^T*x = y
        step[i] /= a[i][i]
        for k in range(i + 1, len(a)):
            step[i] -= a[k][i] * step[k]
    return step


def _log_parabola(values: list[float], top: int, floor: float):
    """Coefficients (c0, c1, c2) of the parabola through log(h - floor) at the peak, or None.

    ``values`` is the lag vector h as a list and ``top`` the lag of its
    peak.  The parabola c0 + c1*x + c2*x**2, in the offset x from the peak,
    is fitted by least squares over the run of lags around the peak whose
    excess h - floor is above a quarter of the peak's, each lag weighted by
    its excess, so that the noisy low lags move it least.  The fit is the
    Newton step from 0 on the weighted squared residual, the solution of
    the normal equations; ``_newton_step`` gives None when they are not
    positive definite, and the result is None as well when the run holds
    fewer than three lags.  The sums are one plain loop over the run; on a
    run of about 20 lags a numpy version of them measured no faster.
    """
    m = len(values)
    cut = 0.25 * (values[top] - floor)
    right = left = 0
    while right < m - 1 and values[(top + right + 1) % m] - floor > cut:
        right += 1
    while right - left < m - 1 and values[top + left - 1] - floor > cut:
        left -= 1
    if not cut > 0.0 or right - left < 2:
        return None
    s0 = s1 = s2 = s3 = s4 = r0 = r1 = r2 = 0.0    # sums of w*x^k and of w*log(w)*x^k
    for x in range(left, right + 1):
        w = values[(top + x) % m] - floor
        wx, wy = w * x, w * math.log(w)
        wxx = wx * x
        s0 += w
        s1 += wx
        s2 += wxx
        s3 += wxx * x
        s4 += wxx * x * x
        r0 += wy
        r1 += wy * x
        r2 += wy * x * x
    return _newton_step([r0, r1, r2], [[-s0, -s1, -s2], [-s1, -s2, -s3], [-s2, -s3, -s4]],
                        range(3))


def gps_fit(observed: np.ndarray) -> tuple[float, float, float]:
    """Recover (delta_e, d, b) of the deviation model from an observed channel.

    ``observed`` is a square grid of at least 8 cells in any memory layout;
    ``lag_distribution`` checks it and reduces it to its lag distribution h
    once (O(m^2)), and fewer than 8 lags raise DegenerateGeometry.  Every
    evaluation after that is O(m).  Start: the lag with the most mass is the
    integer shift delta_0 and the median lag the floor.  Over the run of
    lags around the peak whose excess h - floor is above a quarter of the
    peak's, a parabola is fitted to log(h - floor) by least squares, each
    lag weighted by its excess, in one plain loop over the run.  Its vertex
    gives delta, its curvature (the x^2 coefficient a) d = sqrt(-1/(2a)),
    and its height y at the vertex b = 1 - floor/(floor + e^y).  Where the
    run holds fewer than three lags or the parabola is not concave, the
    start is delta_0, the half-maximum width / 2.3548 and
    b = 1 - floor/peak.  b is 1 - 1/m where more than half the lags are
    empty and the floor reads 0: from the top of the box a step toward an
    optimum inside it only doubles 1 - b.  On an exact model channel the
    excess over the run is the Gaussian to rounding, and so is the start.

    Then bounded Newton ascent on F(delta, d, b), with the gradient and
    Hessian of ``_gps_newton_terms``, in the box delta in [delta_0 - 1,
    delta_0 + 1], d in [2, m/4] grid steps and b in [0, 1 - 1e-9].  A
    coordinate at a bound whose slope points out of the box is held there.
    The step is the Newton step on the others where -H is positive definite
    on them, else their slope over |H_ii|; it is clipped to the box, and
    1 - b is divided by at most ``BELIEF_SHRINK``; it is halved until the
    module's ``gps_objective`` on the lag vector does not fall, so no
    accepted step lowers the objective.  The fit stops when the predicted
    gain of the step or of a halved one (slope times move) is below the
    rounding of F, one ulp of 1 + |F| bits; when it moves no coordinate by
    more than 1e-10; or after ``FIT_STEPS`` steps.  A Newton step that
    clipping turned below that rounding does not stop the fit: the step is
    taken again as the scaled slope, a projected gradient step, whose
    clipped move cannot turn away from the gradient.  At the first two stops F
    can no longer rank the last step, but the gradient and Hessian that gave
    it keep their relative accuracy: the fit returns that step's full Newton
    trial, with no further evaluation, when no coordinate of it was clipped
    and its objective, if it was evaluated, fell by at most that rounding;
    otherwise the point it stepped from.  Returns (delta_hat, d_hat, b_hat).

    On an exact model channel, (delta_e, d, k/(k+c)) maximizes F.  On 400
    random ones (m in 8..256, d in [2, m/4], c = 0 or up to 0.9/m) the fit
    was within 2e-9 of delta_e, 5e-7 of d and 4e-8 of k/(k+c) (of the bound
    1 - 1e-9 where c = 0).  Over 10,400 channels of that kind (26 draws),
    0.26% of the fits ended farther: up to 2.3e-8 in delta_e and 7e-8 in b,
    6e-7 in d where c = 0 holds b at the top of its box, and 4e-6 in d
    where d nears m/4 over a high floor and F is flat in d to its rounding.
    None stopped far from the optimum.  An exact channel at m = 200 takes
    one Newton step, a sampled one about three.
    """
    import numpy as np

    lags = lag_distribution(observed)
    m = lags.shape[0]
    if m < 8:
        raise DegenerateGeometry(f"need a grid of at least 8 cells, got {m}")
    total = float(lags.sum())

    top = int(np.argmax(lags))
    anchor = top - m if top > m / 2 else top
    # the median lag; np.median would import numpy.ma, ~20 ms of a CLI process
    peak, floor = float(lags[top]), float(np.sort(lags)[(m - 1) // 2:m // 2 + 1].mean())
    fit = _log_parabola(lags.tolist(), top, floor)
    delta, height = float(anchor), peak - floor
    if fit and fit[2] < 0.0:
        vertex = min(max(-0.5 * fit[1] / fit[2], -1.0), 1.0)    # inside the box of delta
        delta, d = anchor + vertex, math.sqrt(-0.5 / fit[2])
        height = math.exp(fit[0] + vertex * (fit[1] + vertex * fit[2]))
    else:
        d = int(np.count_nonzero(lags - floor >= 0.5 * (peak - floor))) / 2.3548
    crest = floor + height
    lo, hi = (anchor - 1.0, 2.0, 0.0), (anchor + 1.0, m / 4.0, 1.0 - 1e-9)
    point = list(map(min, map(max, (delta, d, 1.0 - (floor or crest / m) / crest), lo), hi))

    value = gps_objective(lags, *point)
    for _ in range(FIT_STEPS):
        grad, hess = _gps_newton_terms(lags, total, *point)
        free = [i for i in range(3) if lo[i] < point[i] < hi[i]
                or (grad[i] > 0.0 if point[i] <= lo[i] else grad[i] < 0.0)]
        newton = _newton_step(grad, hess, free)
        slope = [grad[i] / (abs(hess[i][i]) or 1.0) if i in free else 0.0 for i in range(3)]
        step = slope
        if newton:
            step = [0.0] * 3
            for i, v in zip(free, newton):
                step[i] = v
        top = hi[:2] + (min(hi[2], 1.0 - (1.0 - point[2]) / BELIEF_SHRINK),)
        scale, rounding = 1.0, math.ulp(1.0 + abs(value)) * math.log(2.0)
        full = None    # the full Newton trial, unclipped, while F cannot rank it below point
        while True:
            target = [v + scale * t for v, t in zip(point, step)]
            trial = list(map(min, map(max, target, lo), top))
            if step is not slope and scale == 1.0 and trial == target:
                full = trial
            move = list(map(operator.sub, trial, point))
            if (not math.fsum(map(operator.mul, grad, move)) > rounding
                    or max(map(abs, move)) <= 1e-10):
                if step is slope or trial == target:
                    return tuple(full or point)
                step, scale = slope, 1.0    # clipping turned the Newton step: take the slope
                continue
            trial_value = gps_objective(lags, *trial)
            if trial_value >= value:
                break
            if scale == 1.0 and (value - trial_value) * math.log(2.0) > rounding:
                full = None
            scale *= 0.5
        point, value = trial, trial_value
    return tuple(point)
