"""Degree-of-confirmation calculus.

The degree of confirmation b* of a hypothesis is the degree of belief that
maximizes its average semantic information under the observed sampling
distribution.  For a crisp two-outcome hypothesis this has closed forms:
with prior counterexample/positive masses (P0, P1) and posterior masses
(Q0, Q1),

    Q0/Q1 <= P0/P1:  b'* = (Q0/Q1)/(P0/P1),  b* = 1 - b'*   (affirmation holds)
    Q0/Q1 >  P0/P1:  b'' = (P0/P1)/(Q0/Q1),  b* = b'' - 1   (over-asserted)

The achieved information always equals KL((Q1,Q0) || (P1,P0)) in bits, and
it is computed as that divergence on the plain mass pairs, by the one KL
routine in ``distributions``; a test reading's posterior pair comes from the
one renormalization and Bayes' rule there, with no ``Distribution`` built.
Contingency-table and sensitivity/specificity front ends reduce to these
forms, and so does the circular-error claim of a position estimator
(``gps_cep_doc``, in exact rational arithmetic); the raven-paradox
increments are the partial derivatives of b* in the table counts under a
continuous relaxation.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .distributions import (Frozen, _bayes_masses, _kl_bits, _normalized, require_count,
                            require_finite, require_masses, require_sequence,
                            require_type, require_unit_interval)
from .errors import (
    DegenerateGeometry,
    DegenerateInput,
    DegenerateRates,
    EmptyColumn,
    EmptyRow,
    NegativeMass,
    UnknownKind,
    ZeroDenominator,
    ZeroSensitivity,
)

if TYPE_CHECKING:
    from fractions import Fraction


class DocCase(str, Enum):
    PROPER_AFFIRMATION = "proper-affirmation"
    EXCESSIVE_AFFIRMATION = "excessive-affirmation"
    PROPER_NEGATION = "proper-negation"
    EXCESSIVE_NEGATION = "excessive-negation"


class DocResult(Frozen):
    """An optimized degree of belief and the information it achieves.

    ``b_star`` and ``b_prime_star`` are ``Fraction`` when the rates were
    (as from ``gps_cep_doc``), so exact inputs give exact beliefs.
    """

    b_star: float | Fraction
    b_prime_star: float | Fraction
    case: DocCase
    information_bits: Optional[float]

    def __init__(self, b_star: float | Fraction, b_prime_star: float | Fraction, case: DocCase,
                 information_bits: Optional[float] = None):
        object.__setattr__(self, "b_star", b_star)
        object.__setattr__(self, "b_prime_star", b_prime_star)
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "information_bits", information_bits)


class RateSpec(Frozen):
    """Prior and posterior (counterexample, positive-example) mass pairs."""

    prior: tuple[float, float]       # (P0, P1)
    posterior: tuple[float, float]   # (Q0, Q1)

    def __init__(self, prior: tuple[float, float], posterior: tuple[float, float]):
        prior = require_sequence("prior masses", prior, 2)
        require_masses("prior masses", prior)
        posterior = require_sequence("posterior masses", posterior, 2)
        require_masses("posterior masses", posterior)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "posterior", posterior)


class ContingencyTable(Frozen):
    """2x2 counts: n11 positive examples, n10 counterexamples of s1 -> s2."""

    n11: float
    n10: float
    n01: float
    n00: float

    def __init__(self, n11: float, n10: float, n01: float, n00: float):
        counts = (n11, n10, n01, n00)
        require_finite("counts", counts)
        if min(counts) < 0:
            raise NegativeMass(f"counts must be >= 0: {counts}")
        if sum(counts) <= 0:
            raise EmptyRow("contingency table is empty")
        object.__setattr__(self, "n11", n11)
        object.__setattr__(self, "n10", n10)
        object.__setattr__(self, "n01", n01)
        object.__setattr__(self, "n00", n00)


def doc_from_ratio(counter_rate, positive_rate) -> tuple[float, float, DocCase]:
    """(b*, b'*, case) from the hypothesis's two selection rates.

    The rates are those at which counterexamples and positive examples
    select the hypothesis, up to a common factor.  b'* = counter/positive
    when that ratio is at most 1 (proper affirmation, b* = 1 - b'*);
    otherwise b'' = positive/counter and b* = b'' - 1 (excessive
    affirmation).  A zero positive rate is the limit b* = -1, even when the
    counter rate is zero too.  Plain arithmetic, so Fraction rates give
    exact results.
    """
    if positive_rate > 0 and counter_rate <= positive_rate:
        b_prime = counter_rate / positive_rate
        return 1 - b_prime, b_prime, DocCase.PROPER_AFFIRMATION
    b_pp = positive_rate / counter_rate if counter_rate else positive_rate
    return b_pp - 1, b_pp, DocCase.EXCESSIVE_AFFIRMATION


def doc_from_rates(spec: RateSpec, hypothesis: str = "affirmative") -> DocResult:
    """Closed-form degree of confirmation from mass pairs.

    ``hypothesis="affirmative"`` confirms the hypothesis whose positive
    examples carry the (P1, Q1) masses; ``"denial"`` confirms its negation,
    whose belief is the sign-flipped one (excessive negation mirrors proper
    affirmation and vice versa).
    """
    require_type("spec", spec, RateSpec)
    if hypothesis not in ("affirmative", "denial"):
        raise UnknownKind(f"unknown hypothesis kind {hypothesis!r}")
    b, b_prime, case, bits = _doc_from_masses(spec.prior, spec.posterior)
    if hypothesis == "denial":
        b = -b
        case = (DocCase.EXCESSIVE_NEGATION if case is DocCase.PROPER_AFFIRMATION
                else DocCase.PROPER_NEGATION)
    return DocResult(b, b_prime, case, bits)


def _doc_from_masses(prior, posterior) -> tuple:
    """(b*, b'*, case, bits) of the affirmative hypothesis from checked mass pairs."""
    p0, p1 = prior
    q0, q1 = posterior
    if p0 == 0.0 or p1 == 0.0:
        raise DegenerateRates(f"prior masses {prior} leave counterexamples or positive "
                              "examples without mass, so the belief is undefined")
    # Selection rates up to a common factor: Q0/P0 and Q1/P1, cross-multiplied
    # so that Q0/Q1 <= P0/P1 is the proper branch (safe for zero masses).
    return (*doc_from_ratio(q0 * p1, q1 * p0), _kl_bits(posterior, prior))


def _doc_from_counts(n11, n10, n01, n00) -> tuple:
    """(b*, b'*, case, bits) of s1 -> s2 from 2x2 counts, summed in argument order.

    Its contrapositive is this step on (n00, n10, n01, n11).  A float total
    beyond float range raises DegenerateInput.
    """
    if n11 + n10 <= 0:
        raise EmptyRow("no evidence with the antecedent s1")
    if n11 + n01 <= 0:
        raise EmptyColumn("no positive-example column mass")
    if n00 + n10 <= 0:
        raise EmptyColumn("no counterexample column mass")
    n = n11 + n10 + n01 + n00
    if n == math.inf:
        raise DegenerateInput(f"counts {(n11, n10, n01, n00)} sum beyond float range")
    row = n11 + n10
    return _doc_from_masses(((n10 + n00) / n, (n11 + n01) / n), (n10 / row, n11 / row))


def doc_h1_from_table(t: ContingencyTable) -> DocResult:
    """Degree of confirmation of s1 -> s2 from 2x2 counts."""
    require_type("table", t, ContingencyTable)
    return DocResult(*_doc_from_counts(t.n11, t.n10, t.n01, t.n00))


def doc_h2_from_table(t: ContingencyTable) -> DocResult:
    """Degree of confirmation of the contrapositive not-s2 -> not-s1.

    Generally differs from :func:`doc_h1_from_table`: the calculus denies
    the equivalence condition because the two inferences trade the same
    counterexamples against different positive examples.
    """
    require_type("table", t, ContingencyTable)
    return DocResult(*_doc_from_counts(t.n00, t.n10, t.n01, t.n11))


def doc_from_test(sensitivity: float, specificity: float,
                  prior_positive: float | None = None) -> tuple[DocResult, DocResult]:
    """Degrees of confirmation of a diagnostic test's "+" and "-" readings.

    b+* = 1 - (1 - specificity)/sensitivity and b-* = 1 - (1 - sensitivity)/
    specificity; both are prior-free.  When ``prior_positive`` (the disease
    base rate) is supplied, each result carries the average information of
    the reading, which does depend on the prior: KL(P(e|reading) || P(e)) over
    the (disease, no disease) pair, where P(e|reading) is Bayes' rule on the
    prior and the reading's (P(reading|e1), P(reading|e0)) row.  It works on
    the mass pairs with the helpers that ``Distribution`` and ``bayes_invert``
    use, so its bits are those of ``kl_divergence(bayes_invert(prior, row),
    prior)``, and a reading no case can give raises ZeroSelectionMass.
    """
    require_unit_interval("sensitivity and specificity", (sensitivity, specificity))
    if sensitivity == 0.0:
        raise ZeroSensitivity("sensitivity is 0: the test never reads positive")

    positive = doc_from_ratio(counter_rate=1.0 - specificity, positive_rate=sensitivity)
    negative = doc_from_ratio(counter_rate=1.0 - sensitivity, positive_rate=specificity)

    if prior_positive is None:
        return DocResult(*positive), DocResult(*negative)
    require_unit_interval("prior_positive", (prior_positive,))
    prior = _normalized((prior_positive, 1.0 - prior_positive))
    pos_sampling = _normalized(_bayes_masses(prior, (sensitivity, 1.0 - specificity)))
    neg_sampling = _normalized(_bayes_masses(prior, (1.0 - sensitivity, specificity)))
    return (DocResult(*positive, _kl_bits(pos_sampling, prior)),
            DocResult(*negative, _kl_bits(neg_sampling, prior)))


def gps_cep_doc(cep_fraction, in_circle_cells: int, total_cells: int) -> DocResult:
    """Degree of confirmation of "the device is inside the stated circle".

    Uses exact rational arithmetic: with hit probability f spread over n
    cells against (1-f) over the N-n outside cells, b'* is the density
    ratio p_outside/p_inside.  ``fractions`` is imported here, so that
    ``semcal doc`` does not load it.
    """
    from fractions import Fraction

    n = require_count("in_circle_cells", in_circle_cells)
    N = require_count("total_cells", total_cells)
    if n <= 0 or N <= n:
        raise DegenerateGeometry(f"need 0 < n < N, got n={n}, N={N}")
    require_finite("cep fraction", (cep_fraction,))
    try:
        f = Fraction(cep_fraction)
    except TypeError:   # a numpy float32 or float16, which Fraction does not take
        f = Fraction(float(cep_fraction))
    if not 0 < f < 1:
        raise DegenerateGeometry(f"cep fraction must lie in (0,1), got {f}")
    return DocResult(*doc_from_ratio(counter_rate=(1 - f) / (N - n), positive_rate=f / n))


def predicted_probability(p_e1: float, b_prime_star: float) -> float:
    """Probability of a positive case predicted from the confirmed hypothesis.

    P(e1 | h^b*) = P(e1) / (P(e1) + b'* (1 - P(e1))).
    """
    require_unit_interval("p_e1 and b_prime_star", (p_e1, b_prime_star))
    denom = p_e1 + b_prime_star * (1.0 - p_e1)
    if denom == 0.0:
        raise ZeroDenominator("both p_e1 and b_prime_star are zero")
    return p_e1 / denom


def raven_increments(t: ContingencyTable) -> tuple[float, float]:
    """How much one more positive example of each kind raises b* of s1 -> s2.

    Returns (db*/dn11, db*/dn00) under the continuous relaxation of counts,
    each from the share n10/(n00 + n10) <= 1 so that no product of counts
    overflows.  Where a sum of two counts overflows, both sums are taken of
    the halved counts (``math.ldexp``, exact but for subnormal counts): each
    enters as a ratio to a count or to the other sum, so the results keep
    their scale.  A derivative beyond float range raises DegenerateInput.
    """
    require_type("table", t, ContingencyTable)
    if t.n11 <= 0:
        raise EmptyRow("derivatives need n11 > 0")
    counter, positive = t.n00 + t.n10, t.n01 + t.n11
    if counter <= 0:
        raise EmptyRow("derivatives need n00 + n10 > 0")
    n10 = t.n10
    if counter == math.inf or positive == math.inf:
        n10 = math.ldexp(n10, -1)
        counter = math.ldexp(t.n00, -1) + n10
        positive = math.ldexp(t.n01, -1) + math.ldexp(t.n11, -1)
    share = n10 / counter
    d_n11 = share * t.n01 / t.n11 / t.n11
    d_n00 = share * positive / t.n11 / counter
    if not (math.isfinite(d_n11) and math.isfinite(d_n00)):
        raise DegenerateInput(f"raven increments of {t} overflow float arithmetic")
    return d_n11, d_n00
