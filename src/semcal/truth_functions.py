"""Fuzzy truth functions: conditional logical probability and its algebra.

A truth function maps each piece of evidence to a truth value in [0, 1].
The key constructions are logical probability (the prior-weighted average
truth value), the semantic Bayes prediction, Zadeh negation, and belief
adjustment, which mixes a hypothesis with the tautology (positive belief)
or suppresses it toward its negation structure (negative belief):

    belief b >= 0:  (1 - b) + b * t(e)
    belief b <  0:  (1 - |b|) + |b| * (1 - t(e))   (= 1 + b * t(e))
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from collections.abc import Mapping
from typing import Sequence

from .distributions import (Alphabet, Distribution, Frozen, _bayes_masses, require_finite,
                            require_sequence, require_type, require_unit_interval)
from .errors import (
    AlphabetMismatch,
    BeliefOutOfRange,
    OutOfRange,
    UnknownLabel,
    ZeroLogicalProbability,
)


#: Smallest logical probability accepted short of an exact contradiction.
CONTRADICTION_FLOOR = 1e-12


class TruthFunction(ABC):
    """Mapping evidence -> truth value in [0, 1]."""

    @abstractmethod
    def value(self, e) -> float:
        """Truth value at evidence ``e`` (a label, or a real for Gaussian)."""

    def values(self, alphabet: Alphabet) -> tuple[float, ...]:
        """The truth vector over ``alphabet``: every measure evaluates through this."""
        return tuple(self.value(label) for label in require_type("alphabet", alphabet, Alphabet))


class Gaussian(TruthFunction, Frozen):
    """Bell-shaped truth function of a numeric estimation "E is about center".

    Evaluates on real numbers directly.  For discrete labels, ``positions``
    supplies the real value associated with each label; without it, labels
    that parse as floats are used as their own positions.
    """

    center: float
    stddev: float
    positions: Mapping[str, float] | None

    def __init__(self, center: float, stddev: float,
                 positions: Mapping[str, float] | None = None):
        if positions is not None:
            require_type("positions", positions, Mapping)
        require_finite("center, stddev, positions", (center, stddev, *(positions or {}).values()))
        if stddev <= 0:
            raise OutOfRange(f"stddev must be positive, got {stddev}")
        self.__dict__.update(center=center, stddev=stddev, positions=positions)

    def _position(self, e) -> float:
        try:
            x = float((self.positions or {}).get(e, e))
        except (TypeError, ValueError):
            raise UnknownLabel(f"no numeric position for label {e!r}") from None
        except OverflowError:    # an int beyond float range
            raise OutOfRange(f"evidence position {e!r} is beyond float range") from None
        require_finite("evidence position", (x,))
        return x

    # z*z overflows to inf and exp(-inf) is 0.0, so no spread or distance raises
    def value(self, e) -> float:
        z = (self._position(e) - self.center) / self.stddev
        return math.exp(-0.5 * z * z)


class Tabular(TruthFunction, Frozen):
    """Truth function given explicitly per label."""

    alphabet: Alphabet
    table: tuple[float, ...]

    def __init__(self, alphabet: Alphabet, table: Sequence[float]):
        require_type("alphabet", alphabet, Alphabet)
        table = require_sequence("truth values", table, len(alphabet), AlphabetMismatch)
        require_unit_interval("truth values", table)
        self.__dict__.update(alphabet=alphabet, table=tuple(map(float, table)))

    def value(self, e) -> float:
        return self.table[self.alphabet.index(e)]

    # the identity test first: the belief solve passes the table's own alphabet
    def values(self, alphabet: Alphabet) -> tuple[float, ...]:
        if (alphabet is self.alphabet
                or require_type("alphabet", alphabet, Alphabet).labels == self.alphabet.labels):
            return self.table
        return super().values(alphabet)


class Crisp(Tabular):
    """Classical (0/1) truth function of a subset of the alphabet.

    A ``Tabular`` whose ``table``, the 0/1 vector, is built once here.
    """

    alphabet: Alphabet
    positive_set: frozenset

    def __init__(self, alphabet: Alphabet, positive_set):
        require_type("alphabet", alphabet, Alphabet)
        positive_set = frozenset(require_sequence("positive set", positive_set))
        for label in positive_set:
            if label not in alphabet:
                raise UnknownLabel(f"{label!r} not in alphabet {alphabet.labels}")
        self.__dict__.update(alphabet=alphabet, positive_set=positive_set, table=tuple(
            [1.0 if label in positive_set else 0.0 for label in alphabet.labels]))


class BeliefAdjusted(TruthFunction, Frozen):
    """A base hypothesis softened (b >= 0) or inverted (b < 0) by a belief."""

    base: TruthFunction
    belief: float

    def __init__(self, base: TruthFunction, belief: float):
        require_type("base", base, TruthFunction)
        require_finite("belief", (belief,))
        if not -1.0 <= belief <= 1.0:
            raise BeliefOutOfRange(f"belief must lie in [-1,1], got {belief}")
        self.__dict__.update(base=base, belief=float(belief))

    # A negative belief -c is the belief c in the complement 1 - t: written
    # (1 - c) + c*(1 - t), not 1 - c*t, it keeps its relative accuracy where
    # c and t are both near 1, and equals 1 - t exactly at c = 1.
    def value(self, e) -> float:
        b, t = self.belief, self.base.value(e)
        if b < 0:
            b, t = -b, 1.0 - t
        return (1.0 - b) + b * t

    def values(self, alphabet: Alphabet) -> tuple[float, ...]:
        b, truth = self.belief, self.base.values(alphabet)
        if b < 0:
            offset, c = 1.0 + b, -b
            return tuple([offset + c * (1.0 - t) for t in truth])
        offset = 1.0 - b
        return tuple([offset + b * t for t in truth])


def tautology(alphabet: Alphabet) -> TruthFunction:
    return Tabular(alphabet, (1.0,) * len(alphabet))


def contradiction(alphabet: Alphabet) -> TruthFunction:
    return Tabular(alphabet, (0.0,) * len(alphabet))


def negate(tf: TruthFunction) -> TruthFunction:
    """Pointwise complement; crisp and tabular forms stay in their own class.

    Any other ``tf`` is complemented as the belief -1 in it, which is 1 - t
    exactly, and that complement's complement is ``tf`` itself.
    """
    if isinstance(tf, Crisp):
        complement = frozenset(tf.alphabet.labels) - tf.positive_set
        return Crisp(tf.alphabet, complement)
    if isinstance(tf, Tabular):
        return Tabular(tf.alphabet, tuple(1.0 - v for v in tf.table))
    if isinstance(tf, BeliefAdjusted) and tf.belief == -1.0:
        return tf.base
    return BeliefAdjusted(tf, -1.0)


def belief_adjust(tf: TruthFunction, b: float) -> TruthFunction:
    """Attach a degree of belief b in [-1, 1] to ``tf``."""
    return BeliefAdjusted(tf, b)


def logical_probability(tf: TruthFunction, prior: Distribution) -> float:
    """Prior-weighted average truth value (Zadeh's fuzzy-event probability).

    0.0 for an exact contradiction; otherwise the value of
    ``truth_and_logical_probability``, which raises ZeroLogicalProbability
    below ``CONTRADICTION_FLOOR``.
    """
    _, lp = truth_and_logical_probability(tf, prior)
    return 0.0 if lp is None else lp


def truth_and_logical_probability(tf: TruthFunction, prior: Distribution
                                  ) -> tuple[tuple[float, ...], float | None]:
    """The truth vector of ``tf`` over the prior's alphabet and its logical probability.

    The logical probability is None for an exact contradiction (every truth
    value 0).  Short of that, one below ``CONTRADICTION_FLOOR`` raises
    ZeroLogicalProbability: alongside positive truth values it marks a
    degenerate prior, not a contradiction.
    """
    require_type("truth function", tf, TruthFunction)
    require_type("prior", prior, Distribution)
    truth = tf.values(prior.alphabet)
    if max(truth) == 0.0:
        return truth, None
    lp = math.fsum(map(operator.mul, prior.probs, truth))
    if lp < CONTRADICTION_FLOOR:
        raise ZeroLogicalProbability(
            f"logical probability {lp} is vanishingly small but not an exact contradiction")
    return truth, lp


def semantic_bayes(prior: Distribution, tf: TruthFunction) -> Distribution:
    """Likelihood prediction P(E | "tf is true").

    P(e_i | A) = P(e_i) t(e_i) / T(A), where T(A) is the logical probability:
    Bayes' rule (``distributions._bayes_masses``) with the truth vector as
    the likelihood row.  The mass that rule divides by is T(A), summed by
    the same ``fsum``, so it is at least ``CONTRADICTION_FLOOR`` here.
    """
    truth, lp = truth_and_logical_probability(tf, prior)
    if lp is None:
        raise ZeroLogicalProbability("truth function is a contradiction")
    return Distribution(prior.alphabet, _bayes_masses(prior.probs, truth))
