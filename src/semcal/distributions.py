"""Finite discrete probability distributions and classical information primitives.

All information quantities are in bits (log base 2).  Negative infinity is a
first-class value: an impossible posterior yields ``-inf``, never an exception.
The convention 0*log2(0/p) = 0 is used throughout.

The argument gates of the whole package live here: ``require_finite``,
``require_unit_interval`` and ``require_count`` for numbers,
``require_type`` for objects and ``require_sequence`` for sequences.  A
wrong-type object (text where an ``Alphabet``, a ``Distribution`` or a
truth function belongs) or a sequence that is not one (a number where
masses, labels, rows or records belong) raises OutOfRange where it enters:
in the constructor that stores it or in the function that takes it, not as
an AttributeError or a TypeError further down.  A sequence of the wrong
length raises the mismatch its site names.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .errors import (
    AbsoluteContinuityViolated,
    AlphabetMismatch,
    DuplicateLabel,
    IndexMismatch,
    NegativeMass,
    NonFinite,
    NotNormalized,
    OutOfRange,
    UnknownLabel,
    ZeroPrior,
    ZeroSelectionMass,
)

#: Tolerance on |sum(probs) - 1| before a distribution is rejected.
NORMALIZATION_TOLERANCE = 1e-9


def require_finite(what: str, values) -> None:
    """Raise OutOfRange unless every value is a real number, NonFinite if one is NaN or ±inf.

    Real numbers are what ``math.isfinite`` takes, not text, None, complex
    numbers or ints beyond float range.  Range guards are comparisons, and a
    comparison with NaN is false, so constructors call this before them.
    """
    try:
        if all(map(math.isfinite, values)):
            return
    except (TypeError, OverflowError):
        raise OutOfRange(f"{what}: expected real numbers within float range, "
                         f"got {values!r}") from None
    raise NonFinite(f"{what} must be finite, got {values}")


def require_unit_interval(what: str, values) -> None:
    """``require_finite``, then OutOfRange unless every value lies in [0, 1]."""
    require_finite(what, values)
    if min(values) < 0 or max(values) > 1:
        raise OutOfRange(f"{what} must lie in [0, 1], got {values}")


def require_count(what: str, value) -> int:
    """``value`` as an int, or OutOfRange: a float (even 2.0), a bool and text are refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise OutOfRange(f"{what} must be an integer, got {value!r}")


def require_type(what: str, value, kind: type):
    """``value`` if it is an instance of ``kind``, else OutOfRange: the one wrong-type gate."""
    if isinstance(value, kind):
        return value
    raise OutOfRange(f"{what} must be a {kind.__name__}, got {value!r}")


def require_sequence(what: str, values, length: int | None = None,
                     mismatch: type = IndexMismatch) -> tuple:
    """``values`` as a tuple: the one sequence gate.

    OutOfRange when ``values`` cannot be iterated, and ``mismatch`` when
    ``length`` is given and the tuple has another length.
    """
    try:
        values = tuple(values)
    except TypeError:
        raise OutOfRange(f"{what} must be a sequence, got {values!r}") from None
    if length is not None and len(values) != length:
        raise mismatch(f"{what}: got {len(values)}, expected {length}")
    return values


def require_masses(what: str, values) -> float:
    """Return the fsum of non-empty ``values`` after checking they are probability masses.

    Raises NonFinite, then NegativeMass, then NotNormalized when the sum is
    more than ``NORMALIZATION_TOLERANCE`` from 1.
    """
    require_finite(what, values)
    if min(values) < 0:
        raise NegativeMass(f"{what} must be >= 0, got {values}")
    total = math.fsum(values)
    if abs(total - 1.0) > NORMALIZATION_TOLERANCE:
        raise NotNormalized(f"{what} sum to {total}, not 1")
    return total


def _normalized(masses: Sequence[float]) -> tuple[float, ...]:
    """Probability masses checked by ``require_masses`` and divided by their fsum.

    ``Distribution`` stores its masses this way, and the mass-pair paths
    that build no ``Distribution`` call it too.
    """
    return _divided(masses, require_masses("probabilities", masses))


def _divided(masses: Sequence[float], total: float) -> tuple[float, ...]:
    """Each mass over ``total``, their fsum: the one renormalization.

    ``_normalized`` passes masses it has checked; a caller that skips the
    check must hold masses that cannot fail it.
    """
    return tuple([float(p) / total for p in masses])


def _bayes_masses(prior: Sequence[float], row: Sequence[float]) -> list[float]:
    """Bayes' rule on masses: prior*row over its fsum, or ZeroSelectionMass if that is not > 0.

    The one Bayes' rule, shared by ``bayes_invert``, ``semantic_bayes``
    (whose row is the truth vector) and the mass-pair paths; the result is
    renormalized, as a posterior, by ``_normalized`` or ``_divided``.
    """
    joint = [p * float(v) for p, v in zip(prior, row)]
    mass = math.fsum(joint)
    if mass <= 0:
        raise ZeroSelectionMass("prior puts no mass where the channel row is positive")
    return [j / mass for j in joint]


class Frozen:
    """Base of the immutable value classes.

    A subclass declares its fields as class annotations, in order (they
    become ``_fields``), and its ``__init__`` sets them all with one
    ``self.__dict__.update(field=value, ...)``, which bypasses the refusing
    ``__setattr__``; ``Alphabet._positions`` and ``Crisp.table`` are stored
    in the same call and are not fields.  Instances are equal when they are
    of the same class with equal fields, hash on those fields, print as
    ``Name(field=value, ...)`` and refuse assignment and deletion.  Nothing
    is generated or ``exec``'d at class creation, and no module beyond the
    interpreter's start-up set is imported, which keeps a CLI process fast.
    No ``__slots__``: ``pickle`` and ``copy`` restore the instance
    ``__dict__`` directly, where a slot restore would call ``__setattr__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(Frozen):
    """An ordered finite set of evidence labels."""

    labels: tuple[str, ...]

    def __init__(self, labels: Sequence[str]):
        labels = tuple(map(str, require_sequence("alphabet labels", labels)))
        if not labels:
            raise NotNormalized("alphabet must not be empty")
        positions = {label: i for i, label in enumerate(labels)}
        if len(positions) != len(labels):
            raise DuplicateLabel(f"duplicate labels in alphabet: {labels}")
        self.__dict__.update(labels=labels, _positions=positions)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label) -> bool:
        return isinstance(label, str) and label in self._positions

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):
            raise UnknownLabel(f"label {label!r} not in alphabet {self.labels}") from None


class Distribution(Frozen):
    """A probability distribution over an :class:`Alphabet`.

    Probabilities within ``NORMALIZATION_TOLERANCE`` of summing to 1 are
    renormalized exactly at construction, so ``sum(d.probs) == 1.0`` up to
    float rounding.
    """

    alphabet: Alphabet
    probs: tuple[float, ...]

    def __init__(self, alphabet: Alphabet, probs: Sequence[float]):
        require_type("alphabet", alphabet, Alphabet)
        probs = require_sequence("probabilities", probs, len(alphabet), AlphabetMismatch)
        self.__dict__.update(alphabet=alphabet, probs=_normalized(probs))

    def __getitem__(self, label: str) -> float:
        return self.probs[self.alphabet.index(label)]


def pointwise_info(posterior_prob: float, prior_prob: float) -> float:
    """log2(posterior/prior) in bits; -inf when the posterior is 0."""
    require_finite("posterior and prior probabilities", (posterior_prob, prior_prob))
    if prior_prob <= 0:
        raise ZeroPrior(f"prior probability must be positive, got {prior_prob}")
    if posterior_prob < 0:
        raise NegativeMass(f"posterior probability must be >= 0, got {posterior_prob}")
    if posterior_prob == 0.0:
        return float("-inf")
    return math.log2(posterior_prob / prior_prob)


def _require_same_alphabet(a, b) -> None:
    """AlphabetMismatch unless a and b, Distributions or Channels, share an alphabet."""
    if a.alphabet.labels != b.alphabet.labels:
        raise AlphabetMismatch(
            f"alphabets differ: {a.alphabet.labels} vs {b.alphabet.labels}")


def _require_distributions(q, p) -> None:
    """OutOfRange unless q and p are Distributions; AlphabetMismatch if their alphabets differ."""
    require_type("first distribution", q, Distribution)
    require_type("second distribution", p, Distribution)
    _require_same_alphabet(q, p)


def _kl_bits(q: Sequence[float], p: Sequence[float]) -> float:
    """KL(q || p) in bits over two mass sequences of the same length.

    For masses that sum to 1 a negative sum can only be rounding (Gibbs'
    inequality), so it returns 0.
    """
    log2, total = math.log2, 0.0
    for qi, pi in zip(q, p):
        if qi == 0.0:
            continue
        if pi == 0.0:
            raise AbsoluteContinuityViolated(
                "q has mass where p has none; KL(q||p) is infinite")
        total += qi * log2(qi / pi)
    return total if total > 0.0 else 0.0


def kl_divergence(q: Distribution, p: Distribution) -> float:
    """Kullback-Leibler divergence KL(q || p) in bits, never negative.

    Requires p to dominate q; terms with q_i = 0 contribute nothing.
    """
    _require_distributions(q, p)
    return _kl_bits(q.probs, p.probs)


def bayes_invert(prior: Distribution, channel_row: Sequence[float]) -> Distribution:
    """Posterior P(E|h) from prior P(E) and a selecting-rule row P(h|E)."""
    require_type("prior", prior, Distribution)
    row = require_sequence("channel row", channel_row, len(prior.alphabet), AlphabetMismatch)
    require_unit_interval("channel row values", row)
    return Distribution(prior.alphabet, _bayes_masses(prior.probs, row))
