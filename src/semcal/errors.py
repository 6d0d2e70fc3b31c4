"""Exception hierarchy.

Two families: validation errors (malformed inputs, exit code 1 at the CLI)
and degeneracy errors (mathematically undefined requests, exit code 2).
"""


class SemcalError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ValidationError(SemcalError):
    """Input violates a structural invariant."""

    exit_code = 1


class DegeneracyError(SemcalError):
    """Input is structurally fine but the requested quantity is undefined."""

    exit_code = 2


# -- validation ---------------------------------------------------------

class NotNormalized(ValidationError):
    pass


class NegativeMass(ValidationError):
    pass


class DuplicateLabel(ValidationError):
    """A label or hypothesis name occurs twice where names must be unique."""


class AlphabetMismatch(ValidationError):
    pass


class UnknownLabel(ValidationError):
    pass


class BeliefOutOfRange(ValidationError):
    pass


class IndexMismatch(ValidationError):
    pass


class ParseError(ValidationError):
    pass


class EmptyConditionSubset(ValidationError):
    pass


class NonFinite(ValidationError):
    """A value that must be a finite number is NaN or infinite."""


class OutOfRange(ValidationError):
    """A value lies outside its domain, or is not a real number (or an integer) at all.

    Also an object of the wrong type where a contingency table, rate spec,
    truth function, distribution, channel or sample set belongs, and a value
    that is not a sequence (it cannot be iterated) where labels, masses,
    truth values, rows, records or truth functions belong.
    """


class UnknownKind(ValidationError):
    """A string option names none of its accepted kinds."""


# -- degeneracy ---------------------------------------------------------

class ZeroPrior(DegeneracyError):
    pass


class AbsoluteContinuityViolated(DegeneracyError):
    pass


class ZeroSelectionMass(DegeneracyError):
    pass


class ZeroLogicalProbability(DegeneracyError):
    pass


class DegenerateRates(DegeneracyError):
    pass


class EmptyRow(DegeneracyError):
    pass


class EmptyColumn(DegeneracyError):
    pass


class ZeroSensitivity(DegeneracyError):
    pass


class ZeroDenominator(DegeneracyError):
    pass


class ZeroRow(DegeneracyError):
    pass


class DegenerateInput(DegeneracyError):
    pass


class DegenerateGeometry(DegeneracyError):
    pass


class GridTooCoarse(DegeneracyError):
    pass
