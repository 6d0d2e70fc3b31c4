"""Data types of the estimation layer.

``Channel`` (a Shannon channel P(H|E)), ``SampleSet`` (tagged evidence
records), ``GpsModel`` (the discretized position-estimator deviation model)
and the ``toroidal_offset`` wrap and ``gaussian_profile`` they share with
``estimation``, which holds the operations on them.  numpy is imported
inside the functions that use it, not at module load: it is the bulk of
``import semcal``, and only the position model needs it.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Sequence

from .distributions import NORMALIZATION_TOLERANCE, Alphabet, Frozen, require_finite
from .errors import (
    DegenerateGeometry,
    DuplicateLabel,
    GridTooCoarse,
    IndexMismatch,
    NegativeMass,
    NotNormalized,
    OutOfRange,
    UnknownLabel,
)

if TYPE_CHECKING:
    import numpy as np


class Channel(Frozen):
    """A Shannon channel P(H|E): one selecting-rule row per hypothesis.

    ``matrix[j][i]`` is P(h_j | e_i).  For each fixed evidence letter the
    column over hypotheses sums to 1 within ``NORMALIZATION_TOLERANCE``;
    an individual row need not.
    """

    alphabet: Alphabet
    hypotheses: tuple[str, ...]
    matrix: tuple[tuple[float, ...], ...]

    def __init__(self, alphabet: Alphabet, hypotheses: Sequence[str],
                 matrix: Sequence[Sequence[float]]):
        hypotheses = tuple(str(h) for h in hypotheses)
        if len(set(hypotheses)) != len(hypotheses):
            raise DuplicateLabel(f"duplicate hypothesis names: {hypotheses}")
        rows = tuple(tuple(float(v) for v in row) for row in matrix)
        if len(rows) != len(hypotheses):
            raise IndexMismatch(
                f"{len(rows)} rows for {len(hypotheses)} hypotheses")
        for row in rows:
            if len(row) != len(alphabet):
                raise IndexMismatch(
                    f"row length {len(row)} != alphabet size {len(alphabet)}")
            require_finite("channel values", row)
            if any(v < 0 or v > 1 for v in row):
                raise OutOfRange(f"channel values must lie in [0,1]: {row}")
        for i in range(len(alphabet)):
            col = math.fsum(row[i] for row in rows)
            if abs(col - 1.0) > NORMALIZATION_TOLERANCE:
                raise NotNormalized(
                    f"column for {alphabet.labels[i]!r} sums to {col}, not 1")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "hypotheses", hypotheses)
        object.__setattr__(self, "matrix", rows)

    def row(self, j: int) -> tuple[float, ...]:
        return self.matrix[j]

    def hypothesis_index(self, name: str) -> int:
        try:
            return self.hypotheses.index(name)
        except ValueError:
            raise UnknownLabel(f"unknown hypothesis {name!r}") from None


class SampleSet(Frozen):
    """Observed (condition tag, evidence label) records."""

    alphabet: Alphabet
    records: tuple[tuple[str, str], ...]

    def __init__(self, alphabet: Alphabet, records: Sequence[tuple[str, str]]):
        records = tuple((str(c), str(e)) for c, e in records)
        for _, e in records:
            if e not in alphabet:
                raise UnknownLabel(f"evidence label {e!r} not in alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "records", records)

    def __len__(self) -> int:
        return len(self.records)


def _real(name: str, value) -> float:
    """``value`` as a float, or OutOfRange.

    A bool, text or other non-number is refused, and so is a number too
    large for a float, such as an int of 400 digits.
    """
    if not isinstance(value, (bool, str, bytes, bytearray)):
        try:
            return float(value)
        except OverflowError:
            raise OutOfRange(f"{name} is too large to convert to float") from None
        except (TypeError, ValueError):
            pass
    raise OutOfRange(f"{name} must be a number, got {value!r}")


def toroidal_offset(raw, size: int):
    """Wrap signed offsets on a ring of ``size`` cells into [-size/2, size/2)."""
    return (raw + size / 2) % size - size / 2


def gaussian_profile(m: int, delta: float, d: float) -> np.ndarray:
    """exp(-dist^2/2d^2) at each lag of an m-cell ring, dist measured from delta."""
    import numpy as np

    dist = toroidal_offset(np.arange(m) - delta, m)
    return np.exp(-(dist**2) / (2.0 * d**2))


class GpsModel(Frozen):
    """Discretized 1-D deviation model for a position estimator.

    The reported position given a true cell follows a Gaussian around the
    true cell shifted by a systematic deviation ``delta_e``, on top of a
    uniform long-tail floor ``c`` (probability per cell).  The grid wraps
    around, so every row of the channel has the same shape.
    """

    grid_size: int
    delta_e: float
    d: float
    c: float

    def __init__(self, grid_size: int, delta_e: float, d: float, c: float):
        try:
            operator.index(grid_size)
        except TypeError:
            raise OutOfRange(f"grid_size must be an integer, got {grid_size!r}") from None
        if isinstance(grid_size, bool):
            raise OutOfRange(f"grid_size must be an integer, got {grid_size!r}")
        if grid_size < 2:
            raise DegenerateGeometry(f"grid_size must be >= 2, got {grid_size}")
        delta_e, d, c = _real("delta_e", delta_e), _real("d", d), _real("c", c)
        require_finite("delta_e, d and c", (delta_e, d, c))
        if d <= 0:
            raise OutOfRange(f"standard deviation must be positive, got {d}")
        if d < 2.0:
            raise GridTooCoarse(f"standard deviation {d} is below 2 grid steps")
        if c < 0:
            raise NegativeMass(f"long-tail floor must be >= 0, got {c}")
        floor_mass = _real("grid_size", grid_size) * c
        if floor_mass >= 1.0:
            raise OutOfRange(f"floor mass {floor_mass} leaves no room for the peak")
        object.__setattr__(self, "grid_size", grid_size)
        object.__setattr__(self, "delta_e", delta_e)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "c", c)

    @property
    def peak_coefficient(self) -> float:
        """The k of the row model k*exp(...) + c, fixed by row normalization."""
        profile_sum = float(gaussian_profile(self.grid_size, 0.0, self.d).sum())
        return (1.0 - self.grid_size * self.c) / profile_sum

    @property
    def reference_belief(self) -> float:
        """The belief k/(k+c) that the max-normalized row corresponds to."""
        k = self.peak_coefficient
        return k / (k + self.c)

    def channel_matrix(self) -> np.ndarray:
        """Rows P(reported | true) indexed [true, reported], each normalized."""
        import numpy as np

        m = self.grid_size
        k = self.peak_coefficient
        true_idx = np.arange(m).reshape(-1, 1)
        rep_idx = np.arange(m).reshape(1, -1)
        dist = toroidal_offset(rep_idx - self.delta_e - true_idx, m)
        rows = k * np.exp(-(dist**2) / (2.0 * self.d**2)) + self.c
        return rows / rows.sum(axis=1, keepdims=True)
