"""Data types of the estimation layer.

``SampleSet`` (tagged evidence records), ``GpsModel`` (the discretized
position-estimator deviation model) and the ``toroidal_offset`` wrap and
``gaussian_profile`` they share with ``estimation``, which holds the
operations on them.  ``Channel`` lives in ``semantic_info``, beside the
measure that takes it.  A wrong-type alphabet raises OutOfRange from
``distributions.require_type``, records that are not a sequence of pairs
from ``distributions.require_sequence``, a wrong-type number from
``_real`` and a spread the Gaussian cannot take from ``_require_spread``.
numpy is imported inside the functions that use it, not at module load: it
is the bulk of ``import semcal``, and only the position model needs it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .distributions import (Alphabet, Frozen, require_count, require_finite, require_sequence,
                            require_type)
from .errors import DegenerateGeometry, GridTooCoarse, NegativeMass, OutOfRange, UnknownLabel

if TYPE_CHECKING:
    import numpy as np


class SampleSet(Frozen):
    """Observed (condition tag, evidence label) records."""

    alphabet: Alphabet
    records: tuple[tuple[str, str], ...]

    def __init__(self, alphabet: Alphabet, records: Sequence[tuple[str, str]]):
        require_type("alphabet", alphabet, Alphabet)
        records = [require_sequence("record", record, 2)
                   for record in require_sequence("records", records)]
        records = tuple([(str(c), str(e)) for c, e in records])
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


def _require_spread(what: str, d: float) -> None:
    """OutOfRange unless a finite spread ``d`` is positive with 2*d**2 finite.

    2*d**2 is the Gaussian's denominator; the one spread check of the
    position model and its objective.
    """
    if not d > 0:
        raise OutOfRange(f"{what} must be positive, got {d}")
    if not math.isfinite(2.0 * d * d):
        raise OutOfRange(f"{what} {d} is too large: 2*d**2 is not finite")


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
        if require_count("grid_size", grid_size) < 2:
            raise DegenerateGeometry(f"grid_size must be >= 2, got {grid_size}")
        delta_e, d, c = _real("delta_e", delta_e), _real("d", d), _real("c", c)
        require_finite("delta_e, d and c", (delta_e, d, c))
        _require_spread("standard deviation", d)
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
        """Rows P(reported | true) indexed [true, reported], each normalized.

        Row t is row 0 rotated t cells to the right, so one row of m
        exponentials is built and normalized, and the matrix is a copy of a
        window sliding over that row placed beside itself: row t is
        ``doubled[m - t : 2m - t]``.  The copy is C-contiguous, writeable and
        owns its data.
        """
        import numpy as np

        m = self.grid_size
        row = self.peak_coefficient * gaussian_profile(m, self.delta_e, self.d) + self.c
        doubled = np.tile(row / row.sum(), 2)
        return np.lib.stride_tricks.sliding_window_view(doubled[1:], m)[::-1].copy()
