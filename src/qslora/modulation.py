"""Frequency-shift chirp modulation (FSCM) primitives.

A spreading factor sf in [2, 12] gives M = 2**sf symbols of sf bits
each. Symbol x is transmitted as M unit-modulus chips

    c_x[k] = (1/sqrt(M)) * exp(2j*pi * k * ((x + k) mod M) / M),  k = 0..M-1,

a discretely frequency-shifted chirp. The rows of the resulting M x M chip
matrix are orthonormal, which is what makes noncoherent argmax detection
work. despread, the one map from chips to bins, correlates chips with every
row, stats[m] = sum_k chips[k] * conj(env(m)[k]); the Monte-Carlo draws bins
from the closed form in channel instead, and tests compare it to despread.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "MIN_SF",
    "MAX_SF",
    "validate_int",
    "validate_sf",
    "symbol_cardinality",
    "envelope_matrix",
    "despread",
]

MIN_SF = 2
MAX_SF = 12


def validate_int(value, name: str, low: int, high: int | None = None):
    """The one integer rule: check value, return it as an int or int64 array.

    A scalar must be an int or a numpy integer, never a bool; an ndarray
    must have an integer dtype. A list or tuple is read as np.asarray reads
    it, but a bool element fails as a bare bool does, although np.asarray
    would turn [True, 2] into integers. Every value must lie in [low, high],
    or be >= low when high is None. Raises ValueError naming the value
    otherwise.
    """
    if isinstance(value, (list, tuple)):
        if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = np.asarray(value)
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iu":  # signed or unsigned integer dtype
            raise ValueError(f"{name} must be an integer, got dtype {value.dtype}")
        lo, hi = (value.min(), value.max()) if value.size else (low, low)
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        lo = hi = value
    else:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if lo < low or (high is not None and hi > high):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {span}, got {lo if lo < low else hi}")
    return value.astype(np.int64, copy=False) if isinstance(value, np.ndarray) else int(value)


def validate_sf(sf: int) -> int:
    """Check a spreading factor by the integer rule: an integer in [MIN_SF, MAX_SF]."""
    return validate_int(sf, "spreading factor", MIN_SF, MAX_SF)


def symbol_cardinality(sf: int) -> int:
    """Number of symbols (and chips per symbol), M = 2**sf."""
    return 1 << validate_sf(sf)


@lru_cache(maxsize=4)
def envelope_matrix(sf: int) -> np.ndarray:
    """M x M chip matrix whose row x is the chip sequence of symbol x.

    Rows have unit norm. The integer phase k*((x+k) mod M) is reduced mod M
    in place, in one integer array, and then indexes a table of the M
    scaled roots of unity, so the exponential's argument stays below 2*pi
    and building the matrix needs about 1.5x its own size. Cached and
    read-only.
    """
    m = symbol_cardinality(sf)
    k = np.arange(m)
    phase = k[:, None] + k
    phase %= m
    phase *= k
    phase %= m
    mat = (np.exp(2j * np.pi * k / m) / np.sqrt(m))[phase]
    mat.setflags(write=False)
    return mat


def despread(chips: np.ndarray, sf: int) -> np.ndarray:
    """Correlate chips against every candidate envelope (direct summation).

    Computed as conj(conj(chips) @ env.T), so only the chips are conjugated,
    never the cached M x M matrix.
    """
    m = symbol_cardinality(sf)
    chips = np.asarray(chips)
    if chips.shape[-1:] != (m,):
        raise ValueError(f"chips must have last axis of length {m}, got shape {chips.shape}")
    return np.conj(np.conj(chips) @ envelope_matrix(sf).T)
