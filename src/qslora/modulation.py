"""Frequency-shift chirp modulation (FSCM) primitives.

A spreading factor sf in [2, 12] gives M = 2**sf symbols of sf bits
each. Symbol x is transmitted as M unit-modulus chips

    c_x[k] = (1/sqrt(M)) * exp(2j*pi * k * ((x + k) mod M) / M),  k = 0..M-1,

a discretely frequency-shifted chirp; _chip is the package's one chip formula.
The rows of the M x M chip matrix are orthonormal, which is what makes
noncoherent argmax detection work. despread, the direct-summation reference
and the matrix's one user, correlates chips with every row,
stats[m] = sum_k chips[k] * conj(env(m)[k]); the Monte-Carlo draws bins from
the closed form in channel instead, and tests compare it to despread.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "MIN_SF",
    "MAX_SF",
    "validate_int",
    "validate_real",
    "validate_sf",
    "symbol_cardinality",
    "envelope_matrix",
    "despread",
]

MIN_SF = 2
MAX_SF = 12
_FLOAT_MAX = float(np.finfo(float).max)

# the two kinds of the number rule: (noun, array dtype kinds, scalar types, result type,
# reach); |value| <= reach whatever the bounds, so a real is finite
_INTEGER = ("an integer", "iu", (int, np.integer), int, float("inf"))
_REAL = ("a real number", "iuf", (int, float, np.integer, np.floating), float, _FLOAT_MAX)


def _validate_number(value, name, low, high, array, kind):
    noun, dtype_kinds, types, result, reach = kind
    # compared as Python numbers; nan fails every bound
    bottom, top = max(low, -reach), reach if high is None else min(high, reach)
    if array and isinstance(value, (list, tuple)):
        if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat):
            raise ValueError(f"{name} must be {noun}, got {value!r}")
        value = np.asarray(value)
    if array and isinstance(value, np.ndarray):
        if value.dtype.kind not in dtype_kinds:  # bool, str, object and complex dtypes fail
            raise ValueError(f"{name} must be {noun}, got dtype {value.dtype}")
        lo, hi = (value.min().item(), value.max().item()) if value.size else (bottom, bottom)
    elif isinstance(value, types) and not isinstance(value, bool):
        lo = hi = value.item() if isinstance(value, np.generic) else value
    else:
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    if not bottom <= lo <= hi <= top:
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        finite = "finite and " if result is float else ""
        raise ValueError(f"{name} must be {finite}{span}, got {hi if bottom <= lo else lo}")
    if isinstance(value, np.ndarray):
        return value.astype(np.int64 if result is int else float, copy=False)
    return result(value)


def validate_int(value, name: str, low: int, high: int | None = None, *, array: bool = False):
    """The integer kind of the one number rule: return value as an int.

    An integer is an int or a numpy integer, never a bool, in [low, high]
    (>= low when high is None). Where the caller passes array=True, value
    may also be an integer-dtype ndarray, or a list or tuple without bool
    elements read by np.asarray, and comes back as an int64 array; elsewhere
    every ndarray fails, 0-d included. Raises ValueError naming the value.
    """
    return _validate_number(value, name, low, high, array, _INTEGER)


def validate_real(value, name: str, low: float, high: float | None = None, *, array: bool = False):
    """The real kind of the one number rule: return value as a float.

    A real is an int, a float or a numpy integer or floating scalar, never
    a bool, str, None or complex, in [low, high] (>= low when high is None)
    and finite, even where a bound is infinite; NaN fails every bound.
    Arrays as in validate_int, of integer or float dtype, come back as floats.
    """
    return _validate_number(value, name, low, high, array, _REAL)


def validate_sf(sf: int) -> int:
    """Check a spreading factor by the integer rule: an integer in [MIN_SF, MAX_SF]."""
    return validate_int(sf, "spreading factor", MIN_SF, MAX_SF)


def symbol_cardinality(sf: int) -> int:
    """Number of symbols (and chips per symbol), M = 2**sf."""
    return 1 << validate_sf(sf)


@lru_cache(maxsize=None)
def _roots(m: int) -> np.ndarray:
    """The M-th roots of unity, roots[p] = w**p, computed once per M (read-only)."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    roots.flags.writeable = False
    return roots


def _chip(x, k, m: int):
    """Chip k mod M of symbol x, w**(k*(x+k)) / sqrt(M), of ints or int64 arrays (unchecked)."""
    return _roots(m)[(k * (x + k)) & (m - 1)] / np.sqrt(m)


def envelope_matrix(sf: int) -> np.ndarray:
    """M x M chip matrix whose row x is the chip sequence of symbol x.

    Rows have unit norm. Read-only, and cached on the checked sf (4 and
    np.int64(4) share an entry). A reference that only despread reads.
    """
    return _envelope(validate_sf(sf))


@lru_cache(maxsize=4)
def _envelope(sf: int) -> np.ndarray:
    k = np.arange(1 << sf)
    mat = _chip(k[:, None], k, 1 << sf)
    mat.setflags(write=False)
    return mat


envelope_matrix.cache_info = _envelope.cache_info
envelope_matrix.cache_clear = _envelope.cache_clear


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
