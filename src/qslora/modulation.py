"""Frequency-shift chirp modulation (FSCM) primitives.

A spreading factor sf in [2, 12] maps sf-bit words to one of M = 2**sf
symbols. Symbol x is transmitted as M unit-modulus chips

    c_x[k] = (1/sqrt(M)) * exp(2j*pi * k * ((x + k) mod M) / M),  k = 0..M-1,

a discretely frequency-shifted chirp. The rows of the resulting M x M chip
matrix are orthonormal, which is what makes noncoherent argmax detection
work. despread, the one map from chips to bins, correlates chips with every
row, stats[m] = sum_k chips[k] * conj(env(m)[k]); the Monte-Carlo draws bins
from the closed form in correlations instead, and tests compare it to despread.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "MIN_SF",
    "MAX_SF",
    "validate_sf",
    "symbol_cardinality",
    "word_to_sample",
    "sample_to_word",
    "envelope_matrix",
    "despread",
]

MIN_SF = 2
MAX_SF = 12


def validate_sf(sf: int) -> int:
    if not isinstance(sf, (int, np.integer)) or isinstance(sf, bool):
        raise ValueError(f"spreading factor must be an integer, got {sf!r}")
    if not MIN_SF <= sf <= MAX_SF:
        raise ValueError(f"spreading factor must be in [{MIN_SF}, {MAX_SF}], got {sf}")
    return int(sf)


def symbol_cardinality(sf: int) -> int:
    """Number of symbols (and chips per symbol), M = 2**sf."""
    return 1 << validate_sf(sf)


def word_to_sample(word: tuple[int, ...], sf: int) -> int:
    """Map an sf-bit word (LSB first) to its symbol index."""
    validate_sf(sf)
    if len(word) != sf:
        raise ValueError(f"word length {len(word)} does not match sf={sf}")
    if any(bit not in (0, 1) for bit in word):
        raise ValueError(f"word must contain only bits 0/1, got {word!r}")
    return sum(bit << i for i, bit in enumerate(word))


def sample_to_word(index: int, sf: int) -> tuple[int, ...]:
    """Inverse of word_to_sample: symbol index to sf-bit word, LSB first."""
    m = symbol_cardinality(sf)
    if not 0 <= index < m:
        raise ValueError(f"symbol index {index} out of range [0, {m})")
    return tuple((index >> i) & 1 for i in range(sf))


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
