"""Despreading correlator bank and noncoherent maximum-magnitude detection.

The decision statistic for candidate m is the correlation of the received
chips against envelope m:

    stats[m] = sum_k chips[k] * conj(env(m)[k])

The direct summation is the specification; because env(m)[k] factors into a
common dechirp term exp(2j*pi*k^2/M)/sqrt(M) and a pure tone exp(2j*pi*k*m/M),
the whole bank is also one FFT of the dechirped chips, which the
Monte-Carlo hot path uses. Both forms work along the last axis, so a batch
of trials is one (trials, M) array. Detection picks the smallest index
maximizing |stats[m]|.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .modulation import envelope_matrix, symbol_cardinality

__all__ = ["dechirp_vector", "despread", "despread_fft", "detect"]


@lru_cache(maxsize=8)
def dechirp_vector(sf: int) -> np.ndarray:
    """conj of the common chirp factor: d[k] = exp(-2j*pi*(k^2 mod M)/M)."""
    m = symbol_cardinality(sf)
    k = np.arange(m)
    vec = np.exp(-2j * np.pi * ((k * k) % m) / m)
    vec.setflags(write=False)
    return vec


def _check_chips(chips: np.ndarray, sf: int) -> np.ndarray:
    m = symbol_cardinality(sf)
    chips = np.asarray(chips)
    if chips.shape[-1:] != (m,):
        raise ValueError(f"chips must have last axis of length {m}, got shape {chips.shape}")
    return chips


def despread(chips: np.ndarray, sf: int) -> np.ndarray:
    """Correlate chips against every candidate envelope (direct summation)."""
    chips = _check_chips(chips, sf)
    return chips @ envelope_matrix(sf).conj().T


def despread_fft(chips: np.ndarray, sf: int) -> np.ndarray:
    """FFT form of despread: fft(chips * dechirp) / sqrt(M)."""
    chips = _check_chips(chips, sf)
    m = symbol_cardinality(sf)
    return np.fft.fft(chips * dechirp_vector(sf)) / np.sqrt(m)


def detect(stats: np.ndarray) -> int:
    """Index of the largest-magnitude statistic, lowest index on ties."""
    stats = np.asarray(stats)
    if stats.ndim != 1 or stats.size == 0:
        raise ValueError("decision vector must be a nonempty 1-d array")
    if not np.all(np.isfinite(stats)):
        raise ValueError("decision vector contains non-finite entries")
    return int(np.argmax(np.abs(stats)))
