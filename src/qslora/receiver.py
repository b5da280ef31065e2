"""Despreading correlator bank and noncoherent maximum-magnitude detection.

The decision statistic for candidate m is the correlation of the received
chips against envelope m:

    stats[m] = sum_k chips[k] * conj(env(m)[k])

This direct summation is the one map from chips to bins. It works along the
last axis, so a batch of trials is one (trials, M) array. The Monte-Carlo
does not call it: it draws trials in the bin domain from the closed form in
correlations, and despread is the reference that closed form is tested
against. Detection picks the smallest index maximizing |stats[m]|.
"""

from __future__ import annotations

import numpy as np

from .modulation import envelope_matrix, symbol_cardinality

__all__ = ["despread", "detect"]


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


def detect(stats: np.ndarray) -> int:
    """Index of the largest-magnitude statistic, lowest index on ties."""
    stats = np.asarray(stats)
    if stats.ndim != 1 or stats.size == 0:
        raise ValueError("decision vector must be a nonempty 1-d array")
    if not np.all(np.isfinite(stats)):
        raise ValueError("decision vector contains non-finite entries")
    return int(np.argmax(np.abs(stats)))
