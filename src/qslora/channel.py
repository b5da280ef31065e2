"""Discrete chip-rate channel: timing-offset draw and chip synthesis.

A trial involves three consecutive symbols (previous, current, next) and a
timing offset delta held constant over the current symbol. The receiver's
k-th matched-filter window then sees

    r[k] = env(x_cur)[k] * R(delta) + env(x_src)[k + s] * Rhat(delta) + noise[k]

with s = sign(delta): the window also covers a sliver of the chip one step
ahead (delta > 0) or behind (delta < 0). That chip belongs to the current
symbol except at the boundary window (k = M-1 for delta > 0, k = 0 for
delta < 0), where it is the first chip of the next symbol or the last chip
of the previous one. Symbols have unit energy, so the SNR Es/N0 enters
only through the noise, which the Monte-Carlo harness adds: i.i.d.
circularly-symmetric complex Gaussian with total variance N0 per chip.
"""

from __future__ import annotations

import numpy as np

from .modulation import envelope_matrix, symbol_cardinality
from .waveforms import ChipWaveform, autocorr_overlapped, autocorr_overlapping

__all__ = [
    "validate_delta_s",
    "validate_offset",
    "draw_offset",
    "synthesize_chip_rows",
]


def validate_delta_s(delta_s: float) -> float:
    """Check an offset bound: delta_s must lie in [0, 1] chips."""
    if not 0.0 <= delta_s <= 1.0:
        raise ValueError(f"delta_s must be in [0, 1], got {delta_s}")
    return float(delta_s)


def validate_offset(delta: float) -> float:
    """Check a chip offset: |delta| must be <= 0.5 chips (NaN is rejected)."""
    if not abs(delta) <= 0.5:
        raise ValueError(f"chip offset magnitude must be <= 0.5, got {delta}")
    return float(delta)


def draw_offset(delta_s: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n timing offsets uniformly on [-delta_s/2, +delta_s/2].

    delta_s = 0 returns exact zeros without consuming the stream.
    """
    validate_delta_s(delta_s)
    if delta_s == 0.0:
        return np.zeros(n)
    return rng.uniform(-0.5 * delta_s, 0.5 * delta_s, size=n)


def synthesize_chip_rows(
    x_prev: np.ndarray,
    x_cur: np.ndarray,
    x_next: np.ndarray,
    delta: np.ndarray,
    waveform: ChipWaveform,
    sf: int,
) -> np.ndarray:
    """Noise-free received chips for a batch of trials, one row per trial.

    The spill term reads one chip ahead (delta > 0) or behind (delta < 0),
    crossing into the adjacent symbol only at the boundary chip. Inputs are
    not range-checked here: symbol indices must lie in [0, M) and offsets
    in [-0.5, 0.5], as the callers' own types guarantee.
    """
    m = symbol_cardinality(sf)
    env = envelope_matrix(sf)
    keep = np.asarray(autocorr_overlapping(waveform, delta), dtype=float)
    spill = np.asarray(autocorr_overlapped(waveform, delta), dtype=float)
    rows = keep[:, None] * env[x_cur]
    pos = delta > 0
    if np.any(pos):
        src = np.empty((int(pos.sum()), m), dtype=complex)
        src[:, : m - 1] = env[x_cur[pos]][:, 1:]
        src[:, m - 1] = env[x_next[pos], 0]
        rows[pos] += spill[pos, None] * src
    neg = delta < 0
    if np.any(neg):
        src = np.empty((int(neg.sum()), m), dtype=complex)
        src[:, 1:] = env[x_cur[neg]][:, : m - 1]
        src[:, 0] = env[x_prev[neg], m - 1]
        rows[neg] += spill[neg, None] * src
    return rows
