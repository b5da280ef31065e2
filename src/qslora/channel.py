"""Discrete chip-rate channel: timing-offset draw and chip synthesis.

A trial is the current symbol x_cur, the symbol before it x_prev, and a
timing offset delta held constant over the current symbol. The receiver's
k-th matched-filter window then sees

    r[k] = env(x_cur)[k] * R(delta) + env(x_src)[k + s] * Rhat(delta) + noise[k]

with s = sign(delta): the window also covers a sliver of the chip one step
ahead (delta > 0) or behind (delta < 0). That chip belongs to the current
symbol except at the boundary window. For delta < 0 that is window 0, which
reads the last chip of the previous symbol. For delta > 0 it is window M-1,
which reads chip 0 of the next symbol; chip 0 of every symbol is 1/sqrt(M),
the same as the current symbol's own chip 0, so the next symbol is not
observable and the spill is the current symbol's chips rotated by one.
Symbols have unit energy, so the SNR Es/N0 enters only through the noise:
i.i.d. circularly-symmetric complex Gaussian with total variance N0 per
chip. Despreading is unitary, so that is white noise of the same N0 in every
bin, and the Monte-Carlo harness adds it there, to the closed-form despread
vector; the chip rows built here are the reference that vector is tested
against.
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


def validate_offset(delta):
    """Check chip offsets: every |delta| must be <= 0.5 chips (NaN is rejected).

    Returns a float for a scalar and a float array otherwise.
    """
    d = np.asarray(delta, dtype=float)
    bad = d[~(np.abs(d) <= 0.5)]
    if bad.size:
        raise ValueError(f"chip offset magnitude must be <= 0.5, got {bad[0]}")
    return d if d.ndim else float(d)


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
    delta: np.ndarray,
    waveform: ChipWaveform,
    sf: int,
) -> np.ndarray:
    """Noise-free received chips for a batch of trials, one row per trial.

    The spill term reads one chip ahead (delta > 0) or behind (delta < 0).
    Ahead, the boundary chip is chip 0, equal for every symbol, so the
    current symbol's chips rotate; behind, the boundary chip is the previous
    symbol's last one. Inputs are not range-checked here: symbol indices
    must lie in [0, M) and offsets in [-0.5, 0.5], as the callers' own
    types guarantee.
    """
    m = symbol_cardinality(sf)
    env = envelope_matrix(sf)
    keep = np.asarray(autocorr_overlapping(waveform, delta), dtype=float)
    spill = np.asarray(autocorr_overlapped(waveform, delta), dtype=float)
    rows = keep[:, None] * env[x_cur]
    pos = delta > 0
    if np.any(pos):
        rows[pos] += spill[pos, None] * np.roll(env[x_cur[pos]], -1, axis=1)
    neg = delta < 0
    if np.any(neg):
        src = np.roll(env[x_cur[neg]], 1, axis=1)
        src[:, 0] = env[x_prev[neg], m - 1]
        rows[neg] += spill[neg, None] * src
    return rows
