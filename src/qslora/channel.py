"""The trial model: timing-offset draw, chip rows and their closed form.

A trial is the current symbol x_cur, the symbol before it x_prev, and a
timing offset delta held constant over the current symbol. The receiver's
k-th matched-filter window then sees

    r[k] = env(x_cur)[k] * R(delta) + env(x_src)[k + s] * Rhat(delta) + noise[k]

with s = sign(delta) and the pulse's partial autocorrelations
R = autocorr_overlapping(delta) and Rhat = autocorr_overlapped(delta): the
window also covers a sliver of the chip one step ahead (delta > 0) or behind
(delta < 0). That chip belongs to the current symbol except at the boundary
window. For delta < 0 that is window 0, which reads the last chip of the
previous symbol. For delta > 0 it is window M-1, which reads chip 0 of the
next symbol; chip 0 of every symbol is 1/sqrt(M), the same as the current
symbol's own chip 0, so the next symbol is not observable and the spill is
the current symbol's chips rotated by one. synthesize_chip_rows builds these
chips.

Symbol x has chips env(x)[k] = w**(k*(x+k)) / sqrt(M) with w = exp(2j*pi/M),
so a chirp shifted by one chip is another chirp times a phase:

    env(x)[k+1] = w**(x+1) * env(x+2)[k]
    env(x)[k-1] = w**(1-x) * env(x-2)[k]

(indices mod M). Despreading the chip rows therefore leaves at most three
distinct values:

    delta >= 0: R at x_cur, Rhat * w**(x_cur+1) at x_cur+2, 0 elsewhere
    delta <  0: R at x_cur, Rhat * w**(1-x_cur) at x_cur-2, plus
                c = (Rhat/M) * (w**(1-x_prev) - w**(1-x_cur)) in every bin

R(0) = 1 and Rhat(0) = 0 make delta = 0 the Kronecker delta at x_cur; the
boundary term c is the previous symbol's last chip replacing the current
symbol's. _coefficients computes the three values; it checks nothing, and
the Monte-Carlo kernel (qslora.montecarlo) calls it on symbols and offsets
it has just drawn in range. analytic_decision_statistic, the checked entry,
spreads them over the M-vector, which the chip rows and the continuous-time
matched filter are tested against.

Symbols have unit energy, so the SNR Es/N0 enters only through the noise:
i.i.d. circularly-symmetric complex Gaussian with total variance N0 per
chip. Despreading is unitary (the envelope rows are orthonormal), so that
is white noise of the same N0 in every bin, and the Monte-Carlo draws it
there, for no more bins than the decision needs.
"""

from __future__ import annotations

import functools

import numpy as np

from .modulation import envelope_matrix, symbol_cardinality, validate_int
from .waveforms import ChipWaveform, _autocorr_pair, autocorr_overlapped, autocorr_overlapping

__all__ = [
    "validate_delta_s",
    "validate_offset",
    "draw_offset",
    "synthesize_chip_rows",
    "analytic_decision_statistic",
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


@functools.lru_cache(maxsize=None)
def _roots(m: int) -> np.ndarray:
    """The M-th roots of unity, roots[p] = w**p, computed once per M (read-only)."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    roots.flags.writeable = False
    return roots


def _coefficients(x_prev, x_cur, delta, waveform: ChipWaveform, m: int):
    """(R, Rhat * w**(s*x_cur + 1), c) of flat trial arrays; s = sign(delta).

    Bin x_cur holds R + c, bin x_cur + 2s holds the second value plus c, and
    every other bin holds c, which is formed on the delta < 0 trials only
    and is 0 elsewhere. Unchecked: symbols must be integer arrays in [0, m)
    and offsets a float array in [-0.5, 0.5].
    """
    roots, wrap = _roots(m), m - 1  # m is a power of two: p & wrap is p mod m
    wanted, r_spill = _autocorr_pair(waveform, np.abs(delta))
    back = delta < 0.0
    neg = np.flatnonzero(back)
    c = np.zeros(delta.shape, dtype=complex)
    c[neg] = r_spill[neg] / m * (roots[(1 - x_prev[neg]) & wrap] - roots[(1 - x_cur[neg]) & wrap])
    return wanted, r_spill * roots[np.where(back, 1 - x_cur, x_cur + 1) & wrap], c


def analytic_decision_statistic(
    x_prev,
    x_cur,
    delta,
    waveform: ChipWaveform,
    sf: int,
) -> np.ndarray:
    """Noise-free despread M-vector of each trial, from the three coefficients.

    x_prev, x_cur and delta broadcast against each other; the result has
    their shape plus a last axis of length M, so scalars give one (M,)
    vector and arrays of n trials an (n, M) batch. x_prev only enters for
    delta < 0, through the boundary term c that is added to every candidate
    (see the module docstring). Raises ValueError for a symbol that is not
    an integer in [0, M) by modulation.validate_int (a bool or float is not)
    or an offset magnitude above 0.5.
    """
    m = symbol_cardinality(sf)
    x_prev = np.asarray(validate_int(x_prev, "x_prev", 0, m - 1))
    x_cur = np.asarray(validate_int(x_cur, "x_cur", 0, m - 1))
    delta = validate_offset(delta)
    shape = np.broadcast_shapes(x_prev.shape, x_cur.shape, np.shape(delta))
    x_prev, x_cur, delta = (np.broadcast_to(a, shape).ravel() for a in (x_prev, x_cur, delta))
    wanted, spill, c = _coefficients(x_prev, x_cur, delta, waveform, m)
    stats = np.repeat(c[:, None], m, axis=1)
    trial = np.arange(delta.size)
    stats[trial, x_cur] += wanted
    stats[trial, (x_cur + np.where(delta < 0.0, -2, 2)) % m] += spill
    return stats.reshape(shape + (m,))
