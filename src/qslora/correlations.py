"""Closed-form noise-free despread output under a fractional-chip offset.

Symbol x has chips env(x)[k] = w**(k*(x+k)) / sqrt(M) with w = exp(2j*pi/M),
so a chirp shifted by one chip is another chirp times a phase:

    env(x)[k+1] = w**(x+1) * env(x+2)[k]
    env(x)[k-1] = w**(1-x) * env(x-2)[k]

(indices mod M), and chip 0 of every symbol is 1/sqrt(M). Despreading the
received chips of channel.synthesize_chip_rows therefore leaves at most
three distinct values, built from the pulse's partial autocorrelations
R = autocorr_overlapping(delta) and Rhat = autocorr_overlapped(delta):

    delta >= 0: R at x_cur, Rhat * w**(x_cur+1) at x_cur+2, 0 elsewhere
    delta <  0: R at x_cur, Rhat * w**(1-x_cur) at x_cur-2, plus
                c = (Rhat/M) * (w**(1-x_prev) - w**(1-x_cur)) in every bin

R(0) = 1 and Rhat(0) = 0 make delta = 0 the Kronecker delta at x_cur. The
boundary term c is the previous symbol's last chip replacing the current
symbol's; for delta > 0 the boundary window reads chip 0 of the next symbol,
which equals chip 0 of the current one, so the next symbol never appears.

Despreading is unitary (the envelope rows are orthonormal), so a noisy trial
is this vector plus M i.i.d. complex normals of variance N0. The three
coefficients exist once, in decision_coefficients. The Monte-Carlo takes
them from there and draws noise for no more bins than the decision needs
(see qslora.montecarlo); analytic_decision_statistic spreads them over the
M-vector, which the chip rows and the continuous-time matched filter are
tested against.
"""

from __future__ import annotations

import numpy as np

from .channel import validate_offset
from .modulation import symbol_cardinality
from .waveforms import ChipWaveform, autocorr_overlapped, autocorr_overlapping

__all__ = ["decision_coefficients", "analytic_decision_statistic"]


def _validate_indices(x, m: int, name: str) -> np.ndarray:
    """Symbol indices as an int array; each must be an integer in [0, M)."""
    x = np.asarray(x)
    bad = x[~((x >= 0) & (x < m) & (x % 1 == 0))]
    if bad.size:
        raise ValueError(f"{name}={bad[0]} is not an integer in [0, {m})")
    return x.astype(np.int64)


def _flat_trials(x_prev, x_cur, delta, m: int):
    """Checked trial inputs broadcast against each other, then flattened."""
    x_prev = _validate_indices(x_prev, m, "x_prev")
    x_cur = _validate_indices(x_cur, m, "x_cur")
    delta = validate_offset(delta)
    shape = np.broadcast_shapes(x_prev.shape, x_cur.shape, np.shape(delta))
    flat = (np.broadcast_to(a, shape).ravel() for a in (x_prev, x_cur, delta))
    return (shape, *flat)


def _coefficients(x_prev, x_cur, delta, waveform: ChipWaveform, m: int):
    """(R, Rhat * w**(s*x_cur + 1), c) of flat trial arrays; s = sign(delta)."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)  # roots[p] = w**p
    s = np.where(delta < 0.0, -1, 1)
    r_spill = autocorr_overlapped(waveform, delta)
    c = np.where(s < 0, r_spill / m * (roots[(1 - x_prev) % m] - roots[(1 - x_cur) % m]), 0.0)
    return autocorr_overlapping(waveform, delta), r_spill * roots[(s * x_cur + 1) % m], c


def decision_coefficients(
    x_prev,
    x_cur,
    delta,
    waveform: ChipWaveform,
    sf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three coefficients of each trial's noise-free despread vector.

    Returns (wanted, spill, boundary), each of the broadcast shape of
    x_prev, x_cur and delta: wanted = R, spill = Rhat * w**(s*x_cur + 1)
    with s = -1 for delta < 0 and +1 otherwise, and the boundary term c
    (0 unless delta < 0). Bin x_cur holds wanted + c, bin x_cur + 2s holds
    spill + c, and every other bin holds c (see the module docstring).
    """
    m = symbol_cardinality(sf)
    shape, x_prev, x_cur, delta = _flat_trials(x_prev, x_cur, delta, m)
    coefs = _coefficients(x_prev, x_cur, delta, waveform, m)
    return tuple(np.reshape(v, shape) for v in coefs)


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
    (see the module docstring and decision_coefficients).
    """
    m = symbol_cardinality(sf)
    shape, x_prev, x_cur, delta = _flat_trials(x_prev, x_cur, delta, m)
    wanted, spill, c = _coefficients(x_prev, x_cur, delta, waveform, m)
    stats = np.repeat(c[:, None], m, axis=1)
    trial = np.arange(delta.size)
    stats[trial, x_cur] += wanted
    stats[trial, (x_cur + np.where(delta < 0.0, -2, 2)) % m] += spill
    return stats.reshape(shape + (m,))
