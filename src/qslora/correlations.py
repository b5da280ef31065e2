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
"""

from __future__ import annotations

import cmath

import numpy as np

from .channel import validate_offset
from .modulation import symbol_cardinality
from .waveforms import ChipWaveform, autocorr_overlapped, autocorr_overlapping

__all__ = ["analytic_decision_statistic"]


def _validate_index(x: int, m: int, name: str) -> int:
    if not 0 <= x < m:
        raise ValueError(f"{name}={x} out of range [0, {m})")
    return int(x)


def _root(p: int, m: int) -> complex:
    """w**p with w = exp(2j*pi/M), the exponent reduced mod M."""
    return cmath.exp(2j * cmath.pi * (p % m) / m)


def analytic_decision_statistic(
    x_prev: int,
    x_cur: int,
    delta: float,
    waveform: ChipWaveform,
    sf: int,
) -> np.ndarray:
    """Noise-free despread M-vector of one trial, from the three coefficients.

    x_prev only enters for delta < 0, through the boundary term c that is
    added to every candidate (see the module docstring).
    """
    m = symbol_cardinality(sf)
    x_prev = _validate_index(x_prev, m, "x_prev")
    x_cur = _validate_index(x_cur, m, "x_cur")
    validate_offset(delta)
    s = -1 if delta < 0.0 else 1
    r_spill = autocorr_overlapped(waveform, delta)
    stats = np.zeros(m, dtype=complex)
    if s < 0:
        stats += r_spill / m * (_root(1 - x_prev, m) - _root(1 - x_cur, m))
    stats[x_cur] += autocorr_overlapping(waveform, delta)
    stats[(x_cur + 2 * s) % m] += r_spill * _root(s * x_cur + 1, m)
    return stats
