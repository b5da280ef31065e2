"""The trial model: timing-offset draw, chip rows and their closed form.

A trial is the current symbol x_cur, the symbol before it x_prev, and a
timing offset delta held constant over the current symbol. The receiver's
k-th matched-filter window then sees

    r[k] = env(x_cur)[k] * R(delta) + env(x_src)[k + s] * Rhat(delta) + noise[k]

with s = sign(delta) and the pulse's partial autocorrelations
(R, Rhat) = waveforms.autocorr(delta): the window also covers a sliver of
the chip one step ahead (delta > 0) or behind (delta < 0). That chip
belongs to the current symbol except at the boundary window. For delta < 0
that is window 0, which reads the last chip of the previous symbol. For
delta > 0 it is window M-1, which reads chip 0 of the next symbol; chip 0 of
every symbol is 1/sqrt(M), the same as the current symbol's own chip 0, so
the next symbol is not observable. The chip formula, modulation._chip,
depends on k only mod M, and synthesize_chip_rows reads every other spill
as chip k + s of the current symbol.

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
i.i.d. circularly-symmetric complex Gaussian with total variance
N0 = 10^(-snr/10) per chip (noise_variance). Despreading is unitary (the
envelope rows are orthonormal), so that is white noise of the same N0 in
every bin, and the Monte-Carlo draws it there, for no more bins than the
decision needs. validate_snr holds the one SNR rule of the package: a real
number in [-300, 300] dB, so N0 lies in [1e-30, 1e30]. That spans every SNR
where an SER can change (the synchronous SER is 1 - 1/M to 3e-16 at the low
end and reads 0.0 from about 32 dB), and keeps every energy the decision
forms far from overflow.
"""

from __future__ import annotations

import numpy as np

from .modulation import _chip, _roots, symbol_cardinality, validate_int, validate_real
from .waveforms import ChipWaveform, _autocorr_pair, autocorr

__all__ = [
    "validate_snr",
    "noise_variance",
    "validate_delta_s",
    "validate_offset",
    "draw_offset",
    "synthesize_chip_rows",
    "analytic_decision_statistic",
]


def validate_snr(snr_db) -> float:
    """The one SNR rule: snr_db, in dB, is a real number with |snr_db| <= 300."""
    return validate_real(snr_db, "snr_db", -300, 300)


def noise_variance(snr_db: float) -> float:
    """Complex noise variance N0 per chip at Es/N0 = snr_db dB, by validate_snr.

    Symbols have unit energy, so N0 = 10^(-snr_db/10), in [1e-30, 1e30].
    """
    return 10.0 ** (-validate_snr(snr_db) / 10.0)


def validate_delta_s(delta_s) -> float:
    """Check an offset bound: delta_s is a real number in [0, 1] chips."""
    return validate_real(delta_s, "delta_s", 0, 1)


def validate_offset(delta, name: str = "delta", *, array: bool = False):
    """Check chip offsets, real numbers with |delta| <= 0.5 chips; arrays only if array=True."""
    return validate_real(delta, name, -0.5, 0.5, array=array)


def draw_offset(delta_s: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n timing offsets uniformly on [-delta_s/2, +delta_s/2].

    delta_s = 0 returns exact zeros without consuming the stream.
    """
    delta_s = validate_delta_s(delta_s)
    n = validate_int(n, "n", 0)
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

    Window k reads chip k of x_cur and, weighted by Rhat, chip k + s of
    x_cur, except window 0 at delta < 0, which reads x_prev's last chip.
    The inputs broadcast together, and rows add a last axis of length M.
    Symbols are checked by modulation.validate_int and offsets by
    waveforms.autocorr (real numbers, |delta| <= 1), arrays and lists too.
    """
    m = symbol_cardinality(sf)
    x_prev = np.asarray(validate_int(x_prev, "x_prev", 0, m - 1, array=True))[..., None]
    x_cur = np.asarray(validate_int(x_cur, "x_cur", 0, m - 1, array=True))[..., None]
    keep, spill = (np.asarray(r)[..., None] for r in autocorr(waveform, delta))
    back = np.asarray(delta)[..., None] < 0
    k = np.arange(m)
    src = np.where(back & (k == 0), x_prev, x_cur)
    return keep * _chip(x_cur, k, m) + spill * _chip(src, k + np.where(back, -1, 1), m)


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
    (see the module docstring). Each may be a number, an ndarray or a list.
    Raises ValueError for a symbol that is not an integer in [0, M) by
    modulation.validate_int (a bool or float is not) or an offset that is
    not a real number of magnitude <= 0.5 (validate_offset).
    """
    m = symbol_cardinality(sf)
    x_prev = np.asarray(validate_int(x_prev, "x_prev", 0, m - 1, array=True))
    x_cur = np.asarray(validate_int(x_cur, "x_cur", 0, m - 1, array=True))
    delta = validate_offset(delta, array=True)
    shape = np.broadcast_shapes(x_prev.shape, x_cur.shape, np.shape(delta))
    x_prev, x_cur, delta = (np.broadcast_to(a, shape).ravel() for a in (x_prev, x_cur, delta))
    wanted, spill, c = _coefficients(x_prev, x_cur, delta, waveform, m)
    stats = np.repeat(c[:, None], m, axis=1)
    trial = np.arange(delta.size)
    stats[trial, x_cur] += wanted
    stats[trial, (x_cur + np.where(delta < 0.0, -2, 2)) % m] += spill
    return stats.reshape(shape + (m,))
