"""Partial cross-correlations between chip-shifted symbol envelopes.

With a fractional-chip timing offset, each matched-filter window mixes the
wanted chip with a one-chip-shifted copy of the chip stream. Splitting that
shifted stream at the symbol boundary gives two correlation sums against a
candidate envelope: the in-symbol part (all shifted chips that stay inside
the current symbol) and the single boundary chip that belongs to the
adjacent symbol. Together with the waveform partial autocorrelations these
reproduce the noise-free despread output exactly.
"""

from __future__ import annotations

import numpy as np

from .channel import validate_offset
from .modulation import envelope_matrix, symbol_cardinality
from .waveforms import ChipWaveform, autocorr_overlapped, autocorr_overlapping

__all__ = [
    "cross_corr_same_symbol",
    "cross_corr_adjacent_symbol",
    "analytic_decision_statistic",
]


def _validate_shift(ell: int, allow_zero: bool) -> int:
    allowed = (-1, 0, 1) if allow_zero else (-1, 1)
    if ell not in allowed:
        raise ValueError(f"chip shift must be one of {allowed}, got {ell!r}")
    return int(ell)


def _validate_index(x: int, m: int, name: str) -> int:
    if not 0 <= x < m:
        raise ValueError(f"{name}={x} out of range [0, {m})")
    return int(x)


def cross_corr_same_symbol(mhat: int, m: int, ell: int, sf: int) -> complex:
    """In-symbol shifted correlation sum_k env(mhat)[k+ell] * conj(env(m)[k]).

    The sum runs over the chips k for which k+ell stays inside [0, M-1];
    for ell = +-1 that is M-1 terms, the remaining chip being the boundary
    term handled by cross_corr_adjacent_symbol. ell = 0 reduces to the full
    inner product, i.e. the orthonormality delta.
    """
    cap = symbol_cardinality(sf)
    _validate_shift(ell, allow_zero=True)
    _validate_index(mhat, cap, "mhat")
    _validate_index(m, cap, "m")
    mat = envelope_matrix(sf)
    k = np.arange(max(0, -ell), cap - max(0, ell))
    return complex(np.sum(mat[mhat, k + ell] * np.conj(mat[m, k])))


def cross_corr_adjacent_symbol(mhat: int, m: int, ell: int, sf: int) -> complex:
    """Boundary-chip correlation env(mhat)[(kb+ell) mod M] * conj(env(m)[kb]).

    kb is the single chip excluded from cross_corr_same_symbol (M-1 for
    ell=+1, 0 for ell=-1). Its magnitude is exactly 1/M = 2**-sf. ell = 0
    is rejected: no adjacent-symbol overlap exists when synchronous.
    """
    cap = symbol_cardinality(sf)
    _validate_shift(ell, allow_zero=False)
    _validate_index(mhat, cap, "mhat")
    _validate_index(m, cap, "m")
    mat = envelope_matrix(sf)
    kb = cap - 1 if ell == 1 else 0
    return complex(mat[mhat, (kb + ell) % cap] * np.conj(mat[m, kb]))


def analytic_decision_statistic(
    x_cur: int,
    x_adj: int,
    m: int,
    delta: float,
    waveform: ChipWaveform,
    sf: int,
) -> complex:
    """Noise-free despread output at candidate m for a given chip offset.

    x_adj is the neighbouring symbol on the side the window drifts toward
    (the next symbol for delta > 0, the previous one for delta < 0). For
    delta = 0 this collapses to kronecker(x_cur, m) (symbols have unit
    energy); otherwise the shifted chip stream contributes the in-symbol
    and boundary correlation terms, weighted by the overlapped partial
    autocorrelation of the chip pulse:

        R(delta) * kron(x_cur, m)
        + Rhat(delta) * (R_{x_cur,m}(ell) + Rhat_{x_adj,m}(ell))
    """
    cap = symbol_cardinality(sf)
    for name, val in (("x_cur", x_cur), ("x_adj", x_adj), ("m", m)):
        _validate_index(val, cap, name)
    validate_offset(delta)
    if delta == 0.0:
        return 1.0 + 0.0j if m == x_cur else 0.0j
    ell = 1 if delta > 0.0 else -1
    r_keep = autocorr_overlapping(waveform, delta)
    r_spill = autocorr_overlapped(waveform, delta)
    val = r_spill * (
        cross_corr_same_symbol(x_cur, m, ell, sf)
        + cross_corr_adjacent_symbol(x_adj, m, ell, sf)
    )
    if m == x_cur:
        val += r_keep
    return complex(val)
