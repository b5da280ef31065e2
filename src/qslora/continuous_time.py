"""Continuous-time reference model and matched-filter oracle.

This is the slow path that certifies the chip-rate model: it represents the
transmitted baseband signal

    s(t) = sum_n sum_k env(x(n))[k] * psi(t - n*T - k*Tc)

with T = M*Tc and Tc = 1 (symbol n occupies [n*T, (n+1)*T) and has unit
energy), then matched-filters it at receiver windows shifted by a
fractional chip offset. Chip samples obtained this way must agree with
synthesize_chip_rows to certify the discrete decomposition.

Integration uses one fixed 20-node Gauss-Legendre rule per piece, with the
pieces split at the signal's chip boundaries (its only non-smooth points):
each piece's integrand is then a constant (rect) or a trig polynomial (rc)
on at most one chip, which the rule integrates exactly to rounding. The
integrand is evaluated exactly from the generating symbols, each chip read
from modulation's one chip formula, so neither a sampled copy of s(t) nor a
chip matrix is kept.

One unchecked core serves a batch of signals of equal length, an int64
(B, L) array of symbols, each on its own time axis from t = 0: _value
evaluates s(t) of a named row, and _matched_filter integrates any number
of windows, each naming its row, symbol n, chip k and offset delta, in one
quadrature call through one integrand: the filter of the window starting
at K + delta is psi(t - K - delta), and K = floor(t - delta) at every node
inside it. ContinuousSignal.value_at and matched_filter_chip are its
one-signal case, behind the number rule; certify_discrete_model calls it
once per block of trials (see there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import draw_offset, synthesize_chip_rows, validate_offset
from .modulation import _chip, symbol_cardinality, validate_int, validate_real, validate_sf
from .quadrature import integrate
from .waveforms import ChipWaveform, sample_waveform

__all__ = ["ContinuousSignal", "synthesize", "matched_filter_chip", "certify_discrete_model"]

# windows per matched-filter call in certify_discrete_model: a block of
# whole trials holds at most this many, or one trial where M is larger
_BLOCK_WINDOWS = 256


@dataclass(frozen=True)
class ContinuousSignal:
    """A baseband signal spanning len(symbols) * M chips from t = 0.

    The generating metadata allows exact evaluation at arbitrary instants
    via value_at. Construction checks sf and every symbol by the integer
    rule (modulation.validate_int): at least one symbol, each an integer in
    [0, M), never a bool or a float; both are stored as ints.
    """

    symbols: tuple[int, ...]
    sf: int
    waveform: ChipWaveform

    def __post_init__(self) -> None:
        object.__setattr__(self, "sf", validate_sf(self.sf))
        if len(self.symbols) == 0:
            raise ValueError("need at least one symbol")
        m = 1 << self.sf
        symbols = tuple(validate_int(s, "symbol", 0, m - 1) for s in self.symbols)
        object.__setattr__(self, "symbols", symbols)

    @property
    def span(self) -> tuple[float, float]:
        return 0.0, float(len(self.symbols) * symbol_cardinality(self.sf))

    def value_at(self, t: np.ndarray | float) -> np.ndarray:
        """Exact s(t) at finite times t (validate_real, arrays too), zero outside the span."""
        t = np.asarray(validate_real(t, "t", -np.inf, np.inf, array=True))
        # a complex scalar for a scalar t
        return _value(np.array([self.symbols]), 1 << self.sf, self.waveform, 0, t)[()]


def _value(symbols: np.ndarray, m: int, waveform: ChipWaveform, row, t: np.ndarray) -> np.ndarray:
    """s(t) of signal row of a batch, zero outside [0, L*M); row broadcasts with t.

    Unchecked: symbols is an int64 (B, L) array of symbols in [0, m), row
    indexes its rows and t is finite.
    """
    inside = (t >= 0.0) & (t < symbols.shape[1] * m)
    t = np.where(inside, t, 0.0)  # before the cast: a time past int64 has no chip index
    chip = np.floor(t).astype(np.int64)
    chips = _chip(symbols[row, chip // m], chip & (m - 1), m) * sample_waveform(waveform, t - chip)
    return np.where(inside, chips, 0j)


def _matched_filter(
    symbols: np.ndarray, m: int, waveform: ChipWaveform, row, n, k, delta
) -> np.ndarray:
    """Matched-filter output of each window (row, n, k, delta) of a batch of signals.

    The window of chip k of symbol n at offset delta on signal row spans
    [n*M + k + delta, n*M + k + 1 + delta] of that row's own time axis.
    row, n, k and delta broadcast together, and every window's pieces go
    to one quadrature call; the result is a complex array of their shape.
    Each window's value depends on its own row only. Unchecked: the
    windows must lie inside [0, L*M) and delta be finite.
    """
    shape = np.broadcast_shapes(np.shape(row), np.shape(n), np.shape(k), np.shape(delta))
    a = np.broadcast_to(n * m + k + delta, shape).ravel()
    row, delta = (np.broadcast_to(v, shape).ravel() for v in (row, delta))
    b = a + 1.0
    # Split at the signal's chip boundary: a unit window that does not start
    # on one holds exactly one, c.
    c = np.floor(a) + 1.0
    split = c < b
    piece_row = np.concatenate((row, row[split]))[:, None]
    piece_delta = np.concatenate((delta, delta[split]))[:, None]

    def integrand(t: np.ndarray) -> np.ndarray:
        # a node strictly inside the window starting at K + delta has
        # floor(t - delta) = K, so one integrand serves every window
        shift = t - (np.floor(t - piece_delta) + piece_delta)
        return _value(symbols, m, waveform, piece_row, t) * sample_waveform(waveform, shift)

    pieces = integrate(
        integrand,
        np.concatenate((a, c[split])),
        np.concatenate((np.where(split, c, b), b[split])),
    )
    total = pieces[: a.size]
    total[split] += pieces[a.size :]
    return total.reshape(shape)


def synthesize(
    symbols: list[int] | tuple[int, ...],
    waveform: ChipWaveform,
    sf: int,
) -> ContinuousSignal:
    """Build the continuous-time signal for a symbol sequence (checked by ContinuousSignal)."""
    return ContinuousSignal(symbols=tuple(symbols), sf=sf, waveform=waveform)


def matched_filter_chip(
    sig: ContinuousSignal,
    n: int,
    k: int | np.ndarray,
    delta: float,
) -> complex | np.ndarray:
    """Matched-filter output for chip k of symbol n at window offset delta.

    Computes integral of s(t) * psi(t - n*T - k*Tc - delta) dt over the
    support of the shifted filter, [n*T + k + delta, n*T + k + 1 + delta].
    Every window must lie inside the synthesized span. A scalar k returns a
    complex; an array of chip indices returns an array of their outputs,
    all integrated in one batched quadrature call. n and k must be integers
    by modulation.validate_int, k also an ndarray or a list of them, and
    delta one real number of magnitude <= 0.5 (channel.validate_offset).
    """
    m = 1 << sig.sf  # checked by ContinuousSignal
    n = validate_int(n, "symbol index", 0, len(sig.symbols) - 1)
    chips = np.asarray(validate_int(k, "chip index", 0, m - 1, array=True))
    delta = validate_offset(delta)
    lo, hi = sig.span
    a, b = n * m + chips.min() + delta, n * m + chips.max() + delta + 1.0
    if a < lo or b > hi:
        raise ValueError(f"filter window [{a}, {b}] outside synthesized span [{lo}, {hi}]")
    total = _matched_filter(np.array([sig.symbols]), m, sig.waveform, 0, n, chips, delta)
    return complex(total) if chips.ndim == 0 else total


def certify_discrete_model(
    sf: int,
    waveform: ChipWaveform,
    trials: int,
    rng: np.random.Generator,
    delta_s: float = 1.0,
) -> float:
    """Max |continuous - discrete| chip sample difference over random trials.

    Each trial draws a 3-symbol context and an offset, computes every chip
    of the middle symbol through the continuous-time matched filter and
    through the noise-free chip-rate decomposition, and records the largest
    elementwise deviation. The continuous-time signal contains the next
    symbol and the chip model is given only the previous and the current
    one, so this check (acceptance criterion 3) is also the independent
    evidence that the next symbol is invisible to the receiver.

    Trials are drawn one at a time, symbols then offset, and computed in
    blocks of whole trials of at most _BLOCK_WINDOWS windows (one trial
    from sf 8 up), so memory does not grow with the trial count: per block
    one synthesize_chip_rows call, one matched-filter call and one max.
    Each trial keeps its own time axis, [0, 3M), so every node, integrand
    value and chip sum is the one a single-trial call computes, whatever
    the block size. Trials laid end to end would put nodes at t up to
    3*B*M, where rounding of order t * 2**-52 costs precision.
    """
    validate_int(trials, "trials", 1)
    m = symbol_cardinality(sf)
    per_block = max(1, _BLOCK_WINDOWS // m)
    worst = 0.0
    for start in range(0, trials, per_block):
        size = min(per_block, trials - start)
        x = np.empty((size, 3), dtype=np.int64)
        delta = np.empty(size)
        for i in range(size):
            x[i] = rng.integers(0, m, size=3)
            delta[i] = draw_offset(delta_s, rng, 1)[0]
        reference = synthesize_chip_rows(x[:, 0], x[:, 1], delta, waveform, sf)
        rows = np.arange(size)[:, None]
        diff = _matched_filter(x, m, waveform, rows, 1, np.arange(m), delta[:, None]) - reference
        worst = max(worst, float(np.hypot(diff.real, diff.imag).max()))
    return worst
