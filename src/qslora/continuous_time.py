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
chip matrix is kept. matched_filter_chip takes an array of chip indices
and integrates the pieces of all their windows in one batched quadrature
call, through one integrand: the filter of the window starting at
K + delta is psi(t - K - delta), and K = floor(t - delta) at every node
inside it. certify_discrete_model makes one such call per trial, for all
M chips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import draw_offset, synthesize_chip_rows, validate_offset
from .modulation import _chip, symbol_cardinality, validate_int, validate_real, validate_sf
from .quadrature import integrate
from .waveforms import ChipWaveform, sample_waveform

__all__ = ["ContinuousSignal", "synthesize", "matched_filter_chip", "certify_discrete_model"]


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
        m = 1 << self.sf  # checked at construction
        t = np.asarray(validate_real(t, "t", -np.inf, np.inf, array=True))
        inside = (t >= 0.0) & (t < self.span[1])
        t = np.where(inside, t, 0.0)  # before the cast: a time past int64 has no chip index
        chip = np.floor(t).astype(np.int64)
        sym = np.asarray(self.symbols)[chip // m]
        chips = _chip(sym, chip & (m - 1), m) * sample_waveform(self.waveform, t - chip)
        return np.where(inside, chips, 0j)[()]  # a complex scalar for a scalar t


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
    a = np.ravel(n * m + chips + delta)
    b = a + 1.0
    lo, hi = sig.span
    if a.min() < lo - 1e-9 or b.max() > hi + 1e-9:
        raise ValueError(
            f"filter window [{a.min()}, {b.max()}] outside synthesized span [{lo}, {hi}]"
        )
    # Split at the signal's chip boundary: a unit window holds at most one
    # integer strictly inside it.
    eps = 1e-12
    c = np.floor(a) + 1.0
    split = (a + eps < c) & (c < b - eps)

    def integrand(t: np.ndarray) -> np.ndarray:
        # a node strictly inside the window starting at K + delta has
        # floor(t - delta) = K, so one integrand serves every window
        return sig.value_at(t) * sample_waveform(sig.waveform, t - (np.floor(t - delta) + delta))

    pieces = integrate(
        integrand,
        np.concatenate((a, c[split])),
        np.concatenate((np.where(split, c, b), b[split])),
    )
    total = np.zeros(a.size, dtype=complex) + pieces[: a.size]
    total[split] += pieces[a.size :]
    return complex(total[0]) if chips.ndim == 0 else total.reshape(chips.shape)


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
    """
    validate_int(trials, "trials", 1)
    m = symbol_cardinality(sf)
    worst = 0.0
    for _ in range(trials):
        x = rng.integers(0, m, size=3)
        delta = draw_offset(delta_s, rng, 1)
        sig = synthesize(tuple(x), waveform, sf)
        reference = synthesize_chip_rows(x[:1], x[1:2], delta, waveform, sf)[0]
        diff = matched_filter_chip(sig, 1, np.arange(m), float(delta[0])) - reference
        worst = max(worst, float(np.hypot(diff.real, diff.imag).max()))
    return worst
