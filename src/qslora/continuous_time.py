"""Continuous-time reference model and matched-filter oracle.

This is the slow path that certifies the chip-rate model: it represents the
transmitted baseband signal

    s(t) = sum_n sum_k env(x(n))[k] * psi(t - n*T - k*Tc)

with T = M*Tc and Tc = 1 (symbol n occupies [n*T, (n+1)*T) and has unit
energy), then matched-filters it at receiver windows shifted by a
fractional chip offset. Chip samples obtained this way must agree with
synthesize_chip_rows to certify the discrete decomposition.

Integration uses piecewise adaptive Gauss-Legendre with the pieces split at
the signal's chip boundaries (its only non-smooth points); the integrand is
evaluated exactly from the generating symbols, so no sampled copy of s(t)
is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import draw_offset, synthesize_chip_rows
from .modulation import envelope_matrix, symbol_cardinality
from .quadrature import integrate
from .waveforms import ChipWaveform, sample_waveform

__all__ = ["ContinuousSignal", "synthesize", "matched_filter_chip", "certify_discrete_model"]


@dataclass(frozen=True)
class ContinuousSignal:
    """A baseband signal spanning len(symbols) * M chips from t = 0.

    The generating metadata allows exact evaluation at arbitrary instants
    via value_at.
    """

    symbols: tuple[int, ...]
    sf: int
    waveform: ChipWaveform

    @property
    def span(self) -> tuple[float, float]:
        return 0.0, float(len(self.symbols) * symbol_cardinality(self.sf))

    def value_at(self, t: np.ndarray | float) -> np.ndarray:
        """Exact s(t), zero outside the synthesized span."""
        m = symbol_cardinality(self.sf)
        rel = np.asarray(t, dtype=float)
        scalar = rel.ndim == 0
        rel = np.atleast_1d(rel)
        chip = np.floor(rel).astype(np.int64)
        frac = rel - chip
        n = chip // m
        inside = (chip >= 0) & (n < len(self.symbols))
        out = np.zeros(rel.shape, dtype=complex)
        if np.any(inside):
            idx = np.flatnonzero(inside)
            env = envelope_matrix(self.sf)
            sym = np.asarray(self.symbols)[n[idx]]
            k = chip[idx] - n[idx] * m
            out[idx] = env[sym, k] * sample_waveform(self.waveform, frac[idx])
        return out[0] if scalar else out


def synthesize(
    symbols: list[int] | tuple[int, ...],
    waveform: ChipWaveform,
    sf: int,
) -> ContinuousSignal:
    """Build the continuous-time signal for a symbol sequence."""
    m = symbol_cardinality(sf)
    symbols = tuple(int(s) for s in symbols)
    if len(symbols) == 0:
        raise ValueError("need at least one symbol")
    if any(not 0 <= s < m for s in symbols):
        raise ValueError(f"symbol indices must be in [0, {m})")
    return ContinuousSignal(symbols=symbols, sf=int(sf), waveform=waveform)


def matched_filter_chip(
    sig: ContinuousSignal,
    n: int,
    k: int,
    delta: float,
) -> complex:
    """Matched-filter output for chip k of symbol n at window offset delta.

    Computes integral of s(t) * psi(t - n*T - k*Tc - delta) dt over the
    support of the shifted filter, [n*T + k + delta, n*T + k + 1 + delta].
    The window must lie inside the synthesized span.
    """
    m = symbol_cardinality(sig.sf)
    if not 0 <= n < len(sig.symbols):
        raise ValueError(f"symbol index {n} out of range [0, {len(sig.symbols)})")
    if not 0 <= k < m:
        raise ValueError(f"chip index {k} out of range [0, {m})")
    if not abs(delta) <= 1.0:
        raise ValueError(f"chip offset magnitude must be <= 1, got {delta}")
    a = n * m + k + delta
    b = a + 1.0
    lo, hi = sig.span
    if a < lo - 1e-9 or b > hi + 1e-9:
        raise ValueError(
            f"filter window [{a}, {b}] outside synthesized span [{lo}, {hi}]"
        )
    # Split at the signal's chip boundary: a unit window holds at most one
    # integer strictly inside it.
    eps = 1e-12
    c = math.floor(a) + 1.0
    points = [a, c, b] if a + eps < c < b - eps else [a, b]

    def integrand(t: np.ndarray) -> np.ndarray:
        return sig.value_at(t) * sample_waveform(sig.waveform, t - a)

    total = 0.0 + 0.0j
    for left, right in zip(points[:-1], points[1:]):
        total += integrate(integrand, left, right)
    return complex(total)


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
    elementwise deviation.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    m = symbol_cardinality(sf)
    worst = 0.0
    for _ in range(trials):
        x = rng.integers(0, m, size=3)
        delta = draw_offset(delta_s, rng, 1)
        sig = synthesize(tuple(x), waveform, sf)
        reference = synthesize_chip_rows(x[:1], x[1:2], x[2:3], delta, waveform, sf)[0]
        for k in range(m):
            got = matched_filter_chip(sig, 1, k, float(delta[0]))
            err = abs(got - reference[k])
            if err > worst:
                worst = err
    return worst
