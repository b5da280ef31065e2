"""Unit-energy chip pulse shapes and their partial autocorrelations.

Chip duration is normalized to 1. Two shapes are supported:

    rect: psi(t) = 1                                on [0, 1)
    rc:   psi(t) = sqrt(2/3) * (1 - cos(2*pi*t))    on [0, 1)

For a fractional chip offset delta with |delta| <= 1, a matched filter
aligned to the shifted chip grid sees two pieces of the incoming signal:

    overlapping: R(delta)    = integral_{|delta|}^{1} psi(u) psi(u - |delta|) du
    overlapped:  Rhat(delta) = integral_{0}^{|delta|} psi(u) psi(u + 1 - |delta|) du

R weights the chip the filter mostly covers, Rhat weights the sliver of the
neighbouring chip that spills into the window. Both are even in delta and
satisfy R(0) = 1, Rhat(0) = 0, R(+-1) = 0, Rhat(+-1) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modulation import validate_real
from .quadrature import integrate

__all__ = [
    "ChipWaveform",
    "rectangular",
    "raised_cosine",
    "WAVEFORM_TOKENS",
    "sample_waveform",
    "energy",
    "autocorr_overlapping",
    "autocorr_overlapped",
    "autocorr_overlapping_quad",
    "autocorr_overlapped_quad",
]

_RC_AMP = np.sqrt(2.0 / 3.0)
WAVEFORM_TOKENS = ("rect", "rc")


@dataclass(frozen=True)
class ChipWaveform:
    """A named unit-energy chip pulse, identified by its kind token."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in WAVEFORM_TOKENS:
            raise ValueError(
                f"unknown waveform kind {self.kind!r} (expected one of {', '.join(WAVEFORM_TOKENS)})"
            )


def rectangular() -> ChipWaveform:
    return ChipWaveform("rect")


def raised_cosine() -> ChipWaveform:
    return ChipWaveform("rc")


def sample_waveform(w: ChipWaveform, t: np.ndarray | float) -> np.ndarray:
    """Evaluate psi(t) at finite times t (validate_real, arrays too); zero outside [0, 1)."""
    t = np.asarray(validate_real(t, "t", -np.inf, np.inf, array=True))
    inside = (t >= 0.0) & (t < 1.0)
    if w.kind == "rect":
        return np.where(inside, 1.0, 0.0)
    return np.where(inside, _RC_AMP * (1.0 - np.cos(2.0 * np.pi * t)), 0.0)


def energy(w: ChipWaveform) -> float:
    """Pulse energy integral of psi**2 over one chip, by quadrature.

    psi**2 is a trig polynomial on one chip, which the 20-node rule of
    qslora.quadrature integrates exactly, so unit-energy pulses return 1 up
    to rounding.
    """
    return integrate(lambda t: sample_waveform(w, t) ** 2, 0.0, 1.0)


def _autocorr_pair(w: ChipWaveform, d: np.ndarray):
    """(R, Rhat) at d = |delta| from one cos/sin pair.

    Unchecked: d must be floats in [0, 1], as the magnitude of an offset
    that passes modulation.validate_real with bounds [-1, 1].
    """
    if w.kind == "rect":
        return 1.0 - d, d
    angle = 2.0 * np.pi * d
    half = 1.0 + 0.5 * np.cos(angle)
    slope = (3.0 / (4.0 * np.pi)) * np.sin(angle)
    return (2.0 / 3.0) * ((1.0 - d) * half + slope), (2.0 / 3.0) * (d * half - slope)


def autocorr_overlapping(w: ChipWaveform, delta: np.ndarray | float):
    """R(delta): correlation with the chip the filter window mostly covers.

    Closed forms (d = |delta|):
        rect: 1 - d
        rc:   (2/3) * ((1-d) * (1 + cos(2*pi*d)/2) + (3/(4*pi)) * sin(2*pi*d))
    """
    out = _autocorr_pair(w, np.abs(validate_real(delta, "delta", -1, 1, array=True)))[0]
    return out if out.ndim else float(out)


def autocorr_overlapped(w: ChipWaveform, delta: np.ndarray | float):
    """Rhat(delta): correlation with the neighbouring chip's spill-over.

    Closed forms (d = |delta|):
        rect: d
        rc:   (2/3) * (d * (1 + cos(2*pi*d)/2) - (3/(4*pi)) * sin(2*pi*d))
    """
    out = _autocorr_pair(w, np.abs(validate_real(delta, "delta", -1, 1, array=True)))[1]
    return out if out.ndim else float(out)


def autocorr_overlapping_quad(w: ChipWaveform, delta: float) -> float:
    """Quadrature reference for autocorr_overlapping (scalar delta)."""
    d = abs(validate_real(delta, "delta", -1, 1))
    return integrate(lambda u: sample_waveform(w, u) * sample_waveform(w, u - d), d, 1.0)


def autocorr_overlapped_quad(w: ChipWaveform, delta: float) -> float:
    """Quadrature reference for autocorr_overlapped (scalar delta)."""
    d = abs(validate_real(delta, "delta", -1, 1))
    return integrate(lambda u: sample_waveform(w, u) * sample_waveform(w, u + 1.0 - d), 0.0, d)
