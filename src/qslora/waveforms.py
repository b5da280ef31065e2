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
satisfy R(0) = 1, Rhat(0) = 0, R(+-1) = 0, Rhat(+-1) = 1. The model sees a
pulse only through this pair: autocorr returns both from their closed forms
in one checked call, and autocorr_quad, the reference, integrates them;
R(0), which autocorr_quad gives as the integral of psi**2, is the pulse
energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modulation import validate_real, validate_type
from .quadrature import integrate

__all__ = [
    "ChipWaveform",
    "rectangular",
    "WAVEFORM_TOKENS",
    "validate_waveform",
    "sample_waveform",
    "autocorr",
    "autocorr_quad",
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


def validate_waveform(w) -> ChipWaveform:
    """The one pulse check: w is a ChipWaveform (a token such as "rc" is not)."""
    return validate_type(w, ChipWaveform, "waveform")


# kept only because bench/tests/test_bench.py imports it from here
def rectangular() -> ChipWaveform:
    return ChipWaveform("rect")


def sample_waveform(w: ChipWaveform, t: np.ndarray | float) -> np.ndarray:
    """Evaluate psi(t) at finite times t (validate_real, arrays too); zero outside [0, 1)."""
    validate_waveform(w)
    return _pulse(w, np.asarray(validate_real(t, "t", -np.inf, np.inf, array=True)))


def _pulse(w: ChipWaveform, t: np.ndarray) -> np.ndarray:
    """psi(t), zero outside [0, 1). Unchecked: w is a ChipWaveform and t a float array."""
    inside = (t >= 0.0) & (t < 1.0)
    if w.kind == "rect":
        return np.where(inside, 1.0, 0.0)
    return np.where(inside, _RC_AMP * (1.0 - np.cos(2.0 * np.pi * t)), 0.0)


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


def autocorr(w: ChipWaveform, delta: np.ndarray | float):
    """(R(delta), Rhat(delta)), the overlapping and the overlapped correlation.

    Closed forms (d = |delta|):
        rect: R = 1 - d,  Rhat = d
        rc:   R    = (2/3) * ((1-d) * (1 + cos(2*pi*d)/2) + (3/(4*pi)) * sin(2*pi*d))
              Rhat = (2/3) * (d * (1 + cos(2*pi*d)/2) - (3/(4*pi)) * sin(2*pi*d))
    delta is a real number of magnitude <= 1 (validate_real, arrays too); a
    scalar gives two floats, an array two arrays of its shape.
    """
    d = np.abs(validate_real(delta, "delta", -1, 1, array=True))
    keep, spill = _autocorr_pair(validate_waveform(w), d)
    return (keep, spill) if keep.ndim else (float(keep), float(spill))


def autocorr_quad(w: ChipWaveform, delta: float) -> tuple[float, float]:
    """Quadrature reference for autocorr (scalar delta)."""
    validate_waveform(w)
    d = abs(validate_real(delta, "delta", -1, 1))
    return (
        integrate(lambda u: sample_waveform(w, u) * sample_waveform(w, u - d), d, 1.0),
        integrate(lambda u: sample_waveform(w, u) * sample_waveform(w, u + 1.0 - d), 0.0, d),
    )
