"""Adaptive Gauss-Legendre quadrature for smooth (piecewise) integrands.

Used for waveform energy checks and the continuous-time matched filter.
One call integrates one interval or a whole array of intervals: every
bisection level evaluates the integrand once, on a (panels, nodes) array
of abscissae that holds the live panels of all intervals. Integrands must
therefore accept a numpy array of abscissae of any shape and return values
of the same shape (real or complex).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["QuadratureError", "integrate"]


class QuadratureError(RuntimeError):
    """Raised when the adaptive subdivision fails to reach the tolerance."""


_N10, _W10 = np.polynomial.legendre.leggauss(10)
_N20, _W20 = np.polynomial.legendre.leggauss(20)
_NODES = np.concatenate((_N10, _N20))


def _panels(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """20-node estimates on the panels [lo, hi] and their error estimates."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    t = mid[:, None] + half[:, None] * _NODES
    values = np.broadcast_to(f(t), t.shape)
    coarse = half * np.sum(_W10 * values[:, :10], axis=-1)
    fine = half * np.sum(_W20 * values[:, 10:], axis=-1)
    diff = fine - coarse
    return fine, np.hypot(diff.real, diff.imag)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float | np.ndarray,
    b: float | np.ndarray,
    tol: float = 1e-10,
    max_depth: int = 40,
) -> float | complex | np.ndarray:
    """Integrate f over [a, b] to absolute tolerance tol, per interval.

    a and b are scalars or arrays of interval ends (broadcast together).
    Each panel is bisected while its 10- and 20-node Gauss-Legendre
    estimates disagree by more than tol * max(panel width / interval width,
    1e-3), independently of the other intervals. Raises QuadratureError if
    any panel still disagrees after max_depth bisections.

    Scalar ends return a float, or a complex when the imaginary part is
    nonzero; array ends return an array of the broadcast shape, real when
    every imaginary part is zero.
    """
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    if not np.all(hi >= lo):
        raise ValueError("integration interval is reversed (need b > a)")
    width = hi - lo
    owner = np.flatnonzero(width > 0)
    lo, hi = lo[owner], hi[owner]
    done = [(owner[:0], lo[:0], np.zeros(0))]  # accepted (owner, lo, value) per level
    depth = 0
    while owner.size:
        value, err = _panels(f, lo, hi)
        ok = err <= tol * np.maximum((hi - lo) / width[owner], 1e-3)
        done.append((owner[ok], lo[ok], value[ok]))
        if ok.all():
            break
        if depth >= max_depth:
            i = np.flatnonzero(~ok)[0]
            raise QuadratureError(
                f"no convergence on [{lo[i]}, {hi[i]}] after {depth} bisections "
                f"(estimate {value[i]}, error {err[i]:.3e}, tol {tol:.3e})"
            )
        owner, lo, hi = owner[~ok], lo[~ok], hi[~ok]
        mid = 0.5 * (lo + hi)
        owner = np.concatenate((owner, owner))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        depth += 1
    # each interval sums its panels one by one from the rightmost leftwards,
    # so its value does not depend on the other intervals in the call
    owner, lo, value = map(np.concatenate, zip(*done))
    order = np.argsort(-lo)
    total = np.zeros(width.size, dtype=complex)
    np.add.at(total, owner[order], value[order])
    real = bool(np.all(total.imag == 0.0))
    if not shape:
        return float(total[0].real) if real else complex(total[0])
    return (total.real if real else total).reshape(shape)
