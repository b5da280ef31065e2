"""Fixed 20-node Gauss-Legendre quadrature for the chip-piece integrands.

Used for the autocorr_quad reference and the continuous-time matched filter.
Every integrand qslora passes is a constant (rect) or a trig polynomial with
frequencies up to 4*pi (rc) on an interval at most one chip wide, split at
the signal's chip boundaries; the 20-node rule integrates those exactly to
rounding, so there is no refinement and no tolerance. One call integrates
one interval or a whole array of intervals and evaluates the integrand once,
on an (intervals, 20) array of abscissae. Integrands must therefore accept a
numpy array of abscissae of any shape and return values of the same shape,
real or complex; the integral has their type.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .modulation import validate_real

__all__ = ["integrate"]

# The 20-node Gauss-Legendre rule on [-1, 1] (Abramowitz and Stegun, table
# 25.4), correctly rounded. numpy's leggauss(20) weights are off by up to
# 1.2e-15, which puts errors of up to 2.7e-15 into chip-piece integrals that
# this table gets to 3e-16. (node, weight) for the positive nodes; the rule
# is symmetric.
_POSITIVE = np.array(
    [
        (0.07652652113349734, 0.15275338713072584),
        (0.22778585114164507, 0.14917298647260374),
        (0.37370608871541955, 0.14209610931838204),
        (0.5108670019508271, 0.13168863844917664),
        (0.636053680726515, 0.11819453196151841),
        (0.7463319064601508, 0.10193011981724044),
        (0.8391169718222188, 0.08327674157670475),
        (0.912234428251326, 0.06267204833410907),
        (0.9639719272779138, 0.04060142980038694),
        (0.9931285991850949, 0.017614007139152118),
    ]
)
_NODES = np.concatenate((-_POSITIVE[::-1, 0], _POSITIVE[:, 0]))
_WEIGHTS = np.concatenate((_POSITIVE[::-1, 1], _POSITIVE[:, 1]))


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float | np.ndarray,
    b: float | np.ndarray,
) -> float | complex | np.ndarray:
    """Integrate f over [a, b] by the 20-node Gauss-Legendre rule, per interval.

    a and b are scalars or arrays of interval ends (broadcast together);
    each interval's value is its own row sum, independent of the other
    intervals in the call. Ends are finite reals (modulation.validate_real);
    raises ValueError for any other end or a reversed interval.

    The result has the integrand's type: scalar ends return a Python float
    or complex, array ends an array of the broadcast shape.
    """
    a = validate_real(a, "a", -np.inf, np.inf, array=True)
    b = validate_real(b, "b", -np.inf, np.inf, array=True)
    lo, hi = np.broadcast_arrays(a, b)
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    if not np.all(hi >= lo):
        raise ValueError("integration interval is reversed (need a <= b)")
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    values = np.broadcast_to(f(t), t.shape)
    # a row-wise sum, not a matmul, so that no interval's value depends on
    # how the others are blocked
    total = half * np.sum(values * _WEIGHTS, axis=-1)
    total[half == 0.0] = 0.0
    return total.reshape(shape) if shape else total[0].item()
