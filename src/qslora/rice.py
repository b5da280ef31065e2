"""The Rice law of a bin energy, and the exact synchronous SER.

A bin holding a mean m plus complex white noise of variance N0 has an energy
over N0 with the Rice law: noncentral chi-square with 2 degrees of freedom
and mu = |m|^2/N0, the exponential law at mu = 0 (Proakis, Digital
Communications, noncoherent orthogonal signaling; Marcum's Q). This module
holds its log-CDF (_central_log_cdf of the energy at mu = 0, and otherwise
_rice_log_cdf of the amplitude sqrt(x) around sqrt(mu)), which the
Monte-Carlo kernel in qslora.montecarlo evaluates, and the exact
SER of synchronous noncoherent M-ary orthogonal signaling
(analytical_ser_sync), the oracle of every delta_s = 0 estimate.

Numerics, all float64 numpy in log space: each log-CDF forms the smaller of
F and 1 - F directly and the other through log1p, so neither tail cancels,
and a probability below the smallest float reads log 0 = -inf. Both
_rice_log_cdf and analytical_ser_sync integrate the Rice amplitude density
by one composite 16-node Gauss-Legendre rule, so the work of either is
bounded at any mean and any SNR. The SNR lies in channel.validate_snr's
[-300, 300] dB, so N0 lies in [1e-30, 1e30] and no amplitude, mean or
Bessel argument formed here overflows. analytical_ser_sync is within a
relative 1e-12 of the exact alternating sum.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import validate_snr
from .modulation import symbol_cardinality

__all__ = ["analytical_ser_sync"]

# log of the smallest subnormal float: a probability below it rounds to 0
_LOG_TINIEST = math.log(math.ulp(0.0))
# the 16-node Gauss-Legendre rule of every Rice integral in this module;
# analytical_ser_sync's panels in u = sqrt(x):
_RICE_NODES, _RICE_WEIGHTS = np.polynomial.legendre.leggauss(16)
_RICE_PANEL = 0.5
_RICE_REACH = 12.0  # integrate u over [0, sqrt(gamma) + _RICE_REACH]
# log I0e(z): np.i0 below _I0_SWITCH, the asymptotic series above, where
# its 20 terms are accurate to the last bit
_I0_SWITCH = 25.0
_I0_SERIES = np.concatenate(
    ([0.0], np.cumprod([(2 * k - 1) ** 2 / (8.0 * k) for k in range(1, 21)]))
)


def _log_i0e(z: np.ndarray) -> np.ndarray:
    """log(exp(-z) * I0(z)) for 0 <= z < 2.8e307, where 2 pi z is finite."""
    out = np.empty_like(z)
    small = z < _I0_SWITCH
    out[small] = np.log(np.i0(z[small])) - z[small]
    big = z[~small]
    series = np.polynomial.polynomial.polyval(1.0 / big, _I0_SERIES)
    out[~small] = np.log1p(series) - 0.5 * np.log(2.0 * math.pi * big)
    return out


_LOG_HALF = math.log(0.5)
# _rice_log_cdf's composite rule: _TAIL_PANELS panels on one side of r, out
# to where the Gaussian factor has fallen by exp(-_TAIL_REACH**2) from its
# largest value on that side
_TAIL_PANELS = 6
_TAIL_REACH = 7.0
_TAIL_FRACTIONS = (
    (np.arange(_TAIL_PANELS)[:, None] + 0.5 * (_RICE_NODES + 1.0)) / _TAIL_PANELS
).ravel()
_TAIL_WEIGHTS = np.tile(_RICE_WEIGHTS, _TAIL_PANELS) / (2.0 * _TAIL_PANELS)


def _central_log_cdf(x: np.ndarray) -> np.ndarray:
    """log(1 - exp(-x)), the Rice log-CDF at mu = 0, for x >= 0.

    log1p(-exp(-x)) where exp(-x) < 1/2 and log(-expm1(-x)) below, so that
    neither cancels; x = 0 gives -inf.
    """
    out = np.negative(x)
    np.exp(out, out=out)
    np.negative(out, out=out)
    with np.errstate(divide="ignore"):
        np.log1p(out, out=out)
        low = np.flatnonzero(x <= -_LOG_HALF)
        out[low] = np.log(-np.expm1(-x[low]))
    return out


def _rice_log_cdf(r: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log F and log(1 - F) of the Rice law of a bin amplitude over sqrt(N0).

    F(r; s) = P(|s + Z| <= r) for Z complex normal with E|Z|^2 = 1: 2 r**2 is
    noncentral chi-square with 2 degrees of freedom and noncentrality
    2 s**2, and 1 - F is Marcum's Q_1(sqrt(2) s, sqrt(2) r). r and s are
    float arrays of one shape, r, s >= 0. At s = 0 it is the exponential law
    of r**2 (_central_log_cdf). Otherwise each tail is an integral of the
    amplitude density

        f(rho) = 2 rho exp(-(rho - s)**2) I0e(2 s rho),

    F over [0, r] and 1 - F over [r, inf). The smaller tail is formed
    directly, F where r**2 - s**2 <= log 2 and 1 - F above (either is then
    at most about 0.54), and the other through log1p, so neither cancels.
    The tail takes the same composite 16-node Gauss-Legendre rule as
    analytical_ser_sync, on _TAIL_PANELS equal panels of offsets t from r,
    out to where exp(-v**2) has fallen by exp(-_TAIL_REACH**2) from its
    largest value on that side (capped at r below it): about _TAIL_REACH
    past the mean, or a span like _TAIL_REACH**2 / (2 |d|) in a far tail,
    where d = r - s. So the work per row is the same at every s. A node
    takes its exponent from v = d -/+ t and its prefactor from rho = r -/+ t,
    so neither rounds onto r at large s. The rule is summed in log space,
    so a subnormal tail keeps full relative precision; a tail below the
    smallest float is log 0 = -inf, as it then is in floating point.
    """
    log_cdf = np.empty(r.shape)
    log_sf = np.empty(r.shape)
    central = s == 0.0
    # a tail below the smallest float is log 0, and so is a row whose terms
    # are all log 0, where shifting by its largest term gives nan
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.square(r[central])
        log_cdf[central] = _central_log_cdf(x)
        log_sf[central] = -x
        rows = np.flatnonzero(~central)
        r, s = r[rows, None], s[rows, None]
        d = r - s
        # r**2 - s**2 > log 2: integrate 1 - F above r (+1), else F below it (-1)
        side = np.where(d * (r + s) > -_LOG_HALF, 1.0, -1.0)
        span = _TAIL_REACH**2 / (np.hypot(d, _TAIL_REACH) + side * d)
        span = np.where(side > 0.0, span, np.minimum(span, r))
        t = side * span * _TAIL_FRACTIONS
        rho = r + t
        v = d + t
        z = 2.0 * s * rho
        log_f = np.log(2.0 * rho) + _log_i0e(z.ravel()).reshape(z.shape)
        log_f -= v * v
        # summed in log space, shifted by the row's largest term, so that a
        # tail below the smallest normal float keeps its relative precision
        peak = np.max(log_f, axis=1)
        tail = peak + np.log(np.exp(log_f - peak[:, None]) @ _TAIL_WEIGHTS * span[:, 0])
        tail[~(tail >= _LOG_TINIEST)] = -math.inf
    other = np.log1p(-np.exp(tail))
    upper = side[:, 0] > 0.0
    log_cdf[rows] = np.where(upper, other, tail)
    log_sf[rows] = np.where(upper, tail, other)
    return log_cdf, log_sf


def analytical_ser_sync(sf: int, snr_db: float) -> float:
    """Exact SER of noncoherent M-ary orthogonal signaling (synchronous case).

    With gamma = 10^(snr_db/10) and x the wanted bin's energy over N0, x
    has the Rice law f(x) = exp(-(x + gamma)) I0(2 sqrt(gamma x)) and each
    of the M - 1 other bins is exponential, so (Proakis, noncoherent
    orthogonal signaling)

        P_e = integral f(x) * [1 - (1 - exp(-x))^(M-1)] dx.

    It is taken in u = sqrt(x) over [0, sqrt(gamma) + 12] by composite
    16-node Gauss-Legendre on panels of width 0.5, with the integrand formed
    in log space (log I0e, and the bracket as -expm1((M-1) log(1 - exp(-x)))
    by _central_log_cdf) so that SERs down to the smallest subnormal keep
    full relative precision. The tests check it against the exact alternating sum to a
    relative 1e-12. Where the union bound (M-1)/2 exp(-gamma/2) is below
    the smallest subnormal the SER is 0.0, decided from log(gamma), so the
    work is bounded at every SNR. snr_db must pass channel.validate_snr
    (|snr_db| <= 300), or ValueError is raised; at -300 dB the SER is within
    a relative 1e-15 of the uniform guess 1 - 1/M.
    """
    m = symbol_cardinality(sf)
    snr_db = validate_snr(snr_db)
    log_gamma = snr_db / 10.0 * math.log(10.0)
    if log_gamma > math.log(2.0 * (math.log((m - 1) / 2.0) - _LOG_TINIEST)):
        return 0.0
    s = math.sqrt(10.0 ** (snr_db / 10.0))
    panels = math.ceil((s + _RICE_REACH) / _RICE_PANEL)
    left = _RICE_PANEL * np.arange(panels)
    u = (left[:, None] + 0.5 * _RICE_PANEL * (_RICE_NODES + 1.0)).ravel()
    x = u * u
    with np.errstate(divide="ignore"):  # the bracket underflows to 0 at large x
        log_bracket = np.log(-np.expm1((m - 1) * _central_log_cdf(x)))
    log_f = np.log(2.0 * u) - (u - s) ** 2 + _log_i0e(2.0 * s * u) + log_bracket
    return float(0.5 * _RICE_PANEL * np.dot(np.tile(_RICE_WEIGHTS, panels), np.exp(log_f)))
