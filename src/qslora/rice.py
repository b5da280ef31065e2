"""The Rice law of a bin energy, the other-bins decision, and the exact synchronous SER.

A bin holding a mean m plus complex white noise of variance N0 has an energy
over N0 with the Rice law: noncentral chi-square with 2 degrees of freedom
and mu = |m|^2/N0, the exponential law at mu = 0 (Proakis, Digital
Communications, noncoherent orthogonal signaling; Marcum's Q). This module
holds its log-CDF (_central_log_cdf of the energy at mu = 0, and otherwise
_rice_log_cdf of the amplitude sqrt(x) around sqrt(mu)), the decision of a
trial's other bins that the Monte-Carlo kernel in qslora.montecarlo makes
with it (_others_reach), and the exact SER of synchronous noncoherent M-ary
orthogonal signaling (analytical_ser_sync), the oracle of every delta_s = 0
estimate.

The M - 2 other bins of a trial (qslora.channel) are i.i.d. Rice with
mu = |c|^2/N0, so their largest, drawn by inversion at the trial's uniform U
(order statistics), reaches the wanted energy x = |a|^2/N0 exactly when
log U >= (M - 2) log F(x; mu): one CDF evaluation per trial at any spreading
factor, and no M-vector. _others_reach decides it; a bracket of log F from
F's Poisson mixture and the Chernoff bounds settles most trials before F is
evaluated, so it changes the work and never an outcome (see there).

Numerics, all float64 numpy in log space: each log-CDF forms the smaller of
F and 1 - F directly and the other through log1p, so neither tail cancels,
and a probability below the smallest float reads log 0 = -inf. Both
_rice_log_cdf and analytical_ser_sync integrate the Rice amplitude density
by one composite 16-node Gauss-Legendre rule, so the work of either is
bounded at any mean and any SNR. The SNR lies in channel.validate_snr's
[-300, 300] dB, so N0 lies in [1e-30, 1e30] and no amplitude, mean or
Bessel argument formed here overflows, and every x, mu and d**2 of
_others_reach stays below about 1e31. analytical_ser_sync is within a
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
# the 16-node Gauss-Legendre rule of every Rice integral in this module
# (analytical_ser_sync's panels in u = sqrt(x)): (node, weight) of its
# positive nodes, the exact bits of numpy.polynomial.legendre.leggauss(16),
# kept as literals so that importing qslora loads no numpy.polynomial
_RICE_POSITIVE = np.array(
    [
        (0.09501250983763744, 0.18945061045506864),
        (0.2816035507792589, 0.18260341504492364),
        (0.45801677765722737, 0.16915651939500265),
        (0.6178762444026438, 0.1495959888165767),
        (0.755404408355003, 0.12462897125553407),
        (0.8656312023878318, 0.0951585116824926),
        (0.9445750230732326, 0.062253523938647456),
        (0.9894009349916499, 0.027152459411754176),
    ]
)
_RICE_NODES = np.concatenate((-_RICE_POSITIVE[::-1, 0], _RICE_POSITIVE[:, 0]))
_RICE_WEIGHTS = np.concatenate((_RICE_POSITIVE[::-1, 1], _RICE_POSITIVE[:, 1]))
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
    series = np.polyval(_I0_SERIES[::-1], 1.0 / big)
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
# how far _others_reach widens each bound of its bracket, relative to the
# bound: _rice_log_cdf's log F is within about 1e-14 of its own size
_BAND_MARGIN = 1e-9


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


def _others_reach(
    energy_a: np.ndarray, amp_c: np.ndarray, n0: float, log_u: np.ndarray, count: int
) -> np.ndarray:
    """Whether the largest of count other bins' energies reaches energy_a, at log U.

    Each other bin holds c, of modulus amp_c, plus noise of variance n0, so
    its energy over n0 is Rice with mu = amp_c**2 / n0, and the largest of
    count of them has the CDF F(x; mu)**count at x = energy_a / n0. Drawn by
    inversion at U, it reaches x exactly when log U >= count * log F(x; mu).

    A bracket of log F settles most trials without evaluating F. F is the
    Poisson mixture sum_j Pois(j; mu) P(Gamma(j + 1) <= x): its j = 0 term
    gives F >= exp(-mu) F(x; 0), and since each Gamma CDF falls as j grows,
    F <= F(x; 0), with F(x; 0) = 1 - exp(-x). With d = sqrt(x) - sqrt(mu),
    the Chernoff bounds 1 - F <= exp(-d**2) above the mean and
    F <= exp(-d**2) below it tighten the side that the mixture leaves loose.
    So log F lies between

        lower = max(log F(x; 0) - mu, log(1 - exp(-d**2)) where d > 0),
        upper = min(log F(x; 0), -d**2 where d <= 0),

    which meet at the exact value when mu = 0. A trial clears when
    log U < count * lower and reaches when log U >= count * upper, each
    bound widened by a relative _BAND_MARGIN, far more than the error of
    log F; where |d| is small enough for d's rounding to exceed the margin,
    the Chernoff bound lies far from the exact value. Only a log U inside the
    bracket goes to _rice_log_cdf, whose work does not depend on mu, so
    the bracket changes the work and never an outcome. It takes the
    amplitudes r = sqrt(energy_a) / sqrt(n0) and s = amp_c / sqrt(n0), and
    r = s exactly where d = 0.
    """
    energy_c = np.square(amp_c)
    root_n0 = math.sqrt(n0)
    d = np.sqrt(energy_a)
    d -= amp_c
    d /= root_n0
    below = np.minimum(d, 0.0)
    np.square(below, out=below)
    np.negative(below, out=below)  # -d**2 below the mean, -0 above it
    np.maximum(d, 0.0, out=d)
    np.square(d, out=d)
    above = _central_log_cdf(d)  # log(1 - exp(-d**2)) above the mean, -inf below it
    np.divide(energy_a, n0, out=d)  # x
    upper = _central_log_cdf(d)  # log F(x; 0)
    mu = np.divide(energy_c, n0, out=energy_c)
    lower = np.subtract(upper, mu, out=d)
    np.maximum(lower, above, out=lower)
    np.minimum(upper, below, out=upper)
    del above, below  # free two of the five (n,) arrays before the comparisons
    lower *= (1.0 + _BAND_MARGIN) * count
    upper *= (1.0 - _BAND_MARGIN) * count
    reach = log_u >= upper
    band = np.flatnonzero(~reach & (log_u >= lower))
    if band.size:
        log_cdf = _rice_log_cdf(np.sqrt(energy_a[band]) / root_n0, amp_c[band] / root_n0)[0]
        reach[band] = log_u[band] >= count * log_cdf
    return reach


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
