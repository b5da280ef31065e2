"""The Rice law of a bin energy, and the exact synchronous SER.

A bin holding a mean m plus complex white noise of variance N0 has an energy
over N0 with the Rice law: noncentral chi-square with 2 degrees of freedom
and mu = |m|^2/N0, the exponential law at mu = 0 (Proakis, Digital
Communications, noncoherent orthogonal signaling; Marcum's Q). This module
holds its log-CDF (_central_log_cdf at mu = 0, _rice_log_cdf otherwise),
which the Monte-Carlo kernel in qslora.montecarlo evaluates, and the exact
SER of synchronous noncoherent M-ary orthogonal signaling
(analytical_ser_sync), the oracle of every delta_s = 0 estimate.

Numerics, all float64 numpy in log space: each log-CDF forms the smaller of
F and 1 - F directly and the other through log1p, so neither tail cancels,
and a probability below the smallest float reads log 0 = -inf. Poisson
weights neither overflow nor underflow at their peak for any mean.
analytical_ser_sync is within a relative 1e-12 of the exact alternating
sum, and its work is bounded at any finite SNR.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .modulation import symbol_cardinality

__all__ = ["analytical_ser_sync"]

# log of the smallest subnormal float: a probability below it rounds to 0
_LOG_TINIEST = math.log(math.ulp(0.0))
# below this log(gamma) the SER is within 2**-54 of the uniform guess 1 - 1/M
_LOG_GAMMA_GUESS = -107.0 * math.log(2.0)
# composite Gauss-Legendre rule of the Rice integral in u = sqrt(x)
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
    """log(exp(-z) * I0(z)) for z >= 0, without overflow."""
    out = np.empty_like(z)
    small = z < _I0_SWITCH
    out[small] = np.log(np.i0(z[small])) - z[small]
    big = z[~small]
    series = np.polynomial.polynomial.polyval(1.0 / big, _I0_SERIES)
    out[~small] = np.log1p(series) - 0.5 * np.log(2.0 * math.pi * big)
    return out


_LOG_HALF = math.log(0.5)
# Poisson pmfs: a running product lam/k while lam <= _PRODUCT_REACH (at most
# 182 factors, and exp(-lam) stays normal); above, the log-pmf, with log k!
# exact below _STIRLING_FROM and Stirling's series from there on, whose next
# term is below 2**-53
_PRODUCT_REACH = 64.0
_STIRLING_FROM = 16
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(_STIRLING_FROM)])
_STIRLING_SERIES = np.array([1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0])
# the deviance k log(k/lam) + lam - k as a series in v = (k - lam)/(k + lam)
# for |v| < _DEVIANCE_NEAR (Loader, "Fast and accurate computation of
# binomial probabilities", 2000): 2k sum_{i>=1} v^(2i+1)/(2i+1), to 2**-53
_DEVIANCE_NEAR = 0.1
_DEVIANCE_SERIES = 1.0 / np.arange(3.0, 23.0, 2.0)


def _log_poisson(k, lam: np.ndarray) -> np.ndarray:
    """log Pois(k; lam) for integers k >= 0 and lam >= 0 (broadcast).

    k log(lam) - lam - log k! cancels large terms once k and lam are large,
    so from k = _STIRLING_FROM on it is Loader's saddle-point form
    -stirlerr(k) - log(2 pi k)/2 - bd0(k, lam), with the deviance bd0 summed
    as a series near k = lam: the result is then exact to a few ulps of its
    own size.
    """
    k = np.asarray(k, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # lam = 0: log 0 and 0 * log 0
        head = np.where(k == 0.0, -lam, k * np.log(lam) - lam)
        head -= _LOG_FACTORIAL[np.minimum(k, _STIRLING_FROM - 1).astype(int)]
        big = np.maximum(k, _STIRLING_FROM)
        stirling = np.polynomial.polynomial.polyval(1.0 / (big * big), _STIRLING_SERIES) / big
        v = (k - lam) / (k + lam)
        series = (k - lam) * v + 2.0 * k * v**3 * np.polynomial.polynomial.polyval(
            v * v, _DEVIANCE_SERIES
        )
        deviance = np.where(np.abs(v) < _DEVIANCE_NEAR, series, k * np.log(k / lam) + lam - k)
        tail = -(stirling + 0.5 * np.log(2.0 * math.pi * big)) - deviance
    return np.where(k < _STIRLING_FROM, head, tail)


def _scaled_poisson(lam: np.ndarray):
    """Yield a log scale s, then Pois(k; lam) * exp(-s) for k = 0, 1, 2, ...

    Up to _PRODUCT_REACH s is 0 and each pmf is the last one times lam/k.
    Above it every pmf is exp(_log_poisson - s), with s the log-pmf at the
    mode floor(lam), so that none overflows and the peak never underflows.
    """
    if lam.max() <= _PRODUCT_REACH:
        yield 0.0
        pmf = np.exp(-lam)
        for k in itertools.count(1):
            yield pmf
            pmf *= lam
            pmf /= k
    scale = _log_poisson(np.floor(lam), lam)
    yield scale
    for k in itertools.count():
        yield np.exp(_log_poisson(k, lam) - scale)


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


def _rice_log_cdf(x: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log F and log(1 - F) of the Rice law of a bin energy over N0.

    F(x; mu) = P(|sqrt(mu) + Z|^2 <= x) for Z complex normal with E|Z|^2 = 1:
    2x is noncentral chi-square with 2 degrees of freedom and noncentrality
    2 mu, and 1 - F is Marcum's Q_1(sqrt(2 mu), sqrt(2 x)). At mu = 0 it is
    the exponential law (_central_log_cdf). Otherwise, with J ~ Pois(mu) and
    K ~ Pois(x) independent, the Poisson mixture of Gamma tails gives

        Q = 1 - F = P(K <= J) = sum_j Pois(j; mu) P(K <= j)
                F = P(K > J)  = sum_k Pois(k; x) P(J < k),

    two sums of positive terms, taken in one pass over k up to
    g + 12 sqrt(g + 1) + 21 with g = max(mu, sqrt(mu x)), past where their
    terms peak. log F is log1p(-Q) where Q < 1/2 and the second sum
    otherwise, so neither tail cancels. x and mu are float arrays of one
    shape, x, mu >= 0. A sum below the smallest float is log 0 = -inf, as F
    or 1 - F then is in floating point.
    """
    log_cdf = np.empty(x.shape)
    log_sf = np.empty(x.shape)
    central = mu == 0.0
    log_cdf[central] = _central_log_cdf(x[central])
    log_sf[central] = -x[central]
    reach = np.maximum(x, mu) <= _PRODUCT_REACH  # rows that a large lam must not slow
    for rows in (np.flatnonzero(~central & reach), np.flatnonzero(~central & ~reach)):
        if not rows.size:
            continue
        xr, mr = x[rows], mu[rows]
        g = np.maximum(mr, np.sqrt(mr * xr))
        terms = int(np.ceil(np.max(g + 12.0 * np.sqrt(g + 1.0) + 21.0)))
        pois_j, pois_k = _scaled_poisson(mr), _scaled_poisson(xr)
        scale = next(pois_j) + next(pois_k)
        cdf_j, cdf_k, upper, lower, term = np.zeros((5, rows.size))
        for p, q in itertools.islice(zip(pois_j, pois_k), terms):
            lower += np.multiply(q, cdf_j, out=term)  # Pois(k; x) P(J < k)
            cdf_j += p
            cdf_k += q
            upper += np.multiply(p, cdf_k, out=term)  # Pois(j; mu) P(K <= j)
        with np.errstate(divide="ignore"):  # a sum that underflows is log 0
            log_upper = np.log(upper) + scale
            log_lower = np.log(lower) + scale
        tail = log_upper < _LOG_HALF
        upper_cdf = np.log1p(-np.exp(np.minimum(log_upper, _LOG_HALF)))
        lower_sf = np.log1p(-np.exp(np.minimum(log_lower, _LOG_HALF)))
        log_cdf[rows] = np.where(tail, upper_cdf, log_lower)
        log_sf[rows] = np.where(tail, log_upper, lower_sf)
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
    the smallest subnormal the SER is 0.0; where gamma < 2^-107 it is the
    uniform guess 1 - 1/M (the total variation from zero SNR is at most
    sqrt(gamma/2)). Both are decided from log(gamma), so the work is
    bounded for any SNR. Raises ValueError unless snr_db is finite.
    """
    m = symbol_cardinality(sf)
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    log_gamma = snr_db / 10.0 * math.log(10.0)
    if log_gamma < _LOG_GAMMA_GUESS:
        return 1.0 - 1.0 / m
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
