"""Monte-Carlo SER estimation over the (sf, waveform, delta_s, snr) grid.

Reproducibility contract: every trial outcome is a pure function of
(master_seed, grid point, trial_index). Trials are grouped into fixed-size
chunks; each chunk gets an independent counter-based stream seeded by
SeedSequence(master_seed, spawn_key=(point_hash..., chunk_index)) where
point_hash is derived from the point's own coordinates. A chunk always
draws full-size arrays in a fixed order, so truncating at max_trials or
stopping early never shifts the stream, and results are identical for any
worker count. Adding or removing other grid points cannot change a point's
estimate because nothing but the point's coordinates enters its seed
derivation.

Stream v4: a trial's despread vector holds at most three distinct noise-free
values (the closed form in qslora.channel): a = R + c in bin x_cur,
b = Rhat * phase + c in the spill bin x_cur + 2*sign(delta), and the boundary
term c in the M - 2 others (c = 0 unless delta < 0). Despreading is unitary,
so white chip noise is white bin noise of the same N0, and no chips are
synthesized. The kernel draws its symbols and offsets in range, so it takes
the coefficients from the closed form's unchecked core. A chunk of n trials
draws, in this order:

1. the previous symbols (n) and the current symbols (n),
2. the offsets through channel.draw_offset (none at delta_s = 0 or under
   fixed_delta),
3. the noise of a and of b: real then imaginary parts, n each, scaled by
   sqrt(N0/2),
4. one uniform U on [0, 1) per trial (n).

The M - 2 other bins are i.i.d.: each energy over N0 has the Rice CDF
F(x; mu) with mu = |c|^2/N0 (_rice_log_cdf; for delta >= 0, mu = 0 and
F = 1 - exp(-x)), so their largest has the CDF F**(M - 2). Drawn by
inversion at U (order statistics), it reaches the wanted energy
x = |a|^2/N0 exactly when log U >= (M - 2) log F(x; mu): one forward CDF
evaluation, so every trial costs O(1) at any spreading factor and never
builds an M-vector. Trials far from the other bins' mean are decided by
Chernoff bounds without the series (_others_reach). A trial errs when
|b|^2 >= |a|^2 or when the other bins reach |a|^2: a tie with the wanted bin
counts as an error. The comparison is scale-invariant, so the kernel forms
every mean and energy in units of max(N0, 1): the energies stay finite at any
N0 the SNR check admits, and for N0 <= 1 the unit is 1 and nothing changes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .channel import _coefficients, draw_offset, validate_delta_s, validate_offset
from .channel import synthesize_chip_rows  # noqa: F401 -- bench/tracing.py wraps this binding
from .modulation import symbol_cardinality, validate_int, validate_sf
from .waveforms import WAVEFORM_TOKENS, ChipWaveform

__all__ = [
    "TRIALS_PER_CHUNK",
    "GridPoint",
    "StoppingRule",
    "SerEstimate",
    "wilson_interval",
    "noise_variance",
    "analytical_ser_sync",
    "run_point",
    "snr_axis",
    "SweepConfig",
    "run_sweep",
]

TRIALS_PER_CHUNK = 4096
_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def noise_variance(snr_db: float) -> float:
    """Complex noise variance N0 per chip at Es/N0 = snr_db dB.

    Symbols have unit energy, so N0 = 10^(-snr_db/10). Raises ValueError
    unless snr_db is finite and N0 is a finite float (it overflows below
    about -3083 dB).
    """
    try:
        n0 = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        n0 = math.inf
    if not (math.isfinite(snr_db) and math.isfinite(n0)):
        raise ValueError(f"snr_db must be finite with a finite noise variance, got {snr_db}")
    return n0


@dataclass(frozen=True)
class GridPoint:
    """One cell of the sweep grid."""

    sf: int
    waveform: ChipWaveform
    delta_s: float
    snr_db: float

    def __post_init__(self) -> None:
        validate_sf(self.sf)
        if not isinstance(self.waveform, ChipWaveform):
            raise ValueError(f"waveform must be a ChipWaveform, got {self.waveform!r}")
        noise_variance(self.snr_db)
        # canonical floats: 1, 1.0 and np.float64(1.0), or -0.0 and 0.0, share a stream
        object.__setattr__(self, "delta_s", validate_delta_s(self.delta_s) + 0.0)
        object.__setattr__(self, "snr_db", float(self.snr_db) + 0.0)


@dataclass(frozen=True)
class StoppingRule:
    """Stop a point after max_trials, or earlier once min_errors are seen.

    min_errors = 0 disables early stopping.
    """

    max_trials: int = 1_000_000
    min_errors: int = 100

    def __post_init__(self) -> None:
        validate_int(self.max_trials, "max_trials", 1)
        validate_int(self.min_errors, "min_errors", 0)


@dataclass(frozen=True)
class SerEstimate:
    """SER (ser) and Wilson 95% interval (ci_low, ci_high) derived from counts.

    elapsed is wall-clock seconds and is excluded from equality so that
    estimates from different runs or worker counts compare equal.
    """

    point: GridPoint
    trials: int
    errors: int
    seed: int
    elapsed: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        wilson_interval(self.errors, self.trials)  # checks 0 <= errors <= trials, trials >= 1

    @property
    def ser(self) -> float:
        return self.errors / self.trials

    @property
    def ci_low(self) -> float:
        return wilson_interval(self.errors, self.trials)[0]

    @property
    def ci_high(self) -> float:
        return wilson_interval(self.errors, self.trials)[1]


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    validate_int(trials, "trials", 1)
    validate_int(errors, "errors", 0, trials)
    p = errors / trials
    z = _Z95
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    # at the boundaries the exact endpoints are 0 and 1; computing
    # center -/+ half there leaves a rounding residue that would put the
    # point estimate outside its own interval
    low = 0.0 if errors == 0 else max(0.0, center - half)
    high = 1.0 if errors == trials else min(1.0, center + half)
    return low, high


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
_LOG_2_54 = 54.0 * math.log(2.0)  # -log of 2**-54, half the spacing of uniforms
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
    out = np.exp(-x)
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
    in log space (log I0e, and the bracket as -expm1((M-1) log1p(-exp(-x))))
    so that SERs down to the smallest subnormal keep full relative
    precision. The tests check it against the exact alternating sum to a
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
        log_bracket = np.log(-np.expm1((m - 1) * np.log1p(-np.exp(-x))))
    log_f = np.log(2.0 * u) - (u - s) ** 2 + _log_i0e(2.0 * s * u) + log_bracket
    return float(0.5 * _RICE_PANEL * np.dot(np.tile(_RICE_WEIGHTS, panels), np.exp(log_f)))


def _point_spawn_key(point: GridPoint) -> tuple[int, int, int, int]:
    """Four uint32 words hashed from the point's canonical coordinates."""
    text = (
        f"sf={point.sf};wf={point.waveform.kind};"
        f"ds={point.delta_s!r};snr={point.snr_db!r}"
    )
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return tuple(int.from_bytes(digest[4 * i : 4 * i + 4], "little") for i in range(4))


def _chunk_rng(point: GridPoint, master_seed: int, chunk_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(
        master_seed, spawn_key=_point_spawn_key(point) + (chunk_index,)
    )
    return np.random.Generator(np.random.Philox(seq))


def _bin_noise(rng: np.random.Generator, scale: float, shape) -> tuple[np.ndarray, np.ndarray]:
    """Real and then imaginary parts of complex bin noise, scale * N(0, 1) each."""
    real = rng.standard_normal(shape)
    real *= scale
    imag = rng.standard_normal(shape)
    imag *= scale
    return real, imag


def _noisy_energy(mean: np.ndarray, real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """|mean + real + 1j*imag|**2, formed in place in real (imag is overwritten)."""
    real += mean.real
    imag += mean.imag
    np.square(real, out=real)
    np.square(imag, out=imag)
    real += imag
    return real


def _others_reach(
    energy_a: np.ndarray, c: np.ndarray, n0: float, log_u: np.ndarray, count: int
) -> np.ndarray:
    """Whether the largest of count other bins' energies reaches energy_a, at log U.

    Each other bin holds c plus noise of variance n0, so its energy over n0
    is Rice with mu = |c|**2 / n0, and the largest of count of them has the
    CDF F(x; mu)**count at x = energy_a / n0. Drawn by inversion at U, it
    reaches x exactly when log U >= count * log F(x; mu). Where c = 0,
    F = 1 - exp(-x) in closed form. Other trials far from the mean are
    decided without the series, by the Chernoff bounds F <= exp(-d**2)
    below it and 1 - F <= exp(-d**2) above it, with d = sqrt(x) - sqrt(mu):
    a U below 1 - 2**-53 cannot reach count * log F > -2**-54, and every
    U >= 2**-53 reaches count * log F < -54 log 2. U = 0 (log U = -inf)
    reaches no x > 0. At n0 = 0 (noise-free) x and d are infinite, and the
    trial compares |a| with |c|.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # n0 = 0
        x = energy_a / n0
        reach = log_u >= count * _central_log_cdf(x)
        rice = np.flatnonzero(c != 0.0)
        if not rice.size:
            return reach
        energy_c = c.real[rice] ** 2 + c.imag[rice] ** 2
        d = (np.sqrt(energy_a[rice]) - np.sqrt(energy_c)) / math.sqrt(n0)
    below = d < -math.sqrt(_LOG_2_54 / count)
    reach[rice] = below & (log_u[rice] > -math.inf)
    near = ~below & (d <= math.sqrt(math.log(2.0 * count) + _LOG_2_54))
    log_cdf = _rice_log_cdf(x[rice[near]], energy_c[near] / n0)[0]
    reach[rice[near]] = log_u[rice[near]] >= count * log_cdf
    return reach


def _chunk_error_flags(
    point: GridPoint,
    master_seed: int,
    chunk_index: int,
    fixed_delta: Optional[float] = None,
) -> np.ndarray:
    """Detection-error flags for one full chunk of trials (stream v4, vectorized)."""
    rng = _chunk_rng(point, master_seed, chunk_index)
    m = symbol_cardinality(point.sf)
    n = TRIALS_PER_CHUNK
    x_prev = rng.integers(0, m, size=n)
    x_cur = rng.integers(0, m, size=n)
    if fixed_delta is not None:
        delta = np.full(n, fixed_delta)
    else:
        delta = draw_offset(point.delta_s, rng, n)
    wanted, spill, c = _coefficients(x_prev, x_cur, delta, point.waveform, m)
    n0 = noise_variance(point.snr_db)
    unit = max(n0, 1.0)  # the decision's energy unit, see the module docstring
    n0 /= unit
    root = math.sqrt(unit)
    scale = math.sqrt(n0 / 2.0)
    energy_a = _noisy_energy((wanted + c) / root, *_bin_noise(rng, scale, n))
    energy_b = _noisy_energy((spill + c) / root, *_bin_noise(rng, scale, n))
    with np.errstate(divide="ignore"):  # U = 0
        log_u = np.log(rng.random(n))
    return (energy_b >= energy_a) | _others_reach(energy_a, c / root, n0, log_u, m - 2)


def _pool_size(workers: int) -> int:
    """Worker processes for a pool: past the CPU count they only add idle forks."""
    return min(workers, os.cpu_count() or 1)


def _fixed_offset(fixed_delta) -> Optional[float]:
    """None, or one offset as a float by channel.validate_offset (|delta| <= 0.5).

    An array or a list is not one offset, even with one element.
    """
    if fixed_delta is None:
        return None
    if np.ndim(fixed_delta):
        raise ValueError(f"fixed_delta must be one offset, got {fixed_delta!r}")
    return validate_offset(fixed_delta)


def run_point(
    point: GridPoint,
    stop: StoppingRule = StoppingRule(),
    master_seed: int = 1,
    workers: int = 1,
    fixed_delta: Optional[float] = None,
    executor: Optional[ProcessPoolExecutor] = None,
) -> SerEstimate:
    """Estimate the SER at one grid point under the stopping rule.

    Chunks are consumed strictly in index order and the stopping rule is
    evaluated on cumulative counts, so the estimate does not depend on how
    many workers computed the chunks. At most one worker per CPU is used.
    fixed_delta, when given, replaces the offset draw for every trial; it
    must be one offset of magnitude <= 0.5 (_fixed_offset). master_seed >= 0
    and workers >= 1 must be integers by modulation.validate_int.
    """
    validate_int(master_seed, "master_seed", 0)
    workers = _pool_size(validate_int(workers, "workers", 1))
    fixed_delta = _fixed_offset(fixed_delta)
    t_start = time.perf_counter()
    n_chunks = -(-stop.max_trials // TRIALS_PER_CHUNK)
    trials = 0
    errors = 0

    def consume(flags: np.ndarray) -> bool:
        nonlocal trials, errors
        take = min(TRIALS_PER_CHUNK, stop.max_trials - trials)
        errors += int(np.count_nonzero(flags[:take]))
        trials += take
        done = trials >= stop.max_trials
        if stop.min_errors and errors >= stop.min_errors:
            done = True
        return done

    if workers <= 1 and executor is None:
        for index in range(n_chunks):
            if consume(_chunk_error_flags(point, master_seed, index, fixed_delta)):
                break
    else:
        own = executor is None
        pool = executor if executor is not None else ProcessPoolExecutor(max_workers=workers)
        inflight = 2 * workers
        pending = {}
        try:
            next_submit = 0
            for index in range(n_chunks):
                while next_submit < n_chunks and next_submit - index < inflight:
                    pending[next_submit] = pool.submit(
                        _chunk_error_flags, point, master_seed, next_submit, fixed_delta
                    )
                    next_submit += 1
                if consume(pending.pop(index).result()):
                    break
        finally:
            for fut in pending.values():
                fut.cancel()
            if own:
                pool.shutdown(wait=True, cancel_futures=True)

    return SerEstimate(
        point=point,
        trials=trials,
        errors=errors,
        seed=master_seed,
        elapsed=time.perf_counter() - t_start,
    )


def snr_axis(start_db: float, stop_db: float, step_db: float) -> list[float]:
    """Inclusive dB grid start, start+step, ..., up to stop when reachable."""
    if not all(math.isfinite(v) for v in (start_db, stop_db, step_db)):
        raise ValueError(f"snr axis bounds must be finite, got {start_db}:{stop_db}:{step_db}")
    if not step_db > 0:
        raise ValueError(f"snr step must be > 0, got {step_db}")
    steps = (stop_db - start_db) / step_db
    if not math.isfinite(steps):
        raise ValueError(f"snr axis {start_db}:{stop_db}:{step_db} has too many points")
    count = int(math.floor(steps + 1e-9)) + 1
    if count < 1:
        raise ValueError(f"snr axis is empty (start {start_db} > stop {stop_db})")
    return [float(start_db + i * step_db) for i in range(count)]


@dataclass(frozen=True)
class SweepConfig:
    """Fully resolved sweep parameters (defaults span the full grid).

    Construction checks every field once, through the type that owns the
    value: validate_sf, ChipWaveform, validate_delta_s, snr_axis and
    noise_variance, StoppingRule, modulation.validate_int (master_seed >= 0,
    workers >= 1), run_point's one-offset rule for fixed_delta and
    os.fspath; record_timing is read as a truth value. A bad value or a
    wrong type raises ValueError whose message starts with the field's
    config key (sf, waveform, delta-s, snr, trials-max, min-errors, seed,
    workers, fixed-delta, output, format).

    What the checks build is kept, out of __init__ and equality: points, the
    grid ordered by (sf, waveform token, delta_s, snr_db) with one point per
    distinct coordinate, so output layout is independent of how the axes
    were listed; stop, the StoppingRule; and fixed_delta, as the float
    that rule returns. These defaults are the only ones; the CLI
    passes only the fields a flag, the environment or a config file set.
    """

    sf_list: tuple[int, ...] = (4, 5, 6, 7)
    waveforms: tuple[str, ...] = WAVEFORM_TOKENS
    delta_s_list: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    snr_start_db: float = -4.0
    snr_stop_db: float = 24.0
    snr_step_db: float = 2.0
    trials_max: int = 1_000_000
    min_errors: int = 100
    master_seed: int = 1
    workers: int = 1
    fixed_delta: Optional[float] = None
    output_path: str = "ser_results.csv"
    format: str = "csv"
    record_timing: bool = False
    points: tuple[GridPoint, ...] = field(init=False, compare=False, repr=False)
    stop: StoppingRule = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        def snrs() -> list[float]:
            axis = snr_axis(self.snr_start_db, self.snr_stop_db, self.snr_step_db)
            for snr in axis:
                noise_variance(snr)
            return axis

        checks = (
            ("sf", lambda: [validate_sf(sf) for sf in self.sf_list]),
            ("waveform", lambda: [ChipWaveform(tok) for tok in self.waveforms]),
            ("delta-s", lambda: [validate_delta_s(ds) for ds in self.delta_s_list]),
            ("snr", snrs),
            ("trials-max", lambda: StoppingRule(max_trials=self.trials_max)),
            ("min-errors", lambda: StoppingRule(self.trials_max, self.min_errors)),
            ("seed", lambda: validate_int(self.master_seed, "master_seed", 0)),
            ("workers", lambda: validate_int(self.workers, "workers", 1)),
            ("fixed-delta", lambda: _fixed_offset(self.fixed_delta)),
            ("output", lambda: os.fspath(self.output_path)),
        )
        built = {}
        for key, check in checks:
            try:
                built[key] = check()
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{key}: {exc}") from None
            if key in ("sf", "waveform", "delta-s") and not built[key]:
                raise ValueError(f"{key} list is empty")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format: expected csv or json, got {self.format!r}")
        grid = itertools.product(*(built[key] for key in ("sf", "waveform", "delta-s", "snr")))
        points = sorted(
            {GridPoint(*coords) for coords in grid},
            key=lambda p: (p.sf, p.waveform.kind, p.delta_s, p.snr_db),
        )
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "stop", built["min-errors"])
        object.__setattr__(self, "fixed_delta", built["fixed-delta"])


def run_sweep(
    config: SweepConfig,
    progress: Optional[Callable[[int, int, SerEstimate], None]] = None,
) -> list[SerEstimate]:
    """Run every grid point of a sweep config, in the order of config.points."""
    workers = _pool_size(config.workers)
    executor = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    results: list[SerEstimate] = []
    try:
        for i, point in enumerate(config.points):
            est = run_point(
                point,
                config.stop,
                config.master_seed,
                workers=workers,
                fixed_delta=config.fixed_delta,
                executor=executor,
            )
            results.append(est)
            if progress is not None:
                progress(i + 1, len(config.points), est)
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
    return results
