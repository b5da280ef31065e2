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

Stream v2: a chunk of n trials draws, in this order, the previous symbols
(n), the current symbols (n), the offsets through channel.draw_offset (none
at delta_s = 0 or under fixed_delta), then the real and the imaginary part
of the bin noise, (n, M) each, scaled by sqrt(N0/2). A trial is the
closed-form despread vector of correlations.analytic_decision_statistic plus
that noise: despreading is unitary, so white chip noise is white bin noise
of the same N0, and no chips are synthesized. Detection picks the smallest
index maximizing |stats[m]|; a trial errs when that index is not x_cur.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import mpmath as mp
import numpy as np

from .channel import draw_offset, validate_delta_s, validate_offset
from .channel import synthesize_chip_rows  # noqa: F401 -- bench/tracing.py wraps this binding
from .correlations import analytic_decision_statistic
from .modulation import symbol_cardinality, validate_sf
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
    "sweep_points",
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
        if self.max_trials < 1:
            raise ValueError(f"max_trials must be >= 1, got {self.max_trials}")
        if self.min_errors < 0:
            raise ValueError(f"min_errors must be >= 0, got {self.min_errors}")


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
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= errors <= trials:
        raise ValueError(f"need 0 <= errors <= trials, got {errors}/{trials}")
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


def analytical_ser_sync(sf: int, snr_db: float) -> float:
    """Exact SER of noncoherent M-ary orthogonal signaling (synchronous case).

    P_e = sum_{j=1}^{M-1} (-1)^(j+1) C(M-1, j) exp(-gamma j/(j+1)) / (j+1)
    with gamma = 10^(snr_db/10). The alternating sum loses all float64
    precision beyond sf ~7 (terms grow like 2^M), so it is evaluated with
    exact integer binomials and mpmath at working precision scaled to M.
    """
    m = symbol_cardinality(sf)
    digits = int(0.302 * m) + 30
    with mp.workdps(digits):
        gamma = mp.mpf(10.0) ** (mp.mpf(snr_db) / 10.0)
        total = mp.mpf(0)
        for j in range(1, m):
            term = mp.mpf(math.comb(m - 1, j)) * mp.exp(-gamma * j / (j + 1)) / (j + 1)
            total = total + term if j % 2 == 1 else total - term
        return float(total)


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


def _chunk_error_flags(
    point: GridPoint,
    master_seed: int,
    chunk_index: int,
    fixed_delta: Optional[float] = None,
) -> np.ndarray:
    """Detection-error flags for one full chunk of trials (stream v2, vectorized)."""
    rng = _chunk_rng(point, master_seed, chunk_index)
    m = symbol_cardinality(point.sf)
    n = TRIALS_PER_CHUNK
    x_prev = rng.integers(0, m, size=n)
    x_cur = rng.integers(0, m, size=n)
    if fixed_delta is not None:
        delta = fixed_delta
    else:
        delta = draw_offset(point.delta_s, rng, n)
    stats = analytic_decision_statistic(x_prev, x_cur, delta, point.waveform, point.sf)
    scale = math.sqrt(noise_variance(point.snr_db) / 2.0)
    stats.real += scale * rng.standard_normal((n, m))
    stats.imag += scale * rng.standard_normal((n, m))
    detected = np.argmax(np.abs(stats), axis=1)
    return detected != x_cur


def _pool_size(workers: int) -> int:
    """Worker processes for a pool: past the CPU count they only add idle forks."""
    return min(workers, os.cpu_count() or 1)


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
    fixed_delta, when given, replaces the offset draw for every trial; its
    magnitude must be <= 0.5.
    """
    workers = _pool_size(workers)
    if fixed_delta is not None:
        fixed_delta = validate_offset(fixed_delta)
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
        inflight = max(2 * max(workers, 1), 2)
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
    value (validate_sf, ChipWaveform, validate_delta_s, snr_axis and
    noise_variance, StoppingRule, SeedSequence, validate_offset); a bad
    field raises ValueError whose message starts with the field's config
    key (sf, waveform, delta-s, snr, ...). These defaults are the only ones; the CLI passes only the
    fields a flag, the environment or a config file set.
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

    def __post_init__(self) -> None:
        for key, values in (
            ("sf", self.sf_list),
            ("waveform", self.waveforms),
            ("delta-s", self.delta_s_list),
        ):
            if not values:
                raise ValueError(f"{key} list is empty")
        checks = (
            ("sf", lambda: [validate_sf(sf) for sf in self.sf_list]),
            ("waveform", lambda: [ChipWaveform(tok) for tok in self.waveforms]),
            ("delta-s", lambda: [validate_delta_s(ds) for ds in self.delta_s_list]),
            ("snr", lambda: [
                noise_variance(snr)
                for snr in snr_axis(self.snr_start_db, self.snr_stop_db, self.snr_step_db)
            ]),
            ("trials-max", lambda: StoppingRule(max_trials=self.trials_max)),
            ("min-errors", lambda: StoppingRule(min_errors=self.min_errors)),
            ("seed", lambda: np.random.SeedSequence(self.master_seed)),
            ("fixed-delta", lambda: self.fixed_delta is None or validate_offset(self.fixed_delta)),
        )
        for key, check in checks:
            try:
                check()
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        if self.workers < 1:
            raise ValueError(f"workers: must be >= 1, got {self.workers}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format: expected csv or json, got {self.format!r}")


def sweep_points(config: SweepConfig) -> list[GridPoint]:
    """Expand a sweep config into an ordered list of grid points.

    Ordering is (sf, waveform token, delta_s, snr_db) so output layout is
    independent of how the axes were listed; equal coordinates give one point.
    """
    waveforms = [ChipWaveform(tok) for tok in config.waveforms]
    snrs = snr_axis(config.snr_start_db, config.snr_stop_db, config.snr_step_db)
    points = {
        GridPoint(sf=int(sf), waveform=wf, delta_s=ds, snr_db=snr)
        for sf in config.sf_list
        for wf in waveforms
        for ds in config.delta_s_list
        for snr in snrs
    }
    return sorted(points, key=lambda p: (p.sf, p.waveform.kind, p.delta_s, p.snr_db))


def run_sweep(
    config: SweepConfig,
    progress: Optional[Callable[[int, int, SerEstimate], None]] = None,
) -> list[SerEstimate]:
    """Run every grid point of a sweep config; see sweep_points for ordering."""
    points = sweep_points(config)
    stop = StoppingRule(max_trials=config.trials_max, min_errors=config.min_errors)
    workers = _pool_size(config.workers)
    executor = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    results: list[SerEstimate] = []
    try:
        for i, point in enumerate(points):
            est = run_point(
                point,
                stop,
                config.master_seed,
                workers=workers,
                fixed_delta=config.fixed_delta,
                executor=executor,
            )
            results.append(est)
            if progress is not None:
                progress(i + 1, len(points), est)
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
    return results
