"""Monte-Carlo SER estimation over the (sf, waveform, delta_s, snr) grid.

Reproducibility contract: every trial outcome is a pure function of
(master_seed, grid point, trial_index). Trials are grouped into fixed-size
chunks; each chunk gets an independent stream, an SFC64 bit generator seeded
by SeedSequence(master_seed, spawn_key=(point_hash..., chunk_index)) where
point_hash is derived from the point's own coordinates. SFC64 is not
counter-based: no chunk skips ahead in a shared stream, and each chunk's
stream is a function of its seed alone. A chunk always draws full-size
arrays in a fixed order and decides only the trials it keeps (all of them,
or what is left of max_trials in the last chunk), so truncating at
max_trials or stopping early never shifts the stream, and results are
identical for any worker count. Adding or removing other grid points
cannot change a point's estimate because nothing but the point's
coordinates enters its seed derivation.

The random stream's version is STREAM_VERSION (5): a change to the trial
outcomes that a seed gives comes with a new version. A trial's despread
vector holds at most three distinct noise-free values (the closed form in
qslora.channel): a in bin x_cur, b in the spill bin x_cur + 2*sign(delta),
and the boundary term c in the M - 2 others (c = 0 unless delta < 0).
Despreading is unitary, so white chip noise is white bin noise of the same
N0, and no chips are synthesized. That noise is circular and independent
across bins, so the decision's law depends only on the moduli |a|, |b| and
|c|, and stream v5 works with those alone, from channel._amplitudes. A bin
of modulus r and noise (n_re, n_im) has the energy (r + n_re)**2 + n_im**2.
The kernel draws its symbols and offsets in range, so it calls channel's
unchecked cores. A chunk of n trials draws, in this order:

1. the previous symbols (n) and the current symbols (n), as one (2, n)
   draw, which gives the same numbers as two draws of n,
2. the offsets through channel._offsets (none at delta_s = 0 or under
   fixed_delta),
3. the noise of a and of b: real then imaginary parts, n each, scaled by
   sqrt(N0/2), as one (4, n) draw, which gives the same numbers as four
   draws of n,
4. one uniform U on [0, 1) per trial (n).

The M - 2 other bins are decided at U by qslora.rice._others_reach, which
draws their largest energy by inversion and so costs O(1) per trial at any
spreading factor. A trial errs when |b|^2 >= |a|^2 or when the other bins
reach |a|^2: a tie with the wanted bin counts as an error. The SNR lies in
channel.validate_snr's [-300, 300] dB, so N0 lies in [1e-30, 1e30] and every
energy the kernel forms stays below about 1e31.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .channel import _amplitudes, _offsets, noise_variance, validate_offset
from .channel import synthesize_chip_rows  # noqa: F401 -- bench/tracing.py wraps this binding
from .grid import Grid, GridPoint, _read_fields
from .grid import snr_axis  # noqa: F401 -- bench/make_tables.py imports it from here
from .modulation import symbol_cardinality, validate_int, validate_real, validate_type
from .rice import _others_reach
from .rice import analytical_ser_sync  # noqa: F401 -- bench/make_tables.py imports it from here

__all__ = [
    "STREAM_VERSION",
    "TRIALS_PER_CHUNK",
    "StoppingRule",
    "SerEstimate",
    "wilson_interval",
    "run_point",
    "SweepConfig",
    "run_sweep",
]

STREAM_VERSION = 5  # the random stream of the module docstring
TRIALS_PER_CHUNK = 4096
_Z95 = 1.959963984540054  # two-sided 95% normal quantile
# chunks in flight per worker that certain chunks may fill (_estimates);
# speculative ones stop at 2 per worker. A chunk waits about 2 ms from
# submission to start and takes about 0.85 ms on the benchmark's grid-w2
# sweep, so at 2 per worker each worker idled about half the time. At 4,
# about 3 chunks queue behind the one a worker runs, which covers that wait;
# 8 and 16 measured the same within noise on grid-w2 at 2 workers, so 4 is
# the smallest depth that keeps the gain.
_CERTAIN_PER_WORKER = 4


@dataclass(frozen=True)
class StoppingRule:
    """Stop a point after max_trials, or earlier once min_errors are seen.

    min_errors = 0 disables early stopping.
    """

    max_trials: int = 1_000_000
    min_errors: int = 100

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_trials", validate_int(self.max_trials, "max_trials", 1))
        object.__setattr__(self, "min_errors", validate_int(self.min_errors, "min_errors", 0))


@dataclass(frozen=True)
class SerEstimate:
    """SER (ser) and Wilson 95% interval (ci_low, ci_high) derived from counts.

    elapsed is wall-clock seconds from the submission of the point's first
    chunk to its decision; at workers > 1 the sweep runs points side by
    side, so the elapsed of neighbouring points overlap. It is excluded
    from equality so that estimates from different runs or worker counts
    compare equal. Construction checks that point is a GridPoint and the
    counts as wilson_interval does, and stores seed (an integer >= 0) and
    elapsed (a real >= 0) as checked.
    """

    point: GridPoint
    trials: int
    errors: int
    seed: int
    elapsed: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        validate_type(self.point, GridPoint, "point")
        wilson_interval(self.errors, self.trials)  # checks 0 <= errors <= trials, trials >= 1
        object.__setattr__(self, "seed", validate_int(self.seed, "seed", 0))
        object.__setattr__(self, "elapsed", validate_real(self.elapsed, "elapsed", 0))

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


@functools.lru_cache(maxsize=1024)
def _point_spawn_key(point: GridPoint) -> tuple[int, int, int, int]:
    """Four uint32 words hashed from the point's canonical coordinates.

    Cached, so that each process hashes a point once rather than once per chunk.
    """
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
    return np.random.Generator(np.random.SFC64(seq))


def _bin_noise(rng: np.random.Generator, sigma: float, n: int) -> np.ndarray:
    """The real and imaginary noise of bins a and b, rows in that order, sigma * N(0, 1).

    One (4, n) draw gives the same numbers as four draws of n.
    """
    noise = rng.standard_normal((4, n))
    noise *= sigma
    return noise


def _noisy_energy(amp: np.ndarray, real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """(amp + real)**2 + imag**2, formed in place in real (imag is overwritten).

    The noise is circular, so the energy of a bin of modulus amp has this law
    whatever the bin's phase."""
    real += amp
    np.square(real, out=real)
    np.square(imag, out=imag)
    real += imag
    return real


def _chunk_error_flags(
    point: GridPoint,
    master_seed: int,
    chunk_index: int,
    fixed_delta: Optional[float] = None,
    trials: int = TRIALS_PER_CHUNK,
) -> np.ndarray:
    """Detection-error flags of the first trials of one chunk (stream v5, vectorized).

    Every array is drawn at full chunk size, so the stream does not depend
    on trials; only the kept trials are decided.
    """
    rng = _chunk_rng(point, master_seed, chunk_index)
    m = symbol_cardinality(point.sf)
    n = TRIALS_PER_CHUNK
    x_prev, x_cur = rng.integers(0, m, size=(2, n))[:, :trials]
    if fixed_delta is not None:
        delta = np.full(trials, fixed_delta)
    else:
        delta = _offsets(point.delta_s, rng, n)[:trials]
    amp_a, amp_b, amp_c = _amplitudes(x_prev, x_cur, delta, point.waveform, m)
    n0 = noise_variance(point.snr_db)
    noise = _bin_noise(rng, math.sqrt(n0 / 2.0), n)[:, :trials]
    energy_a = _noisy_energy(amp_a, noise[0], noise[1])
    energy_b = _noisy_energy(amp_b, noise[2], noise[3])
    with np.errstate(divide="ignore"):  # U = 0
        log_u = np.log(rng.random(n)[:trials])
    return (energy_b >= energy_a) | _others_reach(energy_a, amp_c, n0, log_u, m - 2)


def _chunk_errors(
    point: GridPoint,
    master_seed: int,
    chunk_index: int,
    trials: int,
    fixed_delta: Optional[float],
) -> int:
    """Errors among the first trials of one chunk: the count a worker returns."""
    flags = _chunk_error_flags(point, master_seed, chunk_index, fixed_delta, trials)
    return int(np.count_nonzero(flags))


def _pool_size(workers: int) -> int:
    """Worker processes for a pool: past the CPUs this process may run on they
    only contend with the scheduler."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(workers, cpus)


class _PointRun:
    """One point's chunks, handed out and counted in index order.

    The stopping rule sees the cumulative counts after each chunk, so the
    estimate does not depend on when or where a chunk was computed.
    """

    def __init__(self, point: GridPoint, stop: StoppingRule, master_seed: int) -> None:
        self.point = point
        self.stop = stop
        self.master_seed = master_seed
        self.submitted = 0
        self.added = 0
        self.trials = 0
        self.errors = 0
        self.start = 0.0
        self.estimate: Optional[SerEstimate] = None

    def take(self) -> tuple[int, int]:
        """(index, trials taken) of the next chunk to compute; the first one
        starts the clock. A chunk's trials are the full chunk, or what is
        left of max_trials in the last one."""
        if not self.submitted:
            self.start = time.perf_counter()
        self.submitted += 1
        index = self.submitted - 1
        return index, min(TRIALS_PER_CHUNK, self.stop.max_trials - index * TRIALS_PER_CHUNK)

    def more(self) -> bool:
        """Whether a chunk below max_trials is still to be handed out."""
        return self.submitted * TRIALS_PER_CHUNK < self.stop.max_trials

    def add(self, errors: int) -> bool:
        """Count the next chunk's errors, among the trials take() gave it; True
        once the stopping rule ends the point."""
        self.added += 1
        self.errors += errors
        self.trials = min(self.added * TRIALS_PER_CHUNK, self.stop.max_trials)
        min_errors = self.stop.min_errors
        if self.trials >= self.stop.max_trials or (min_errors and self.errors >= min_errors):
            elapsed = time.perf_counter() - self.start
            self.estimate = SerEstimate(
                self.point, self.trials, self.errors, self.master_seed, elapsed
            )
        return self.estimate is not None


def _estimates(
    points: Sequence[GridPoint],
    stop: StoppingRule,
    master_seed: int,
    workers: int,
    fixed_delta: Optional[float],
    executor: Optional[ProcessPoolExecutor],
) -> Iterator[SerEstimate]:
    """Yield one SerEstimate per point, in the order of points.

    With one worker and no executor, each chunk is computed here when it is
    needed. Otherwise chunks are submitted, across the whole grid, in this
    order of preference:

    1. the next chunk of an unfinished point with nothing in flight, which
       is certain to be consumed;
    2. chunk 0 of the next unstarted point, which is always consumed;
    3. only when neither exists, a speculative next chunk of the earliest
       unfinished point, so that one long point still keeps every worker
       busy.

    Certain chunks (1 and 2) are submitted while fewer than
    _CERTAIN_PER_WORKER * workers futures are in flight, and a speculative
    one (3) only while fewer than 2 * workers are. So a speculative chunk
    never waits ahead of a certain one, and a lone point, whose certain
    chunks find nothing in flight, never has more than 2 * workers.

    A chunk comes back as the error count of the trials its point takes of
    it (_chunk_errors), fixed when it is submitted. Futures are read with a
    blocking result() in submission order, so each point's chunks are
    counted in index order while points may interleave.
    Once a point stops, its other futures are cancel()ed and never read.
    The pool is used through submit, result and cancel only; a pool built
    here (through the module name ProcessPoolExecutor) is shut down when the
    generator ends or is closed. An estimate's elapsed runs from the
    submission of its point's first chunk to its decision.
    """
    workers = _pool_size(workers)
    runs = [_PointRun(point, stop, master_seed) for point in points]
    if workers <= 1 and executor is None:
        for run in runs:
            while run.estimate is None:
                run.add(_chunk_errors(run.point, master_seed, *run.take(), fixed_delta))
            yield run.estimate
        return

    # numpy loads numpy.random on first use; loaded here, before the first
    # submit forks the workers, each worker inherits it instead of loading
    # it again before its first chunk
    import numpy.random  # noqa: F401

    pool = executor if executor is not None else ProcessPoolExecutor(max_workers=workers)
    flight: deque = deque()  # (run, future), in submission order
    unfinished: list[_PointRun] = []  # started and not stopped, in grid order
    started = 0
    yielded = 0
    try:
        while yielded < len(runs):
            while True:
                run = None
                if len(flight) < _CERTAIN_PER_WORKER * workers:
                    run = next((r for r in unfinished if r.submitted == r.added), None)
                    if run is None and started < len(runs):
                        run = runs[started]
                        unfinished.append(run)
                        started += 1
                if run is None and len(flight) < 2 * workers:
                    run = next((r for r in unfinished if r.more()), None)
                if run is None:
                    break
                future = pool.submit(
                    _chunk_errors, run.point, master_seed, *run.take(), fixed_delta
                )
                flight.append((run, future))
            if runs[yielded].estimate is not None:
                yield runs[yielded].estimate
                yielded += 1
                continue
            run, future = flight.popleft()
            if run.add(future.result()):
                unfinished.remove(run)
                for other, pending in flight:
                    if other is run:
                        pending.cancel()
                flight = deque(item for item in flight if item[0] is not run)
    finally:
        for _, future in flight:
            future.cancel()
        if executor is None:
            pool.shutdown(wait=True, cancel_futures=True)


def run_point(
    point: GridPoint,
    stop: StoppingRule = StoppingRule(),
    master_seed: int = 1,
    workers: int = 1,
    fixed_delta: Optional[float] = None,
    executor: Optional[ProcessPoolExecutor] = None,
) -> SerEstimate:
    """Estimate the SER at one grid point under the stopping rule.

    This is the sweep's chunk scheduler (_estimates) on a one-point grid.
    Chunks are consumed strictly in index order and the stopping rule is
    evaluated on cumulative counts, so the estimate does not depend on how
    many workers computed the chunks. At most one worker per CPU this
    process may run on is used; executor, when given, is used in place of
    a pool of its own and is left open. fixed_delta, when given, replaces
    the offset draw for every trial: one real |delta| <= 0.5, never an
    array (channel.validate_offset). master_seed >= 0 and workers >= 1 are
    integers by modulation.validate_int, and point and stop a GridPoint and
    a StoppingRule (modulation.validate_type); all are checked before any
    chunk is computed or any pool starts. elapsed runs from the first
    submitted chunk to the decision.
    """
    validate_type(point, GridPoint, "point")
    validate_type(stop, StoppingRule, "stop")
    master_seed = validate_int(master_seed, "master_seed", 0)
    workers = validate_int(workers, "workers", 1)
    fixed_delta = None if fixed_delta is None else validate_offset(fixed_delta, "fixed_delta")
    scheduler = _estimates([point], stop, master_seed, workers, fixed_delta, executor)
    with closing(scheduler) as estimates:
        return next(estimates)


@dataclass(frozen=True)
class SweepConfig(Grid):
    """Fully resolved sweep parameters: a Grid (whose defaults span the full
    grid) and how its points are run, and nothing else.

    Construction reads every field once, through the loop Grid reads its
    axes with and the type that owns the value: StoppingRule for
    trials_max and min_errors, modulation.validate_int (master_seed >= 0,
    workers >= 1) and channel.validate_offset for fixed_delta. Each field
    keeps what its read returned, so numbers are Python ints and floats by
    the number rule of qslora.modulation, and the config equals, hashes
    and serializes (dataclasses.asdict) as the run it describes, however
    its values were given. Where the results go is not part of the run:
    the command line keeps its output flags. A bad value or a wrong type
    raises ValueError whose message starts with the field's config key
    (sf, waveform, delta-s, snr, trials-max, min-errors, seed, workers,
    fixed-delta). stop is the StoppingRule of trials_max and min_errors,
    and points, which run_sweep runs in order, is the Grid's. These
    defaults are the only run defaults; the CLI passes only the fields a
    flag, the environment or a config file set.
    """

    trials_max: int = StoppingRule.max_trials
    min_errors: int = StoppingRule.min_errors
    master_seed: int = 1
    workers: int = 1
    fixed_delta: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _read_fields(self, (
            ("trials-max", "trials_max", lambda: StoppingRule(self.trials_max).max_trials),
            ("min-errors", "min_errors", lambda: self.stop.min_errors),
            ("seed", "master_seed", lambda: validate_int(self.master_seed, "master_seed", 0)),
            ("workers", "workers", lambda: validate_int(self.workers, "workers", 1)),
            ("fixed-delta", "fixed_delta", lambda: None if self.fixed_delta is None
             else validate_offset(self.fixed_delta, "fixed_delta")),
        ))

    @property
    def stop(self) -> StoppingRule:
        """The stopping rule of trials_max and min_errors."""
        return StoppingRule(self.trials_max, self.min_errors)


def run_sweep(
    config: SweepConfig,
    progress: Optional[Callable[[int, int, SerEstimate], None]] = None,
) -> list[SerEstimate]:
    """Run every grid point of a sweep config, in the order of config.points.

    One chunk scheduler (_estimates) serves the whole grid, so at
    workers > 1 the chunks of later points run while an earlier point is
    still open, and each estimate's elapsed, from its point's first
    submitted chunk to its decision, may overlap its neighbours'. progress,
    when given, is called with (index from 1, point count, estimate) in
    grid order as each estimate is yielded. config must be a SweepConfig
    (modulation.validate_type) and progress None or callable, both checked
    before any chunk is computed.
    """
    validate_type(config, SweepConfig, "config")
    if progress is not None and not callable(progress):
        raise ValueError(f"progress must be None or callable, got {progress!r}")
    results: list[SerEstimate] = []
    scheduler = _estimates(
        config.points, config.stop, config.master_seed, config.workers, config.fixed_delta, None
    )
    with closing(scheduler) as estimates:
        for est in estimates:
            results.append(est)
            if progress is not None:
                progress(len(results), len(config.points), est)
    return results
