#!/usr/bin/env python3
"""qslora benchmark: one workload, timed or traced, with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qslora is imported from ./src.
Each iteration is a fresh qslora process (closed loop, one client); the
loop runs until S seconds have passed, and each end-to-end metric is the
median over iterations. Before the first iteration and after each one,
bench/calibrate.py times a fixed kernel of the workload's shape in a
fresh interpreter; the gated time metrics are divided by the host speed
it shows (see iteration_metrics). --trace 1 adds traced passes after the
timed loop and reports per-layer metrics instead. Output checks run
after the timed loop. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; a JSON file with every
sample, the check list and the run manifest goes to bench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 150.0
SETUP_PROBES = 5
TRIALS_PER_CHUNK = 4096  # qslora.montecarlo.TRIALS_PER_CHUNK at the seed commit

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "cpu_norm_s": "s",
    "peak_rss_mb": "MB",
    "work_norm_per_s": "1/s",
}
# Raw medians printed in the summary lines and kept in the report.
RAW_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "work_per_s": "1/s",
    "trials_per_s": "1/s",
    "certify_chips_per_s": "1/s",
    "certify_s": "s",
    "oracle_s": "s",
    "host_factor": "ratio",
}
PER_LAYER_UNITS = {
    "montecarlo.points": "count",
    "montecarlo.run_point_s.p50": "s",
    "montecarlo.run_point_s.p98": "s",
    "montecarlo.run_point_self_s": "s",
    "montecarlo.chunks_submitted": "count",
    "montecarlo.chunks_cancelled": "count",
    "montecarlo.chunks_consumed": "count",
    "montecarlo.chunk_yield": "ratio",
    "montecarlo.trials_discarded": "count",
    "montecarlo.analytical_ser_sync_s": "s",
    "montecarlo.analytical_ser_sync.calls": "count",
    "channel.synthesize_chip_rows_s": "s",
    "channel.synthesize_chip_rows.calls": "count",
    "channel.rows_bytes": "B",
    "modulation.envelope_matrix.cache_misses": "count",
    "modulation.envelope_matrix_bytes": "B",
    "continuous_time.synthesize_s": "s",
    "continuous_time.matched_filter_chip_s": "s",
    "continuous_time.matched_filter_chip.calls": "count",
    "quadrature.integrate_s": "s",
    "quadrature.integrate.calls": "count",
    "quadrature.panels_per_chip": "count",
    "waveforms.sample_waveform_calls": "count",
    "cli.parse_config_s": "s",
    "cli.write_results_s": "s",
    "cli.output_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Launch:
    """One finished child process: its marks, resource use and outputs."""

    launched: float
    exit_code: int
    cpu_s: float
    peak_rss_mb: float
    stdout: Path
    marks: dict | None

    @property
    def ok(self) -> bool:
        return self.marks is not None

    @property
    def setup_s(self) -> float:
        return self.marks["ready"] - self.launched

    @property
    def wall_s(self) -> float:
        return self.marks["end"] - self.marks["ready"]


def launch(mode: str, commands: list[list[str]], run_dir: Path, tag: str) -> Launch:
    """Run bench/child.py in MODE on the command lines and wait for it."""
    stdout = run_dir / f"{tag}.stdout"
    marks_path = run_dir / f"{tag}.marks.json"
    argv = [
        sys.executable, str(BENCH / "child.py"), mode, str(marks_path), str(SRC),
        json.dumps(commands),
    ]
    env = {k: v for k, v in os.environ.items() if k != "QSLORA_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    with open(stdout, "wb") as out, open(run_dir / f"{tag}.stderr", "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, cwd=ROOT, env=env, start_new_session=True
        )
        try:
            exit_code, usage = _wait(proc.pid, CHILD_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        proc.returncode = exit_code
    marks = None
    if exit_code == 0 and marks_path.exists():
        marks = json.loads(marks_path.read_text(encoding="utf-8"))
    # wait4 reports the child together with the workers it joined
    return Launch(
        launched=launched,
        exit_code=exit_code,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        marks=marks,
    )


def _wait(pid: int, timeout: float):
    deadline = time.monotonic() + timeout
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status), usage
        if time.monotonic() > deadline:
            raise TimeoutError(f"child {pid} ran longer than {timeout} s")
        time.sleep(0.02)


def calibration(kernel: str) -> float:
    """Seconds a calibration kernel takes in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "calibrate.py"), kernel], capture_output=True,
        text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------- manifest


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """sha256 over src/ file paths and contents, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu() -> dict:
    keys = ("Model name", "CPU(s)", "L1d cache", "L2 cache", "L3 cache")
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
    return {key: fields[key].strip() for key in keys if key in fields}


def manifest(args, commands: list[list[str]]) -> dict:
    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "master_seed": workloads.master_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": [["qslora", *command] for command in commands],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------- timed loop


def iteration_metrics(workload: str, done: Launch, commands, output: Path,
                      host_factor: float) -> dict:
    """One iteration's raw metrics, and the gated ones divided by host_factor.

    host_factor is the workload's calibration kernel's time around the
    iteration over its nominal time: 1.2 means the host ran fresh processes
    20% slower than the machine behind calibrate.NOMINAL_S did.
    """
    sample = {
        "setup_s": done.setup_s,
        "wall_s": done.wall_s,
        "cpu_s": done.cpu_s,
        "peak_rss_mb": done.peak_rss_mb,
    }
    if workloads.WORKLOADS[workload]["kind"] == "sweep":
        trials = sum(int(row["trials"]) for row in checks.read_sweep(output))
        sample["trials"] = trials
        sample["trials_per_s"] = sample["work_per_s"] = trials / done.wall_s
    else:
        certify_s, oracle_s = done.marks["sections"]
        chips = workloads.certify_chips(commands[0])
        sample["certify_s"], sample["oracle_s"] = certify_s, oracle_s
        sample["certify_chips_per_s"] = sample["work_per_s"] = chips / certify_s
    sample["host_factor"] = host_factor
    sample["wall_norm_s"] = sample["wall_s"] / host_factor
    sample["cpu_norm_s"] = sample["cpu_s"] / host_factor
    sample["work_norm_per_s"] = sample["work_per_s"] * host_factor
    return sample


def output_checks(workload: str, first: Launch, output: Path, commands) -> list:
    oracle = checks.oracle_table()
    if workloads.WORKLOADS[workload]["kind"] == "sweep":
        reference = checks.read_sweep(checks.TABLES / f"{workload}.reference.csv")
        return checks.check_sweep(checks.read_sweep(output), oracle, reference)
    certify, values = checks.split_reference_stdout(first.stdout.read_text(encoding="utf-8"))
    sfs = commands[0][commands[0].index("--sf") + 1].split(",")
    waveforms = commands[0][commands[0].index("--waveform") + 1].split(",")
    oracle_sfs = commands[1][commands[1].index("--sf") + 1].split(",")
    return checks.check_certify(certify, len(sfs) * len(waveforms)) + checks.check_oracle(
        values, oracle, len(oracle_sfs)
    )


# ---------------------------------------------------------------- tracing


def span_stats(spans) -> dict:
    """Per span name: calls, inclusive total, self total and durations."""
    child_time: dict[int, float] = {}
    for _, _, parent, start, end in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats: dict[str, dict] = {}
    for name, span_id, _, start, end in spans:
        entry = stats.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": []})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time.get(span_id, 0.0)
        entry["durations"].append(end - start)
    return stats


_NO_SPANS = {"calls": 0, "total": 0.0, "self": 0.0, "durations": []}


def _stat(stats: dict, name: str) -> dict:
    return stats.get(name, _NO_SPANS)


def layer_metrics(inproc: Launch, config: Launch, rows, output_bytes: int,
                  untraced_wall: float) -> dict:
    """Per-layer metrics from the in-process pass and the workload-config pass.

    inproc runs every chunk in the traced process; config runs the
    workload's own worker count (the same pass unless the workload uses
    worker processes). A layer the workload does not reach reads 0.
    """
    own = span_stats(inproc.marks["spans"])
    cfg = span_stats(config.marks["spans"])
    counts = inproc.marks["counts"]
    shapes = inproc.marks["rows_shapes"]

    trials = sum(int(row["trials"]) for row in rows)
    consumed = sum(-(-int(row["trials"]) // TRIALS_PER_CHUNK) for row in rows)
    pools = config.marks["pool"]
    if pools:
        submitted = sum(pool["submitted"] for pool in pools)
        cancelled = sum(pool["cancelled"] for pool in pools)
    else:
        submitted = _stat(own, "channel.synthesize_chip_rows")["calls"] if rows else 0
        cancelled = 0
    used = submitted - cancelled
    mf_calls = _stat(own, "continuous_time.matched_filter_chip")["calls"]
    run_point = _stat(cfg, "montecarlo.run_point")["durations"]
    return {
        "montecarlo.points": len(run_point),
        "montecarlo.run_point_s.p50": quantile(run_point, 0.5),
        "montecarlo.run_point_s.p98": quantile(run_point, 0.98),
        "montecarlo.run_point_self_s": _stat(own, "montecarlo.run_point")["self"],
        "montecarlo.chunks_submitted": submitted,
        "montecarlo.chunks_cancelled": cancelled,
        "montecarlo.chunks_consumed": consumed,
        "montecarlo.chunk_yield": consumed / used if used else 0.0,
        "montecarlo.trials_discarded": consumed * TRIALS_PER_CHUNK - trials,
        "montecarlo.analytical_ser_sync_s": _stat(own, "montecarlo.analytical_ser_sync")["total"],
        "montecarlo.analytical_ser_sync.calls": _stat(own, "montecarlo.analytical_ser_sync")["calls"],
        "channel.synthesize_chip_rows_s": _stat(own, "channel.synthesize_chip_rows")["total"],
        "channel.synthesize_chip_rows.calls": _stat(own, "channel.synthesize_chip_rows")["calls"],
        "channel.rows_bytes": max((n * m * 16 for n, m in shapes), default=0),
        "modulation.envelope_matrix.cache_misses": inproc.marks["envelope_cache_misses"],
        "modulation.envelope_matrix_bytes": sum(m * m * 16 for m in {m for _, m in shapes}),
        "continuous_time.synthesize_s": _stat(own, "continuous_time.synthesize")["total"],
        "continuous_time.matched_filter_chip_s": _stat(own, "continuous_time.matched_filter_chip")["total"],
        "continuous_time.matched_filter_chip.calls": mf_calls,
        "quadrature.integrate_s": _stat(own, "quadrature.integrate")["total"],
        "quadrature.integrate.calls": _stat(own, "quadrature.integrate")["calls"],
        "quadrature.panels_per_chip": (
            counts.get("quadrature.integrand_evaluations", 0) / 2 / mf_calls if mf_calls else 0.0
        ),
        "waveforms.sample_waveform_calls": counts.get("waveforms.sample_waveform", 0),
        "cli.parse_config_s": _stat(cfg, "cli.parse_config")["total"],
        "cli.write_results_s": _stat(cfg, "cli.write_results")["total"],
        "cli.output_bytes": output_bytes,
        "trace.wall_s": config.wall_s,
        "trace.overhead_s": config.wall_s - untraced_wall,
    }


def traced_passes(workload: str, seed: int, run_dir: Path, first: Launch, first_output: Path):
    """Run the traced passes; return ((inproc, config, rows, output bytes), checks).

    A sweep is traced at workers=1, so every chunk runs in the traced
    process, and, if the workload uses worker processes, once more at its
    own worker count with a counting executor. Both must write the bytes
    of the timed run.
    """
    commands = workloads.invocations(workload, seed, "")
    if workloads.WORKLOADS[workload]["kind"] == "reference":
        ref = launch("trace", commands, run_dir, "trace")
        found = [("trace.exit", ref.ok, f"exit {ref.exit_code}")]
        if not ref.ok:
            return None, found
        same = ref.stdout.read_bytes() == first.stdout.read_bytes()
        found.append(("trace.same_output", same, "traced stdout equals timed stdout"))
        return (ref, ref, [], ref.stdout.stat().st_size), found

    out_w1 = run_dir / "trace-w1.csv"
    w1_commands = [
        workloads.with_flag(command, "--workers", 1)
        for command in workloads.invocations(workload, seed, str(out_w1))
    ]
    inproc = config = launch("trace", w1_commands, run_dir, "trace-w1")
    found = [("trace.w1.exit", inproc.ok, f"exit {inproc.exit_code}")]
    if not inproc.ok:
        return None, found
    found.append((
        "trace.w1.same_bytes", out_w1.read_bytes() == first_output.read_bytes(),
        "workers=1 traced output equals the timed output byte for byte",
    ))
    out_cfg = out_w1
    if workloads.with_flag(commands[0], "--workers", 1) != commands[0]:
        out_cfg = run_dir / "trace-pool.csv"
        pool_commands = workloads.invocations(workload, seed, str(out_cfg))
        config = launch("trace-pool", pool_commands, run_dir, "trace-pool")
        found.append(("trace.pool.exit", config.ok, f"exit {config.exit_code}"))
        if not config.ok:
            return None, found
        found.append((
            "trace.pool.same_bytes", out_cfg.read_bytes() == first_output.read_bytes(),
            "traced output equals the timed output byte for byte",
        ))
    rows = checks.read_sweep(out_cfg)
    if config.marks["pool"]:
        consumed = sum(pool["consumed"] for pool in config.marks["pool"])
        expected = sum(-(-int(row["trials"]) // TRIALS_PER_CHUNK) for row in rows)
        found.append((
            "trace.pool.consumed", consumed == expected,
            f"executor saw {consumed} chunks consumed, trial counts imply {expected}",
        ))
    return (inproc, config, rows, out_cfg.stat().st_size), found


# ---------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its child through launch()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "qslora" / "__init__.py").is_file():
        print(f"error: no qslora sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    run_dir = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, run_dir: Path) -> int:
    workload = args.workload
    kind = workloads.WORKLOADS[workload]["kind"]
    first_output = run_dir / "iter0.csv"
    commands = workloads.invocations(workload, args.seed, str(first_output))
    info = manifest(args, workloads.invocations(workload, args.seed, "OUTPUT"))

    setups = []
    for i in range(SETUP_PROBES):
        probe = launch("setup", commands, run_dir, f"setup{i}")
        if probe.ok:
            setups.append(probe.setup_s)

    found: list = []
    samples: list[dict] = []
    digests: list[str] = []
    first = None
    kernel = workloads.WORKLOADS[workload]["calibration"]
    calibrations = [calibration(kernel)]
    start = time.monotonic()
    i = 0
    while i == 0 or time.monotonic() - start < args.seconds:
        output = run_dir / f"iter{i}.csv"
        iteration = workloads.invocations(workload, args.seed, str(output))
        done = launch("run", iteration, run_dir, f"iter{i}")
        calibrations.append(calibration(kernel))
        found.append((f"iteration{i}.exit", done.ok, f"exit {done.exit_code}"))
        if done.ok:
            host_factor = (calibrations[-2] + calibrations[-1]) / 2 / calibrate.NOMINAL_S[kernel]
            samples.append(iteration_metrics(workload, done, iteration, output, host_factor))
            digests.append(sha256(output if kind == "sweep" else done.stdout))
            if first is None:
                first, first_output = done, output
            elif kind == "sweep":
                output.unlink()
        i += 1
    if first is None:
        print("error: no iteration of the workload completed", file=sys.stderr)
        return 1

    found += output_checks(workload, first, first_output, commands)
    found += [
        (f"iteration{j}.same_output", digest == digests[0], "same seed, same bytes")
        for j, digest in enumerate(digests[1:], start=1)
    ]
    setups += [sample["setup_s"] for sample in samples]
    medians = {
        key: statistics.median(sample[key] for sample in samples)
        for key in samples[0]
    }
    medians["setup_s"] = statistics.median(setups)

    layers = None
    if args.trace:
        traced, trace_checks = traced_passes(workload, args.seed, run_dir, first, first_output)
        found += trace_checks
        if traced is not None:
            inproc, config, rows, output_bytes = traced
            layers = layer_metrics(inproc, config, rows, output_bytes, medians["wall_s"])

    failed = [check for check in found if not check[1]]
    result_metrics = (
        {name: {"value": medians[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        if not args.trace
        else {name: {"value": (layers or {}).get(name, 0.0), "unit": unit}
              for name, unit in PER_LAYER_UNITS.items()}
    )

    stream = None
    if kind == "sweep":
        table = json.loads((checks.TABLES / "digests.json").read_text(encoding="utf-8"))
        want = table.get(workload, {}).get(str(workloads.master_seed(args.seed)))
        stream = {"sha256": digests[0], "seed_commit_sha256": want,
                  "stream_identical": None if want is None else digests[0] == want}

    report = {
        "manifest": info,
        "iterations": len(samples),
        "samples": samples,
        "setup_samples_s": setups,
        "calibration_samples_s": calibrations,
        "medians": medians,
        "failed_share": len(failed) / len(found),
        "stream": stream,
        "per_layer": layers,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in found],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")

    _print_summary(workload, report, failed)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(found),
        "failed": len(failed),
        "metrics": result_metrics,
    }))
    return 0


def _print_summary(workload: str, report: dict, failed: list) -> None:
    units = {**END_TO_END_UNITS, **RAW_UNITS}
    print(f"workload {workload}: {report['iterations']} iterations, "
          f"{len(report['setup_samples_s'])} setup samples")
    for name, value in report["medians"].items():
        if name in units:
            print(f"  {name:<22} {value:14.6g} {units[name]}")
    print(f"  {'failed_share':<22} {report['failed_share']:14.6g} ratio")
    if report["stream"]:
        print(f"  stream sha256 {report['stream']['sha256']} "
              f"identical to seed commit: {report['stream']['stream_identical']}")
    for name, value in (report["per_layer"] or {}).items():
        print(f"  {name:<42} {value:14.6g} {PER_LAYER_UNITS[name]}")
    for name, _, detail in failed:
        print(f"  FAILED {name}: {detail}")


if __name__ == "__main__":
    sys.exit(main())
