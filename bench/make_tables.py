#!/usr/bin/env python3
"""Regenerate the committed tables under bench/tables/.

    python3 bench/make_tables.py [oracle] [reference] [digests]

Run from the root of a source checkout at the commit the tables should
describe (they were made at the seed commit). With no argument all three
are made:

    oracle.json              analytical synchronous SER for every (sf, snr)
                             a workload or check needs
    <workload>.reference.csv independent sweep of each sweep workload's
                             points, master seed REFERENCE_SEED, no early
                             stopping, 4-5x the trials
    digests.json             sha256 of each sweep workload's output for
                             every master seed the benchmark can use
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLES = Path(__file__).resolve().parent / "tables"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from qslora import cli  # noqa: E402
from qslora.montecarlo import analytical_ser_sync, snr_axis  # noqa: E402

SWEEPS = {"grid-w2": workloads.GRID_SWEEP, "sf10-w1": workloads.SF10_SWEEP}
REFERENCE_TRIALS = {"grid-w2": 5 * 4096, "sf10-w1": 4 * 4096}


def oracle_points() -> list[tuple[int, float]]:
    points = set()
    for argv in [*SWEEPS.values(), workloads.ORACLE]:
        config = cli.parse_config([a for a in argv if a not in ("sweep", "oracle")])
        start, stop, step = config.snr_start_db, config.snr_stop_db, config.snr_step_db
        points |= {(sf, snr) for sf in config.sf_list for snr in snr_axis(start, stop, step)}
    return sorted(points)


def make_oracle() -> None:
    rows = [
        {"sf": sf, "snr_db": snr, "ser": analytical_ser_sync(sf, snr)}
        for sf, snr in oracle_points()
    ]
    (TABLES / "oracle.json").write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


def make_reference() -> None:
    for name, argv in SWEEPS.items():
        command = workloads.with_flag(list(argv), "--trials-max", REFERENCE_TRIALS[name])
        command = workloads.with_flag(command, "--min-errors", 0)
        out = TABLES / f"{name}.reference.csv"
        if cli.main([*command, "--seed", str(workloads.REFERENCE_SEED), "-o", str(out)]) != 0:
            raise SystemExit(f"reference sweep for {name} failed")


def make_digests() -> None:
    table: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for name in SWEEPS:
            table[name] = {}
            for seed in range(workloads.VARIANTS):
                out = Path(tmp) / "out.csv"
                (command,) = workloads.invocations(name, seed, str(out))
                if cli.main(command) != 0:
                    raise SystemExit(f"{name} sweep with seed {seed} failed")
                table[name][str(workloads.master_seed(seed))] = hashlib.sha256(
                    out.read_bytes()
                ).hexdigest()
    (TABLES / "digests.json").write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    TABLES.mkdir(exist_ok=True)
    jobs = {"oracle": make_oracle, "reference": make_reference, "digests": make_digests}
    for job in sys.argv[1:] or list(jobs):
        jobs[job]()
