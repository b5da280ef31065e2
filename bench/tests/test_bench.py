"""Tests of the benchmark's own code: python3 -m pytest bench/tests -q"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import checks
import run
import workloads
from tracing import CountingExecutor

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_counting_executor_sees_speculative_chunks():
    from qslora.montecarlo import GridPoint, StoppingRule, run_point
    from qslora.waveforms import rectangular

    point = GridPoint(sf=4, waveform=rectangular(), delta_s=0.0, snr_db=-4.0)
    with CountingExecutor(max_workers=2) as pool:
        est = run_point(point, StoppingRule(3 * 4096, 100), 1, workers=2, executor=pool)
    counts = pool.counts
    assert counts["consumed"] == -(-est.trials // 4096)
    assert counts["submitted"] >= counts["consumed"] >= 1
    assert counts["submitted"] - counts["cancelled"] >= counts["consumed"]


def test_metric_names_are_well_formed_and_match_the_spec():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_workload_has_a_calibration_kernel_with_a_nominal_time():
    kernels = {spec["calibration"] for spec in workloads.WORKLOADS.values()}
    assert kernels <= set(calibrate.KERNELS) == set(calibrate.NOMINAL_S)
    assert run.calibration("interp") > 0
    assert calibrate.main(["nonsense"]) == 2


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_one_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace and workload == "grid-w2":
        assert 0 < result["metrics"]["montecarlo.chunk_yield"]["value"] < 1


# ---------------------------------------------------------------- planted faults


def _reference(workload="grid-w2"):
    return checks.read_sweep(checks.TABLES / f"{workload}.reference.csv")


def _failed(found):
    return [name for name, ok, _ in found if not ok]


def test_sweep_check_accepts_an_independent_correct_sweep():
    rows = _reference()
    assert _failed(checks.check_sweep(rows, checks.oracle_table(), rows)) == []


@pytest.mark.parametrize("delta_s", ["0.0", "0.6"])
def test_sweep_check_flags_a_wrong_error_count(delta_s):
    rows = [dict(row) for row in _reference()]
    target = next(r for r in rows if r["delta_s"] == delta_s and 1000 < int(r["errors"]) < 15000)
    target["errors"] = str(int(target["errors"]) * 9 // 10)
    failed = _failed(checks.check_sweep(rows, checks.oracle_table(), _reference()))
    assert len(failed) == 1 and failed[0].startswith("sweep.sf")


def test_sweep_check_flags_a_missing_point():
    rows = _reference()
    assert _failed(checks.check_sweep(rows[1:], checks.oracle_table(), rows)) == ["sweep.points"]


def test_certify_check_flags_fail_and_large_error():
    good = "sf=4 waveform=rect trials=50 max_abs_error=1.369e-15 PASS"
    assert _failed(checks.check_certify([good], 1)) == []
    assert len(_failed(checks.check_certify([good.replace("PASS", "FAIL")], 1))) == 1
    assert len(_failed(checks.check_certify([good.replace("1.369e-15", "2e-06")], 1))) == 1
    assert _failed(checks.check_certify([good], 2)) == ["certify.lines"]


def test_oracle_check_flags_a_perturbed_value():
    table = checks.oracle_table()
    (sf, snr), ser = next(iter(table.items()))
    assert _failed(checks.check_oracle([f"{sf} {snr:g} {ser!r}"], table, 1)) == []
    off = f"{sf} {snr:g} {ser * (1 + 1e-8)!r}"
    assert len(_failed(checks.check_oracle([off], table, 1))) == 1
    assert _failed(checks.check_oracle([], table, 1)) == ["oracle.lines"]


def test_tail_bound_is_loose_only_near_the_mean():
    assert checks.tail_bound(500, 1000, 0.5) == 1.0
    assert checks.tail_bound(600, 1000, 0.5) < 1e-8
    assert checks.tail_bound(0, 1000, 0.0) == 1.0
    assert checks.tail_bound(1, 1000, 0.0) == 0.0
