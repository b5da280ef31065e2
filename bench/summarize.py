#!/usr/bin/env python3
"""Median and quartiles per workload and metric over benchmark reports.

    python3 bench/summarize.py bench/out/results/*.json [--out FILE]

Timed reports (--trace 0) give, per workload and end-to-end metric, the
median, the quartiles as statistics.quantiles(values, n=4) gives them, and
the quartile spread as a share of the median. Traced reports give the
per-layer table (median over traced runs). The JSON goes to FILE, or to
standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

EXTRA = ("trials_per_s", "certify_chips_per_s", "certify_s", "oracle_s", "failed_share")
HOST = ("git_commit", "src_sha256", "seconds", "nproc", "cpu", "python", "numpy", "mpmath", "platform")


def summarize(reports: list[dict]) -> dict:
    timed: dict[str, dict[str, list[float]]] = {}
    traced: dict[str, dict[str, list[float]]] = {}
    manifests: dict[str, dict] = {}
    seeds: dict[str, list[int]] = {}
    for report in reports:
        workload = report["manifest"]["workload"]
        manifests.setdefault(workload, report["manifest"])
        if report["manifest"]["trace"]:
            for name, value in (report["per_layer"] or {}).items():
                traced.setdefault(workload, {}).setdefault(name, []).append(value)
            continue
        seeds.setdefault(workload, []).append(report["manifest"]["seed"])
        values = dict(report["medians"], failed_share=report["failed_share"])
        for name, value in values.items():
            timed.setdefault(workload, {}).setdefault(name, []).append(value)

    out: dict = {"workloads": {}}
    for workload in sorted(set(timed) | set(traced)):
        entry: dict = {
            "argv": manifests[workload]["argv"],
            "seeds": seeds.get(workload, []),
            "end_to_end": {},
            "per_layer": {},
        }
        for name, values in timed.get(workload, {}).items():
            if name == "trials":
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            entry["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3, "runs": len(values),
                "spread": (q3 - q1) / median if median else 0.0,
            }
        for name, values in traced.get(workload, {}).items():
            entry["per_layer"][name] = statistics.median(values)
        out["workloads"][workload] = entry
    first = next(iter(manifests.values()), {})
    out["manifest"] = {key: first[key] for key in HOST if key in first}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    summary = summarize([json.loads(p.read_text(encoding="utf-8")) for p in args.reports])
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    for workload, entry in summary["workloads"].items():
        for name, stats in entry["end_to_end"].items():
            if name in EXTRA or stats["runs"] > 1:
                print(f"{workload:<10} {name:<20} median {stats['median']:<12.6g} "
                      f"spread {stats['spread']:.4f} over {stats['runs']} runs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
