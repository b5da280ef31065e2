"""Output checks, run outside the timed window.

Each check returns a list of (name, ok, detail) tuples; the benchmark
counts them as attempted and failed. The statistical checks use Chernoff
bounds, which hold for any trial count, with a family-wise threshold
ALPHA split evenly over the points, so a correct program fails a whole
sweep with probability below ALPHA.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

ALPHA = 1e-6
ORACLE_RTOL = 1e-9
CERTIFY_TOL = 1e-6
TABLES = Path(__file__).resolve().parent / "tables"

Check = tuple[str, bool, str]


def _kl(a: float, b: float) -> float:
    """Bernoulli relative entropy KL(a || b) in nats, inf when impossible."""
    total = 0.0
    for x, y in ((a, b), (1.0 - a, 1.0 - b)):
        if x > 0.0:
            if y <= 0.0:
                return math.inf
            total += x * math.log(x / y)
    return total


def tail_bound(successes: int, trials: int, p: float) -> float:
    """Chernoff bound on the two-sided binomial tail at the observed count.

    Bounds P(|X/n - p| >= |k/n - p|) for X ~ Binomial(n, p) by
    2 exp(-n KL(k/n || p)); the bound also holds for the hypergeometric
    law, which the two-sample check conditions on.
    """
    if trials == 0:
        return 1.0
    return min(1.0, 2.0 * math.exp(-trials * _kl(successes / trials, p)))


def point_key(row: dict) -> tuple:
    return (int(row["sf"]), row["waveform"], float(row["delta_s"]), float(row["snr_db"]))


def read_sweep(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def oracle_table() -> dict[tuple[int, float], float]:
    """Committed analytical synchronous SER values keyed by (sf, snr_db)."""
    rows = json.loads((TABLES / "oracle.json").read_text(encoding="utf-8"))
    return {(row["sf"], row["snr_db"]): row["ser"] for row in rows}


def check_sweep(rows: list[dict], oracle: dict, reference: list[dict]) -> list[Check]:
    """Every point against the oracle (delta_s = 0) or the reference table.

    reference is an independent sweep of the same points with another
    master seed; it also fixes the set of points the output must hold.
    """
    ref = {point_key(row): row for row in reference}
    keys = [point_key(row) for row in rows]
    checks: list[Check] = [(
        "sweep.points", sorted(keys) == sorted(ref),
        f"{len(keys)} points, {len(ref)} expected",
    )]
    threshold = ALPHA / max(len(rows), 1)
    for row, key in zip(rows, keys):
        n, k = int(row["trials"]), int(row["errors"])
        name = "sweep.sf{}.{}.ds{:g}.snr{:g}".format(*key)
        if key not in ref:
            continue
        if key[2] == 0.0:
            p = oracle[(key[0], key[3])]
            bound = tail_bound(k, n, p)
            detail = f"{k}/{n} errors, oracle {p:.6g}, tail bound {bound:.3g}"
        else:
            n_ref, k_ref = int(ref[key]["trials"]), int(ref[key]["errors"])
            # given both error counts, this run's share of them is
            # hypergeometric with mean n / (n + n_ref) when both share an SER
            bound = tail_bound(k, k + k_ref, n / (n + n_ref))
            detail = f"{k}/{n} errors, reference {k_ref}/{n_ref}, tail bound {bound:.3g}"
        checks.append((name, bound >= threshold, detail))
    return checks


def check_certify(lines: list[str], expected: int) -> list[Check]:
    """Every certify line must report PASS with an error below CERTIFY_TOL."""
    checks: list[Check] = [("certify.lines", len(lines) == expected, f"{len(lines)} of {expected}")]
    for line in lines:
        fields = dict(item.split("=", 1) for item in line.split() if "=" in item)
        try:
            err = float(fields["max_abs_error"])
        except (KeyError, ValueError):
            checks.append((f"certify.{line}", False, "unparsable line"))
            continue
        ok = line.endswith(" PASS") and err < CERTIFY_TOL
        checks.append((f"certify.sf{fields.get('sf')}.{fields.get('waveform')}", ok, line))
    return checks


def check_oracle(lines: list[str], oracle: dict, expected: int) -> list[Check]:
    """Every oracle value must match the committed table to ORACLE_RTOL."""
    checks: list[Check] = [("oracle.lines", len(lines) == expected, f"{len(lines)} of {expected}")]
    for line in lines:
        try:
            sf, snr, ser = line.split()
            key = (int(sf), float(snr))
            want, got = oracle[key], float(ser)
        except (KeyError, ValueError):
            checks.append((f"oracle.{line}", False, "unparsable line or no table value"))
            continue
        ok = abs(got - want) <= ORACLE_RTOL * abs(want)
        checks.append((f"oracle.sf{key[0]}.snr{key[1]:g}", ok, f"{got!r} vs table {want!r}"))
    return checks


def split_reference_stdout(text: str) -> tuple[list[str], list[str]]:
    """certify lines and oracle value lines from one reference iteration."""
    lines = text.splitlines()
    certify = [line for line in lines if line.startswith("sf=")]
    oracle = [line for line in lines if line and line[0].isdigit()]
    return certify, oracle
