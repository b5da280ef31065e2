"""Command-line entry point, config parsing, and result serialization.

Subcommands:
    sweep    (default) run the Monte-Carlo SER sweep and write CSV/JSON
    certify  run the continuous-time model certification and report errors
    oracle   print the analytical synchronous SER table
    corr     print partial-autocorrelation tables for the chip waveforms

Exit status: 0 success, 1 runtime/I-O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from typing import Callable, Optional, Sequence, TextIO, TypeVar

import numpy as np

from .channel import validate_delta_s
from .continuous_time import certify_discrete_model
from .modulation import validate_sf
from .montecarlo import SerEstimate, SweepConfig, analytical_ser_sync, run_sweep, snr_axis
from .waveforms import (
    WAVEFORM_TOKENS,
    ChipWaveform,
    autocorr_overlapped,
    autocorr_overlapped_quad,
    autocorr_overlapping,
    autocorr_overlapping_quad,
)

T = TypeVar("T")

__all__ = [
    "SweepConfig",
    "parse_config",
    "write_results",
    "main",
]

SUBCOMMANDS = ("sweep", "certify", "oracle", "corr")
WORKERS_ENV_VAR = "QSLORA_WORKERS"
_ALL_WAVEFORMS = ",".join(WAVEFORM_TOKENS)


def _split_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(item) for item in _split_list(text))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(item) for item in _split_list(text))


def _snr_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected start:stop:step")
    start, stop, step = (float(part) for part in parts)
    return start, stop, step


def _sf_list(text: str) -> list[int]:
    return [validate_sf(sf) for sf in _ints(text)]


def _waveform_list(text: str) -> list[ChipWaveform]:
    return [ChipWaveform(token) for token in _split_list(text)]


def _snr_list(text: str) -> list[float]:
    return snr_axis(*_snr_range(text))


def _positive(value: float) -> float:
    if not value > 0:
        raise ValueError("must be > 0")
    return value


# config key -> (SweepConfig fields it sets, converter from the flag or
# config-file string); a key's flag dest is the key with "-" -> "_"
_CONFIG_KEYS: dict[str, tuple[tuple[str, ...], Callable[[str], object]]] = {
    "sf": (("sf_list",), _ints),
    "waveform": (("waveforms",), lambda text: tuple(_split_list(text))),
    "delta-s": (("delta_s_list",), _floats),
    "snr": (("snr_start_db", "snr_stop_db", "snr_step_db"), _snr_range),
    "trials-max": (("trials_max",), int),
    "min-errors": (("min_errors",), int),
    "seed": (("master_seed",), int),
    "workers": (("workers",), int),
    "fixed-delta": (("fixed_delta",), float),
    "output": (("output_path",), str),
    "format": (("format",), str),
}


def _convert(parser: argparse.ArgumentParser, key: str, convert: Callable[..., T], raw: object) -> T:
    """convert(raw), reporting a ValueError as a usage error (exit 2) naming key."""
    try:
        return convert(raw)
    except ValueError as exc:
        parser.error(f"invalid {key} value {raw!r}: {exc}")


def _read_config_file(path: str, error) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        error(f"cannot read config file: {exc}")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            error(f"config line {lineno} is not key=value: {raw.strip()!r}")
        key, val = line.split("=", 1)
        key = key.strip().lower().replace("_", "-")
        if key not in _CONFIG_KEYS:
            error(f"unknown config key: {key}")
        values[key] = val.strip()
    return values


def _build_sweep_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qslora sweep",
        description="Monte-Carlo SER sweep over (sf, waveform, delta-s, snr).",
    )
    p.add_argument("--sf", help="comma-separated spreading factors")
    p.add_argument("-w", "--waveform", help=f"comma-separated chip waveforms: {_ALL_WAVEFORMS}")
    p.add_argument("--delta-s", dest="delta_s", help="comma-separated max offsets in [0,1]")
    p.add_argument("--snr", help="SNR axis in dB as start:stop:step (inclusive stop)")
    p.add_argument("--trials-max", dest="trials_max", help="max trials per grid point")
    p.add_argument("--min-errors", dest="min_errors", help="early-stop error count (0 disables)")
    p.add_argument("--seed", help="master seed for all random streams")
    p.add_argument("--workers", help=f"process count, at most the CPU count "
                                     f"(env {WORKERS_ENV_VAR} overrides config file)")
    p.add_argument("--fixed-delta", dest="fixed_delta", help="pin the per-trial offset, |delta| <= 0.5")
    p.add_argument("-o", "--output", help="output file path")
    p.add_argument("--format", help="output format: csv or json")
    p.add_argument("--config", help="key=value config file ('#' comments allowed)")
    p.add_argument(
        "--record-timing",
        dest="record_timing",
        action="store_true",
        default=False,
        help="write wall-clock elapsed_s (off by default to keep output deterministic)",
    )
    return p


def parse_config(argv: Sequence[str]) -> SweepConfig:
    """Resolve a SweepConfig from flags, environment, and config file.

    Precedence: CLI flags > QSLORA_WORKERS (workers only) > the file named
    by --config > SweepConfig's defaults: only the keys one of the first
    three sets are passed on. Strings are only converted here; SweepConfig
    checks the values, and either failure exits 2 with a message naming
    the field.
    """
    parser = _build_sweep_parser()
    ns = parser.parse_args(list(argv))
    file_vals = _read_config_file(ns.config, parser.error) if ns.config else {}
    env_vals = {"workers": os.environ.get(WORKERS_ENV_VAR)}

    fields: dict[str, object] = {"record_timing": ns.record_timing}
    for key, (names, convert) in _CONFIG_KEYS.items():
        sources = (getattr(ns, key.replace("-", "_")), env_vals.get(key), file_vals.get(key))
        raw = next((value for value in sources if value is not None), None)
        if raw is not None:
            value = _convert(parser, key, convert, raw)
            fields.update(zip(names, value if len(names) > 1 else (value,)))
    try:
        return SweepConfig(**fields)
    except ValueError as exc:
        parser.error(str(exc))


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row(est: SerEstimate) -> dict[str, object]:
    """The output columns of one estimate, in schema order."""
    pt = est.point
    return {
        "sf": pt.sf,
        "waveform": pt.waveform.kind,
        "delta_s": pt.delta_s,
        "snr_db": pt.snr_db,
        "trials": est.trials,
        "errors": est.errors,
        "ser": est.ser,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "seed": est.seed,
        "elapsed_s": est.elapsed,
    }


def write_results(estimates: Sequence[SerEstimate], fh: TextIO, format: str = "csv") -> None:
    """Write estimates to an open text file as CSV (fixed 11-column schema) or a JSON array.

    Open fh with newline="" so line endings are written as given. Floats
    are serialized with shortest round-trip precision, so parsing a file and
    re-serializing it reproduces it byte for byte.
    """
    if not estimates:
        raise ValueError("no estimates to write")
    rows = [_row(est) for est in estimates]
    if format == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_cell(value) for value in row.values()])
    elif format == "json":
        json.dump(rows, fh, indent=2)
        fh.write("\n")
    else:
        raise ValueError(f"unknown output format {format!r}")


def _cmd_sweep(argv: Sequence[str]) -> int:
    config = parse_config(argv)

    def progress(done: int, total: int, est: SerEstimate) -> None:
        pt = est.point
        print(
            f"[{done}/{total}] sf={pt.sf} waveform={pt.waveform.kind} "
            f"delta_s={pt.delta_s:g} snr_db={pt.snr_db:g} "
            f"ser={est.ser:.3e} errors={est.errors} trials={est.trials}",
            file=sys.stderr,
            flush=True,
        )

    # open the output first so a bad path fails before any point is computed
    with open(config.output_path, "w", newline="", encoding="utf-8") as fh:
        estimates = run_sweep(config, progress=progress)
        if not config.record_timing:
            estimates = [dataclasses.replace(est, elapsed=0.0) for est in estimates]
        write_results(estimates, fh, config.format)
    print(f"wrote {len(estimates)} records to {config.output_path}", file=sys.stderr)
    return 0


def _cmd_certify(argv: Sequence[str]) -> int:
    p = argparse.ArgumentParser(
        prog="qslora certify",
        description="Certify the chip-rate model against the continuous-time reference.",
    )
    p.add_argument("--sf", default="4", help="comma-separated spreading factors")
    p.add_argument("-w", "--waveform", default=_ALL_WAVEFORMS, help="comma-separated waveforms")
    p.add_argument("--trials", type=int, default=100, help="random realizations per combination")
    p.add_argument("--delta-s", dest="delta_s", type=float, default=1.0, help="max offset in [0,1]")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tolerance", type=float, default=1e-6)
    ns = p.parse_args(list(argv))
    sfs = _convert(p, "sf", _sf_list, ns.sf)
    waveforms = _convert(p, "waveform", _waveform_list, ns.waveform)
    delta_s = _convert(p, "delta-s", validate_delta_s, ns.delta_s)
    seed = _convert(p, "seed", np.random.SeedSequence, ns.seed).entropy
    tolerance = _convert(p, "tolerance", _positive, ns.tolerance)
    failures = 0
    for sf in sfs:
        for wi, wf in enumerate(waveforms):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(sf, wi)))
            # certify_discrete_model owns the trials >= 1 check; it fails
            # on the first combination, before anything is printed
            err = _convert(
                p, "trials",
                lambda trials: certify_discrete_model(sf, wf, trials, rng, delta_s=delta_s),
                ns.trials,
            )
            ok = err < tolerance
            failures += 0 if ok else 1
            print(
                f"sf={sf} waveform={wf.kind} trials={ns.trials} "
                f"max_abs_error={err:.3e} {'PASS' if ok else 'FAIL'}"
            )
    return 0 if failures == 0 else 1


def _cmd_oracle(argv: Sequence[str]) -> int:
    p = argparse.ArgumentParser(
        prog="qslora oracle",
        description="Analytical synchronous SER table (noncoherent M-ary orthogonal).",
    )
    # the table defaults to the sweep's default grid
    grid = SweepConfig()
    p.add_argument("--sf", default=",".join(map(str, grid.sf_list)),
                   help="comma-separated spreading factors")
    p.add_argument("--snr", default=f"{grid.snr_start_db}:{grid.snr_stop_db}:{grid.snr_step_db}",
                   help="SNR axis start:stop:step in dB")
    ns = p.parse_args(list(argv))
    sfs = _convert(p, "sf", _sf_list, ns.sf)
    snrs = _convert(p, "snr", _snr_list, ns.snr)
    print("sf snr_db ser")
    for sf in sfs:
        for snr in snrs:
            print(f"{sf} {snr:g} {analytical_ser_sync(sf, snr)!r}")
    return 0


def _cmd_corr(argv: Sequence[str]) -> int:
    p = argparse.ArgumentParser(
        prog="qslora corr",
        description="Partial autocorrelation tables R(delta), Rhat(delta).",
    )
    p.add_argument("-w", "--waveform", default=_ALL_WAVEFORMS, help="comma-separated waveforms")
    p.add_argument("--steps", type=int, default=21, help="number of offsets on [0, 1]")
    p.add_argument(
        "--quad", action="store_true",
        help="print quadrature reference values instead of closed forms",
    )
    ns = p.parse_args(list(argv))
    waveforms = _convert(p, "waveform", _waveform_list, ns.waveform)
    if ns.steps < 2:
        p.error("steps must be >= 2")
    print("waveform delta overlapping overlapped")
    for wf in waveforms:
        for i in range(ns.steps):
            d = i / (ns.steps - 1)
            if ns.quad:
                keep = autocorr_overlapping_quad(wf, d)
                spill = autocorr_overlapped_quad(wf, d)
            else:
                keep = autocorr_overlapping(wf, d)
                spill = autocorr_overlapped(wf, d)
            print(f"{wf.kind} {d:g} {keep!r} {spill!r}")
    return 0


_DISPATCH = {
    "sweep": _cmd_sweep,
    "certify": _cmd_certify,
    "oracle": _cmd_oracle,
    "corr": _cmd_corr,
}

_TOP_HELP = """usage: qslora [subcommand] [options]

subcommands:
  sweep    Monte-Carlo SER sweep (default when no subcommand is given)
  certify  continuous-time model certification report
  oracle   analytical synchronous SER table
  corr     chip-waveform partial autocorrelation tables

Run 'qslora <subcommand> --help' for per-command options.
"""


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    if args and args[0] in SUBCOMMANDS:
        command, rest = args[0], args[1:]
    elif args and args[0] in ("-h", "--help"):
        print(_TOP_HELP, end="")
        return 0
    else:
        command, rest = "sweep", args
    try:
        return _DISPATCH[command](rest)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
