"""Command-line entry point, config parsing, and result serialization.

Each subcommand and each of its flags is declared once, in _COMMANDS; the
parsers, `qslora --help` and the dispatch in main are built from that
table. sweep is the default subcommand. The grid's axis flags (--sf, -w,
--delta-s, --snr) are declared once and shared by every subcommand that
takes them, and each subcommand reads them through qslora.grid.Grid, so
every subcommand checks, deduplicates and sorts an axis by one rule.

Exit status: 0 success, 1 runtime/I-O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from typing import Callable, NamedTuple, Optional, Sequence, TextIO, TypeVar

import numpy as np

from .continuous_time import certify_discrete_model
from .grid import Axes, Grid
from .modulation import validate_int
from .montecarlo import SerEstimate, SweepConfig, run_sweep
from .rice import analytical_ser_sync
from .waveforms import WAVEFORM_TOKENS, autocorr, autocorr_quad

__all__ = ["SweepConfig", "parse_config", "write_results", "main"]

WORKERS_ENV_VAR = "QSLORA_WORKERS"
_ALL_WAVEFORMS = ",".join(WAVEFORM_TOKENS)
_G = TypeVar("_G", bound=Grid)


def _split_list(text: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(item) for item in _split_list(text))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(item) for item in _split_list(text))


def _snr_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected start:stop:step")
    return tuple(float(part) for part in parts)


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:  # nan fails too
        raise ValueError("must be finite and > 0")
    return value


def _int(name: str, low: int) -> Callable[[str], int]:
    return lambda text: validate_int(int(text), name, low)


class _Flag(NamedTuple):
    """One flag of a subcommand; its key in the table is the long flag's name.

    convert turns the typed string into the value, on the command line and
    for a string default alike; None makes a switch that takes no value.
    default is the value as typed (None: unset), short an optional
    one-letter alias, and fields the Grid or SweepConfig fields the flag
    sets. A sweep flag that takes a value and sets fields is also a config
    key.
    """

    convert: Optional[Callable[[str], object]]
    help: str
    default: Optional[str] = None
    short: Optional[str] = None
    fields: tuple[str, ...] = ()


class _Command(NamedTuple):
    """One subcommand: its entry point, its line in `qslora --help`, its
    parser's description and its flags, in help order."""

    run: Callable[[Sequence[str]], int]
    summary: str
    description: str
    flags: dict[str, _Flag]


def _dest(key: str) -> str:
    return key.replace("-", "_")


def _argument_type(convert: Callable[[str], object]) -> Callable[[str], object]:
    """convert as an argparse type: a ValueError becomes a usage error (exit 2)
    that names the flag and keeps the reason."""

    def parse(text: str) -> object:
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None

    return parse


def _parser(name: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, built from its flag table."""
    command = _COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"qslora {name}", description=command.description)
    for key, flag in command.flags.items():
        names = (flag.short, f"--{key}") if flag.short else (f"--{key}",)
        kwargs = (dict(action="store_true") if flag.convert is None
                  else dict(type=_argument_type(flag.convert), default=flag.default))
        parser.add_argument(*names, dest=_dest(key), help=flag.help, **kwargs)
    return parser


def _read_config_file(path: str, error) -> dict[str, str]:
    keys = {key for key, flag in _COMMANDS["sweep"].flags.items() if flag.fields and flag.convert}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in keys:
            error(f"unknown config key: {key}")
        values[key] = val.strip()
    return values


def parse_config(argv: Sequence[str]) -> SweepConfig:
    """Resolve a SweepConfig from flags, environment, and config file.

    Precedence: CLI flags > QSLORA_WORKERS (workers only; empty counts as
    unset) > the file named by --config > SweepConfig's defaults. The
    environment and the file become the parser's string defaults, so
    argparse converts each value that no flag overrides, and only the keys
    one of the first three sets are passed on. Strings are only converted
    here; SweepConfig checks the values, and either failure exits 2 with a
    message naming the flag or field.
    """
    parser = _parser("sweep")
    path = parser.parse_args(argv).config
    defaults = _read_config_file(path, parser.error) if path else {}
    if os.environ.get(WORKERS_ENV_VAR):
        defaults["workers"] = os.environ[WORKERS_ENV_VAR]
    parser.set_defaults(**{_dest(key): value for key, value in defaults.items()})
    return _resolve(parser, "sweep", parser.parse_args(argv), SweepConfig)


def _resolve(parser: argparse.ArgumentParser, name: str, ns: argparse.Namespace,
             kind: type[_G]) -> _G:
    """kind (Grid or SweepConfig) built from the fields that the flags of
    subcommand name set in ns; a ValueError exits 2 with its message."""
    fields: dict[str, object] = {}
    for key, flag in _COMMANDS[name].flags.items():
        value = getattr(ns, _dest(key))
        if flag.fields and value is not None:
            fields.update(zip(flag.fields, value if len(flag.fields) > 1 else (value,)))
    try:
        return kind(**fields)
    except ValueError as exc:
        parser.error(str(exc))


def _parse_axes(name: str, argv: Sequence[str]) -> tuple[argparse.Namespace, Axes]:
    """The flags of subcommand name, and the axes of the Grid they set."""
    parser = _parser(name)
    ns = parser.parse_args(argv)
    return ns, _resolve(parser, name, ns, Grid).axes


def _label(value: float) -> str:
    """An axis value as the shortest repr that reads back as it, a trailing .0 dropped."""
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


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
    are serialized with shortest round-trip precision (csv and json both
    write a float's repr), so parsing a file and re-serializing it
    reproduces it byte for byte.
    """
    if not estimates:
        raise ValueError("no estimates to write")
    rows = [_row(est) for est in estimates]
    if format == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(row.values() for row in rows)
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
            f"delta_s={_label(pt.delta_s)} snr_db={_label(pt.snr_db)} "
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
    ns, axes = _parse_axes("certify", argv)
    failures = 0
    for sf in axes.sf:
        for wf in axes.waveform:
            # keyed by (sf, waveform) so a line does not depend on what else is listed
            key = (sf, WAVEFORM_TOKENS.index(wf.kind))
            for ds in axes.delta_s:
                rng = np.random.default_rng(np.random.SeedSequence(ns.seed, spawn_key=key))
                err = certify_discrete_model(sf, wf, ns.trials, rng, delta_s=ds)
                ok = err < ns.tolerance
                failures += 0 if ok else 1
                print(
                    f"sf={sf} waveform={wf.kind} delta_s={_label(ds)} trials={ns.trials} "
                    f"max_abs_error={err:.3e} {'PASS' if ok else 'FAIL'}"
                )
    return 0 if failures == 0 else 1


def _cmd_oracle(argv: Sequence[str]) -> int:
    _, axes = _parse_axes("oracle", argv)
    print("sf snr_db ser")
    for sf in axes.sf:
        for snr in axes.snr:
            print(f"{sf} {_label(snr)} {analytical_ser_sync(sf, snr)!r}")
    return 0


def _cmd_corr(argv: Sequence[str]) -> int:
    ns, axes = _parse_axes("corr", argv)
    print("waveform delta overlapping overlapped")
    for wf in axes.waveform:
        for i in range(ns.steps):
            d = i / (ns.steps - 1)
            keep, spill = (autocorr_quad if ns.quad else autocorr)(wf, d)
            print(f"{wf.kind} {_label(d)} {keep!r} {spill!r}")
    return 0


# the grid's axis flags, shared by every subcommand that takes the axis
_SF = _Flag(_ints, "comma-separated spreading factors", fields=("sf_list",))
_WAVEFORM = _Flag(_split_list, f"comma-separated chip waveforms: {_ALL_WAVEFORMS}", short="-w",
                  fields=("waveforms",))
_DELTA_S = _Flag(_floats, "comma-separated max offsets in [0,1]", fields=("delta_s_list",))
_SNR = _Flag(_snr_range, "SNR axis in dB as start:stop:step (inclusive stop); every point in "
             "[-300, 300]; give a negative start as --snr=-4:24:2",
             fields=("snr_start_db", "snr_stop_db", "snr_step_db"))

_COMMANDS: dict[str, _Command] = {
    "sweep": _Command(
        _cmd_sweep,
        "Monte-Carlo SER sweep (default when no subcommand is given)",
        "Monte-Carlo SER sweep over (sf, waveform, delta-s, snr).",
        {  # no defaults: a flag that nothing sets keeps its SweepConfig default
            "sf": _SF,
            "waveform": _WAVEFORM,
            "delta-s": _DELTA_S,
            "snr": _SNR,
            "trials-max": _Flag(int, "max trials per grid point", fields=("trials_max",)),
            "min-errors": _Flag(int, "early-stop error count (0 disables)",
                                fields=("min_errors",)),
            "seed": _Flag(int, "master seed for all random streams", fields=("master_seed",)),
            "workers": _Flag(int, f"process count, at most the usable CPUs (env {WORKERS_ENV_VAR} "
                             "overrides config file)", fields=("workers",)),
            "fixed-delta": _Flag(float, "pin the per-trial offset, |delta| <= 0.5",
                                 fields=("fixed_delta",)),
            "output": _Flag(str, "output file path", short="-o", fields=("output_path",)),
            "format": _Flag(str, "output format: csv or json", fields=("format",)),
            "config": _Flag(str, "key=value config file ('#' comments allowed)"),
            "record-timing": _Flag(None, "write wall-clock elapsed_s (off by default to keep "
                                   "output deterministic)", fields=("record_timing",)),
        },
    ),
    "certify": _Command(
        _cmd_certify,
        "continuous-time model certification report",
        "Certify the chip-rate model against the continuous-time reference.",
        {
            "sf": _SF._replace(default="4"),
            "waveform": _WAVEFORM,
            "trials": _Flag(_int("trials", 1), "random realizations per combination", "100"),
            "delta-s": _DELTA_S._replace(default="1"),
            "seed": _Flag(_int("seed", 0), "master seed for the certification streams", "1"),
            "tolerance": _Flag(_tolerance, "pass when max_abs_error is below this", "1e-6"),
        },
    ),
    "oracle": _Command(
        _cmd_oracle,
        "analytical synchronous SER table",
        "Analytical synchronous SER table (noncoherent M-ary orthogonal).",
        {"sf": _SF, "snr": _SNR},  # the table defaults to the sweep's default grid
    ),
    "corr": _Command(
        _cmd_corr,
        "chip-waveform partial autocorrelation tables",
        "Partial autocorrelation tables R(delta), Rhat(delta).",
        {
            "waveform": _WAVEFORM,
            "steps": _Flag(_int("steps", 2), "number of offsets on [0, 1]", "21"),
            "quad": _Flag(None, "print quadrature reference values instead of closed forms"),
        },
    ),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    if args and args[0] in ("-h", "--help"):
        print("usage: qslora [subcommand] [options]\n\nsubcommands:")
        for name, command in _COMMANDS.items():
            print(f"  {name:<8} {command.summary}")
        print("\nRun 'qslora <subcommand> --help' for per-command options.")
        return 0
    command, rest = (args[0], args[1:]) if args and args[0] in _COMMANDS else ("sweep", args)
    try:
        return _COMMANDS[command].run(rest)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
