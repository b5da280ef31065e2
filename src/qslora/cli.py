"""Command-line entry point, config parsing, and result serialization.

Each subcommand and each of its flags is declared once, in _COMMANDS; the
parsers, `qslora --help` and the dispatch in main are built from that
table. sweep is the default subcommand. One parse (_parse) serves every
subcommand: it returns the flags and the Grid or SweepConfig they set,
with the config file and the environment applied where the command takes
--config. The grid's axis flags (--sf, -w, --delta-s, --snr) are declared
once and shared by every subcommand that takes them, and each subcommand
reads them through qslora.grid.Grid, so every subcommand checks,
deduplicates and sorts an axis by one rule. The sweep's output flags (-o,
--format, --record-timing) belong to the command, not to the SweepConfig
it runs, and every output format is one entry of _WRITERS.

Exit status: 0 success, 1 runtime/I-O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, TextIO

import numpy as np

from .continuous_time import certify_discrete_model
from .grid import Grid
from .modulation import validate_int, validate_type
from .montecarlo import SerEstimate, SweepConfig, run_sweep
from .rice import analytical_ser_sync
from .waveforms import WAVEFORM_TOKENS, ChipWaveform, autocorr

__all__ = ["parse_config", "write_results", "main"]

WORKERS_ENV_VAR = "QSLORA_WORKERS"
_ALL_WAVEFORMS = ",".join(WAVEFORM_TOKENS)
# a certify line passes when its max_abs_error is below this
_CERTIFY_TOLERANCE = 1e-6


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


def _int(name: str, low: int) -> Callable[[str], int]:
    return lambda text: validate_int(int(text), name, low)


class _Flag(NamedTuple):
    """One flag of a subcommand; its key in the table is the long flag's name.

    convert turns the typed string into the value, on the command line and
    for a string default alike; None makes a switch that takes no value.
    default is the value as typed (None: unset), short an optional
    one-letter alias, and fields the Grid or SweepConfig fields the flag
    sets. In a command that takes --config, every other flag that takes a
    value is also a config key.
    """

    convert: Optional[Callable[[str], object]]
    help: str
    default: Optional[str] = None
    short: Optional[str] = None
    fields: tuple[str, ...] = ()


class _Command(NamedTuple):
    """One subcommand: its entry point, its line in `qslora --help`, its
    parser's description, its flags, in help order, and the type (Grid or
    SweepConfig) that its flags' fields build."""

    run: Callable[[Sequence[str]], int]
    summary: str
    description: str
    flags: dict[str, _Flag]
    settings: type[Grid] = Grid


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


def _read_config_file(path: str, keys: set[str], error) -> dict[str, str]:
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


def _parse(name: str, argv: Sequence[str]) -> tuple[argparse.Namespace, Grid]:
    """The flags of subcommand name, and the Grid or SweepConfig they set.

    Where the command takes --config, precedence is: flags >
    QSLORA_WORKERS (workers only; empty counts as unset) > the file named
    by --config > the defaults. The environment and the file become the
    parser's string defaults, so argparse converts each value that no flag
    overrides. Only the fields that a flag, the environment or the file
    set are passed on, so the others keep their Grid or SweepConfig
    default. Strings are only converted here; Grid and SweepConfig check
    the values, and either failure exits 2 with a message naming the flag
    or field.
    """
    command = _COMMANDS[name]
    parser = _parser(name)
    if "config" in command.flags:
        path = parser.parse_args(argv).config
        keys = {key for key, flag in command.flags.items() if flag.convert and key != "config"}
        defaults = _read_config_file(path, keys, parser.error) if path else {}
        if os.environ.get(WORKERS_ENV_VAR):
            defaults["workers"] = os.environ[WORKERS_ENV_VAR]
        parser.set_defaults(**{_dest(key): value for key, value in defaults.items()})
    ns = parser.parse_args(argv)
    fields: dict[str, object] = {}
    for key, flag in command.flags.items():
        value = getattr(ns, _dest(key))
        if flag.fields and value is not None:
            fields.update(zip(flag.fields, value if len(flag.fields) > 1 else (value,)))
    try:
        return ns, command.settings(**fields)
    except ValueError as exc:
        parser.error(str(exc))


def parse_config(argv: Sequence[str]) -> SweepConfig:
    """The SweepConfig of a sweep command line (argv without the subcommand).

    It is _parse's SweepConfig: flags, QSLORA_WORKERS, the --config file
    and SweepConfig's defaults, in that order. The output flags are parsed
    and checked too, but they are not part of the run.
    """
    return _parse("sweep", argv)[1]


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


def _write_csv(rows: list[dict[str, object]], fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(row.values() for row in rows)


def _write_json(rows: list[dict[str, object]], fh: TextIO) -> None:
    json.dump(rows, fh, indent=2)
    fh.write("\n")


# every output format: the names --format and the config key format take
_WRITERS = {"csv": _write_csv, "json": _write_json}


def _format(name: str) -> str:
    """An output format name, one of _WRITERS."""
    if name not in _WRITERS:
        raise ValueError(f"expected {' or '.join(_WRITERS)}")
    return name


def write_results(estimates: Iterable[SerEstimate], fh: TextIO, format: str = "csv") -> None:
    """Write estimates to an open text file as CSV (fixed 11-column schema) or a JSON array.

    Open fh with newline="" so line endings are written as given. Floats
    are serialized with shortest round-trip precision (csv and json both
    write a float's repr), so parsing a file and re-serializing it
    reproduces it byte for byte. An unknown format, an item that is not a
    SerEstimate (modulation.validate_type) or no estimates at all raises
    ValueError, the format before any estimate is read, and every item
    before anything is written.
    """
    if format not in _WRITERS:
        raise ValueError(f"unknown output format {format!r}")
    rows = [_row(validate_type(est, SerEstimate, "estimate")) for est in estimates]
    if not rows:
        raise ValueError("no estimates to write")
    _WRITERS[format](rows, fh)


def _cmd_sweep(argv: Sequence[str]) -> int:
    ns, config = _parse("sweep", argv)

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
    with open(ns.output, "w", newline="", encoding="utf-8") as fh:
        estimates = run_sweep(config, progress=progress)
        if not ns.record_timing:
            estimates = [dataclasses.replace(est, elapsed=0.0) for est in estimates]
        write_results(estimates, fh, ns.format)
    print(f"wrote {len(estimates)} records to {ns.output}", file=sys.stderr)
    return 0


def _cmd_certify(argv: Sequence[str]) -> int:
    ns, grid = _parse("certify", argv)
    failures = 0
    for sf in grid.sf_list:
        for token in grid.waveforms:
            # keyed by (sf, waveform) so a line does not depend on what else is listed
            key = (sf, WAVEFORM_TOKENS.index(token))
            for ds in grid.delta_s_list:
                rng = np.random.default_rng(np.random.SeedSequence(ns.seed, spawn_key=key))
                err = certify_discrete_model(sf, ChipWaveform(token), ns.trials, rng, delta_s=ds)
                ok = err < _CERTIFY_TOLERANCE
                failures += 0 if ok else 1
                print(
                    f"sf={sf} waveform={token} delta_s={_label(ds)} trials={ns.trials} "
                    f"max_abs_error={err:.3e} {'PASS' if ok else 'FAIL'}"
                )
    return 0 if failures == 0 else 1


def _cmd_oracle(argv: Sequence[str]) -> int:
    _, grid = _parse("oracle", argv)
    print("sf snr_db ser")
    for sf in grid.sf_list:
        for snr in grid.snr_db_list:
            print(f"{sf} {_label(snr)} {analytical_ser_sync(sf, snr)!r}")
    return 0


def _cmd_corr(argv: Sequence[str]) -> int:
    ns, grid = _parse("corr", argv)
    print("waveform delta overlapping overlapped")
    for token in grid.waveforms:
        for i in range(ns.steps):
            d = i / (ns.steps - 1)
            keep, spill = autocorr(ChipWaveform(token), d)
            print(f"{token} {_label(d)} {keep!r} {spill!r}")
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
        {  # a run flag that nothing sets keeps its SweepConfig default
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
            "output": _Flag(str, "output file path", "ser_results.csv", "-o"),
            "format": _Flag(_format, f"output format: {' or '.join(_WRITERS)}", "csv"),
            "config": _Flag(str, "key=value config file ('#' comments allowed)"),
            "record-timing": _Flag(None, "write wall-clock elapsed_s (off by default to keep "
                                   "output deterministic)"),
        },
        SweepConfig,
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
