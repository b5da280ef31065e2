"""Tests for config resolution, result serialization, and the command-line
entry point."""

import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest

import qslora

from qslora import cli
from qslora.cli import SweepConfig, main, parse_config, write_results
from qslora.grid import GridPoint, snr_axis
from qslora.montecarlo import SerEstimate, StoppingRule, run_sweep, wilson_interval
from qslora.rice import analytical_ser_sync
from qslora.waveforms import ChipWaveform

EXPECTED_HEADER = "sf,waveform,delta_s,snr_db,trials,errors,ser,ci_low,ci_high,seed,elapsed_s"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QSLORA_WORKERS", raising=False)


def _config_file(tmp_path, text):
    """The --config flag naming a file that holds text."""
    path = tmp_path / "sweep.conf"
    path.write_text(text, encoding="utf-8")
    return ["--config", str(path)]


class TestParseConfig:
    def test_defaults_span_full_grid(self):
        config = parse_config([])
        assert config == SweepConfig()
        assert config.sf_list == (4, 5, 6, 7)
        assert config.waveforms == ("rect", "rc")
        assert config.delta_s_list == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        assert (config.snr_start_db, config.snr_stop_db, config.snr_step_db) == (
            -4.0,
            24.0,
            2.0,
        )
        assert config.trials_max == 1_000_000
        assert config.min_errors == 100
        assert config.master_seed == 1
        assert config.workers == 1
        assert config.fixed_delta is None
        assert config.output_path == "ser_results.csv"
        assert config.format == "csv"
        assert config.record_timing is False
        assert config.stop == StoppingRule()

    def test_flags_parsed(self):
        config = parse_config(
            [
                "--sf", "4,6",
                "--waveform", "rc",
                "--delta-s", "0,0.4",
                "--snr", "8:12:2",
                "--trials-max", "5000",
                "--min-errors", "0",
                "--seed", "7",
                "--workers", "3",
                "--fixed-delta=-0.25",
                "-o", "out.json",
                "--format", "json",
                "--record-timing",
            ]
        )
        assert config.sf_list == (4, 6)
        assert config.waveforms == ("rc",)
        assert config.delta_s_list == (0.0, 0.4)
        assert (config.snr_start_db, config.snr_stop_db, config.snr_step_db) == (
            8.0,
            12.0,
            2.0,
        )
        assert config.trials_max == 5000
        assert config.min_errors == 0
        assert config.master_seed == 7
        assert config.workers == 3
        assert config.fixed_delta == -0.25
        assert config.output_path == "out.json"
        assert config.format == "json"
        assert config.record_timing is True

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["--delta-s", "1.5"], "delta-s"),
            (["--sf", "13"], "sf"),
            (["--sf", "three"], "sf"),
            (["--waveform", "sinc"], "waveform"),
            (["--snr", "8:12"], "snr"),
            (["--snr", "12:8:2"], "snr"),
            (["--snr", "a:b:c"], "snr"),
            (["--trials-max", "0"], "trials-max"),
            (["--workers", "0"], "workers"),
            (["--fixed-delta", "0.75"], "fixed-delta"),
            (["--format", "xml"], "format"),
            (["--fixed-delta", "nan"], "fixed-delta"),
            (["--snr", "0:1:1e-320"], "snr"),
            (["--snr", "0:1e308:1e-10"], "snr"),
            (["--seed", "-1"], "seed"),
            (["--snr=-4000:-4000:1"], "snr"),
            (["--snr=-300.5:-300.5:1"], "snr"),
            (["--snr", "300.5:300.5:1"], "snr"),
        ],
    )
    def test_invalid_values_exit_2_naming_field(self, argv, needle, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["--spreading", "4"])
        assert exc.value.code == 2

    def test_config_file_supplies_values(self, tmp_path):
        text = "\n".join(
            [
                "# sweep setup",
                "sf = 5",
                "waveform = rect  # only one",
                "delta-s = 0.2",
                "snr = 0:4:2",
                "trials_max = 2048",
                "seed = 11",
                "workers = 2",
                "",
            ]
        )
        config = parse_config(_config_file(tmp_path, text))
        assert config.sf_list == (5,)
        assert config.waveforms == ("rect",)
        assert config.delta_s_list == (0.2,)
        assert config.trials_max == 2048
        assert config.master_seed == 11
        assert config.workers == 2
        # untouched keys keep their defaults
        assert config.min_errors == 100

    def test_flag_beats_config_file(self, tmp_path):
        config = parse_config(["--seed", "3", *_config_file(tmp_path, "seed = 11\n")])
        assert config.master_seed == 3

    def test_env_overrides_file_for_workers_only(self, monkeypatch, tmp_path):
        monkeypatch.setenv("QSLORA_WORKERS", "6")
        config = parse_config(_config_file(tmp_path, "workers = 2\nseed = 11\n"))
        assert config.workers == 6
        assert config.master_seed == 11

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("QSLORA_WORKERS", "6")
        config = parse_config(["--workers", "4"])
        assert config.workers == 4

    def test_empty_env_counts_as_unset(self, monkeypatch, tmp_path):
        monkeypatch.setenv("QSLORA_WORKERS", "")
        assert parse_config([]).workers == 1
        assert parse_config(_config_file(tmp_path, "workers = 2\n")).workers == 2

    @pytest.mark.parametrize(
        "text,env,needle",
        [
            ("sf = three\n", None, "sf"),
            ("snr = 8:12\n", None, "snr"),
            ("", "two", "workers"),
            ("sf = 13\n", None, "sf"),
        ],
    )
    def test_invalid_file_or_env_value_exits_2_naming_the_key(
        self, text, env, needle, monkeypatch, tmp_path, capsys
    ):
        if env is not None:
            monkeypatch.setenv("QSLORA_WORKERS", env)
        with pytest.raises(SystemExit) as exc:
            parse_config(_config_file(tmp_path, text))
        assert exc.value.code == 2
        # the last line is the message; the usage line above it lists every flag
        assert needle in capsys.readouterr().err.splitlines()[-1]

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            parse_config(_config_file(tmp_path, "spreading = 4\n"))
        assert exc.value.code == 2
        assert "spreading" in capsys.readouterr().err

    def test_malformed_config_line_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            parse_config(_config_file(tmp_path, "sf 4\n"))
        assert exc.value.code == 2
        assert "line 1" in capsys.readouterr().err

    def test_config_flag_reads_file(self, tmp_path):
        path = tmp_path / "sweep.conf"
        path.write_text("sf = 6\n", encoding="utf-8")
        config = parse_config(["--config", str(path)])
        assert config.sf_list == (6,)

    def test_config_file_with_utf8_bom_reads_first_key(self, tmp_path):
        # editors that save "UTF-8 with BOM" put U+FEFF before the first key
        path = tmp_path / "bom.conf"
        path.write_bytes(b"\xef\xbb\xbfsf=4\nseed = 5\n")
        config = parse_config(["--config", str(path)])
        assert (config.sf_list, config.master_seed) == ((4,), 5)

    def test_missing_config_file_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            parse_config(["--config", str(tmp_path / "absent.conf")])
        assert exc.value.code == 2

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_bytes(b"sf = 4\n\xff\xfe = 1\n")
        with pytest.raises(SystemExit) as exc:
            parse_config(["--config", str(path)])
        assert exc.value.code == 2
        assert "cannot read config file" in capsys.readouterr().err


def _estimate(sf=4, waveform="rect", delta_s=0.4, snr_db=8.0, trials=4096, errors=123,
              seed=1, elapsed=0.0):
    point = GridPoint(sf=sf, waveform=ChipWaveform(waveform), delta_s=delta_s, snr_db=snr_db)
    return SerEstimate(point=point, trials=trials, errors=errors, seed=seed, elapsed=elapsed)


def _write(estimates, path, format="csv"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_results(estimates, fh, format)


class TestWriteResults:
    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            write_results([], io.StringIO())

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            write_results([_estimate()], io.StringIO(), format="xml")

    def test_csv_schema_and_values(self, tmp_path):
        path = tmp_path / "out.csv"
        second = _estimate(waveform="rc", delta_s=0.2, snr_db=6.0, errors=10,
                           seed=3, elapsed=1.25)
        _write([_estimate(), second], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 3
        row = lines[1].split(",")
        assert row[0] == "4"
        assert row[1] == "rect"
        assert row[2] == repr(0.4)
        assert row[6] == repr(123 / 4096)
        # every column is copied from the estimate and its grid point; the
        # interval is the Wilson interval of the counts
        low, high = wilson_interval(10, 4096)
        assert lines[2].split(",") == [
            "4", "rc", "0.2", "6.0", "4096", "10", repr(10 / 4096), repr(low), repr(high), "3",
            "1.25",
        ]

    def test_json_of_numpy_typed_config(self):
        # the sweep's counts and seed reach the output as the Python ints the
        # number rule returns, so json can write them
        config = SweepConfig(
            sf_list=(np.int64(4),), waveforms=("rect",), delta_s_list=(np.float64(0.0),),
            snr_start_db=8.0, snr_stop_db=8.0, trials_max=np.int64(4096), min_errors=0,
            master_seed=np.int64(3),
        )
        fh = io.StringIO()
        write_results(run_sweep(config), fh, format="json")
        (row,) = json.loads(fh.getvalue())
        assert (row["sf"], row["trials"], row["seed"]) == (4, 4096, 3)

    def test_csv_round_trip_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        _write([_estimate(), _estimate(delta_s=0.6, errors=0)], first)
        with open(first, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        parsed = [
            _estimate(
                sf=int(r["sf"]),
                waveform=r["waveform"],
                delta_s=float(r["delta_s"]),
                snr_db=float(r["snr_db"]),
                trials=int(r["trials"]),
                errors=int(r["errors"]),
                seed=int(r["seed"]),
                elapsed=float(r["elapsed_s"]),
            )
            for r in rows
        ]
        _write(parsed, second)
        assert first.read_bytes() == second.read_bytes()

    def test_json_payload(self, tmp_path):
        path = tmp_path / "out.json"
        _write([_estimate()], path, format="json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert len(payload) == 1
        assert list(payload[0]) == EXPECTED_HEADER.split(",")
        assert payload[0]["errors"] == 123
        assert payload[0]["waveform"] == "rect"


TINY_SWEEP = [
    "--sf", "4",
    "--waveform", "rect",
    "--delta-s", "0",
    "--snr", "8:10:2",
    "--trials-max", "4096",
    "--min-errors", "0",
]


class TestMain:
    def test_sweep_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        assert main(["sweep", *TINY_SWEEP, "-o", str(path)]) == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 3
        # elapsed_s is written as 0.0 unless --record-timing is given
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["0.0", "0.0"]
        assert "wrote 2 records" in capsys.readouterr().err

    def test_sweep_is_default_subcommand(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main([*TINY_SWEEP, "-o", str(a)]) == 0
        assert main(["sweep", *TINY_SWEEP, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_two_runs_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main([*TINY_SWEEP, "-o", str(a)]) == 0
        assert main([*TINY_SWEEP, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_repeated_axis_values_give_one_row(self, tmp_path):
        # 4 and 4, rect and rect, 0, -0 and 0.0 are one grid point
        once = tmp_path / "once.csv"
        repeated = tmp_path / "repeated.csv"
        tail = ["--snr", "8:8:2", "--trials-max", "4096", "--min-errors", "0"]
        assert main(["--sf", "4", "-w", "rect", "--delta-s", "0", *tail, "-o", str(once)]) == 0
        argv = ["--sf", "4,4", "-w", "rect,rect", "--delta-s", "0,-0,0.0", *tail]
        assert main([*argv, "-o", str(repeated)]) == 0
        assert repeated.read_bytes() == once.read_bytes()

    def test_record_timing_populates_elapsed(self, tmp_path):
        path = tmp_path / "out.csv"
        assert main([*TINY_SWEEP, "--record-timing", "-o", str(path)]) == 0
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["elapsed_s"]) > 0.0 for r in rows)

    def test_estimates_match_analytical_oracle(self, tmp_path):
        path = tmp_path / "out.csv"
        argv = [
            "--sf", "4",
            "--waveform", "rect",
            "--delta-s", "0",
            "--snr", "8:8:2",
            "--trials-max", "65536",
            "--min-errors", "0",
            "-o", str(path),
        ]
        assert main(argv) == 0
        with open(path, newline="", encoding="utf-8") as fh:
            (row,) = list(csv.DictReader(fh))
        p = analytical_ser_sync(4, 8.0)
        assert float(row["ci_low"]) < p < float(row["ci_high"])

    def test_sweep_at_the_other_bins_mean_far_above_any_noise(self, tmp_path):
        # sf 2, rect, delta = -0.5 gives the symbol pair (3, 1) |a| = |c|,
        # so at 300 dB its trials reach the Rice CDF at mu = |c|^2/N0 of
        # about 6e28, which must cost no more than at any other mean
        path = tmp_path / "out.csv"
        argv = [
            "sweep", "--sf", "2", "-w", "rect", "--delta-s", "0", "--fixed-delta=-0.5",
            "--snr", "300:300:1", "--trials-max", "4096", "--min-errors", "0",
            "--workers", "1", "-o", str(path),
        ]
        assert main(argv) == 0
        with open(path, newline="", encoding="utf-8") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["trials"] == "4096"

    def test_decimal_snr_step_keeps_the_point(self, tmp_path):
        # 0.1:0.7:0.2 ends on 0.7 itself, so its 0.7 dB row is the row of
        # 0.7:0.7:1: a point's estimate does not depend on the axis
        rows = []
        for snr in ("0.1:0.7:0.2", "0.7:0.7:1"):
            path = tmp_path / "out.csv"
            argv = ["--sf", "4", "-w", "rect", "--delta-s", "0.4", "--snr", snr,
                    "--trials-max", "4096", "--min-errors", "0", "-o", str(path)]
            assert main(argv) == 0
            rows.append(path.read_text(encoding="utf-8").splitlines()[-1])
        assert rows[0] == rows[1]
        assert rows[0].startswith("4,rect,0.4,0.7,4096,")

    def test_output_io_failure_exits_1(self, tmp_path, capsys):
        path = tmp_path / "missing_dir" / "out.csv"
        assert main([*TINY_SWEEP, "-o", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        # the output is opened before the first grid point runs
        assert "[1/2]" not in err

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["oracle", "--snr", "1:2"], "snr"),
            (["oracle", "--sf", "x"], "sf"),
            (["oracle", "--sf", "13"], "sf"),
            (["certify", "-w", "foo"], "waveform"),
            (["certify", "--trials", "0"], "trials"),
            (["certify", "--delta-s", "2"], "delta-s"),
            (["certify", "--delta-s", ","], "delta-s"),
            (["corr", "-w", "foo"], "waveform"),
            (["oracle", "--snr", "0:1:1e-320"], "snr"),
            (["oracle", "--snr", "0:1e308:1e-10"], "snr"),
            (["certify", "--seed", "-1"], "seed"),
            (["certify", "--tolerance", "nan"], "tolerance"),
            (["certify", "--tolerance", "0"], "tolerance"),
            (["certify", "--tolerance", "-1"], "tolerance"),
            (["certify", "--sf", ","], "sf"),
            (["certify", "-w", ","], "waveform"),
            (["oracle", "--sf", ","], "sf"),
            (["corr", "-w", ","], "waveform"),
            (["oracle", "--snr=-300.5:-300.5:1"], "snr"),
            (["oracle", "--snr", "300.5:300.5:1"], "snr"),
            (["oracle", "--snr=-4000:-4000:1"], "snr"),
            (["certify", "--sf", "2", "--trials", "1", "--tolerance", "inf"], "tolerance"),
            (["oracle", "--snr", "0:300:1e-300"], "too many points"),
            # every axis flag, on every subcommand that takes it
            (["sweep", "--sf", "13"], "sf"),
            (["sweep", "--sf", ","], "sf"),
            (["sweep", "-w", "sinc"], "waveform"),
            (["sweep", "-w", ","], "waveform"),
            (["sweep", "--delta-s", "1.5"], "delta-s"),
            (["sweep", "--delta-s", ","], "delta-s"),
            (["sweep", "--snr", "12:8:2"], "snr"),
            (["oracle", "--snr", "12:8:2"], "snr"),
            (["certify", "--sf", "13"], "sf"),
            (["certify", "--sf", "x"], "sf"),
            (["corr", "-w", "sinc"], "waveform"),
        ],
    )
    def test_subcommand_bad_input_exits_2(self, argv, needle, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err

    def test_snr_axis_point_count_decided_before_building(self, capsys):
        # 3e302 points, every one inside the SNR domain: refused from the
        # exact count, without building any
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--snr", "0:300:1e-300"])
        assert exc.value.code == 2
        assert time.perf_counter() - start < 1.0
        assert "too many points" in capsys.readouterr().err
        assert len(snr_axis(0.0, 99.999, 0.001)) == 100_000
        with pytest.raises(ValueError, match="too many points"):
            snr_axis(0.0, 100.0, 0.001)

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--bogus"])
        assert exc.value.code == 2

    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("sweep", "certify", "oracle", "corr"):
            assert name in out

    def test_certify_smoke(self, capsys):
        assert main(["certify", "--sf", "4", "--waveform", "rect", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_certify_failure_is_not_a_usage_error(self, monkeypatch):
        # only a bad flag value exits 2; an error raised while certifying
        # must not be reported as one
        def broken(*args, **kwargs):
            raise ValueError("broken model")

        monkeypatch.setattr("qslora.cli.certify_discrete_model", broken)
        with pytest.raises(ValueError, match="broken model"):
            main(["certify", "--sf", "4", "--waveform", "rect", "--trials", "5"])

    def test_certify_line_independent_of_other_waveforms(self, capsys):
        # each waveform's stream is keyed by the waveform itself, so the rc
        # line is the same whether rc is listed alone or with rect
        assert main(["certify", "--sf", "4", "-w", "rc", "--trials", "3"]) == 0
        alone = capsys.readouterr().out.splitlines()
        assert main(["certify", "--sf", "4", "-w", "rect,rc", "--trials", "3"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert len(alone) == 1 and len(listed) == 2
        assert listed[0] == alone[0]

    def test_certify_walks_the_delta_s_axis(self, capsys):
        # one line per (sf, waveform, delta_s) in grid order; each stream is
        # keyed by (sf, waveform) alone, so a line at delta_s 1 is the
        # default run's line
        assert main(["certify", "--delta-s", "0,1", "--trials", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:3] for line in lines] == [
            ["sf=4", f"waveform={wf}", f"delta_s={ds}"] for wf in ("rc", "rect") for ds in (0, 1)
        ]
        assert main(["certify", "--trials", "5"]) == 0
        assert [line for line in lines if " delta_s=1 " in line] == (
            capsys.readouterr().out.splitlines()
        )

    def test_every_axis_flag_is_the_shared_one(self):
        # one definition per axis flag: a subcommand may change only its default
        shared = {"sf": cli._SF, "waveform": cli._WAVEFORM, "delta-s": cli._DELTA_S,
                  "snr": cli._SNR}
        axis_fields = {name for flag in shared.values() for name in flag.fields}
        taken = 0
        for command, spec in cli._COMMANDS.items():
            for key, flag in spec.flags.items():
                if key in shared or axis_fields & set(flag.fields):
                    assert flag._replace(default=None) == shared.get(key), (command, key)
                    taken += 1
        assert taken == 10  # sweep 4, certify 3, oracle 2, corr 1

    @pytest.mark.parametrize(
        "repeated,once",
        [
            (["oracle", "--sf", "5,4,5,4", "--snr", "0:2:2"], ["oracle", "--sf", "5,4", "--snr", "0:2:2"]),
            (
                ["certify", "--sf", "4,4", "-w", "rc,rect,rc", "--trials", "2"],
                ["certify", "--sf", "4", "-w", "rc,rect", "--trials", "2"],
            ),
            (["oracle", "--sf", "5,4", "--snr", "0:2:2"], ["oracle", "--sf", "4,5", "--snr", "0:2:2"]),
            (
                ["certify", "--sf", "5,4", "-w", "rect", "--trials", "2"],
                ["certify", "--sf", "4,5", "-w", "rect", "--trials", "2"],
            ),
            (["corr", "-w", "rect,rc", "--steps", "3"], ["corr", "-w", "rc,rect", "--steps", "3"]),
            (["certify", "--delta-s", "1,0,1", "--trials", "5"],
             ["certify", "--delta-s", "0,1", "--trials", "5"]),
        ],
    )
    def test_repeated_values_give_one_line(self, repeated, once, capsys):
        # every subcommand reads an axis by one rule: repeated --sf, -w and
        # --delta-s values are dropped and the rest sorted, so neither
        # repeats nor the listed order change the output
        assert main(repeated) == 0
        got = capsys.readouterr().out
        assert main(once) == 0
        assert got == capsys.readouterr().out

    def test_oracle_smoke(self, capsys):
        assert main(["oracle", "--sf", "4", "--snr", "0:4:2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sf snr_db ser"
        assert len(lines) == 4
        assert lines[1] == f"4 0 {analytical_ser_sync(4, 0.0)!r}"

    @pytest.mark.parametrize(
        "argv,axis",
        [
            (["oracle", "--sf", "4", "--snr", "1.0000001:1.0000003:0.0000001"],
             snr_axis(1.0000001, 1.0000003, 0.0000001)),
            (["oracle", "--sf", "4", "--snr=-4:24:2"], snr_axis(-4.0, 24.0, 2.0)),
            (["oracle", "--sf", "4", "--snr", "0.1:0.7:0.2"], snr_axis(0.1, 0.7, 0.2)),
            (["corr", "-w", "rc", "--steps", "7"], [i / 6 for i in range(7)]),
            (["corr", "-w", "rc", "--steps", "21"], [i / 20 for i in range(21)]),
        ],
    )
    def test_axis_labels_read_back_as_their_points(self, argv, axis, capsys):
        # oracle's snr_db and corr's delta column are the shortest repr of
        # each axis point, so no two rows share a label
        assert main(argv) == 0
        labels = [line.split()[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert [float(label) for label in labels] == axis
        assert len(set(labels)) == len(axis) == len(set(axis))

    def test_snr_domain_edges_accepted(self, capsys):
        # sweep and oracle share one SNR domain, [-300, 300] dB
        config = parse_config(["--snr=-300:300:600"])
        assert [p.snr_db for p in config.points[:2]] == [-300.0, 300.0]
        assert main(["oracle", "--sf", "4", "--snr=-300:300:600"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [f"4 -300 {analytical_ser_sync(4, -300.0)!r}", "4 300 0.0"]

    def test_corr_smoke(self, capsys):
        assert main(["corr", "--steps", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "waveform delta overlapping overlapped"
        assert len(lines) == 7
        assert lines[5] == "rect 0.5 0.5 0.5"

    def test_corr_quad_matches_closed_form(self, capsys):
        assert main(["corr", "-w", "rc", "--steps", "3", "--quad"]) == 0
        quad_lines = capsys.readouterr().out.splitlines()[1:]
        assert main(["corr", "-w", "rc", "--steps", "3"]) == 0
        closed_lines = capsys.readouterr().out.splitlines()[1:]
        for quad_row, closed_row in zip(quad_lines, closed_lines):
            _, _, keep_q, spill_q = quad_row.split()
            _, _, keep_c, spill_c = closed_row.split()
            assert float(keep_q) == pytest.approx(float(keep_c), abs=1e-9)
            assert float(spill_q) == pytest.approx(float(spill_c), abs=1e-9)

    def test_readme_command_line_block(self, capsys):
        # every command of the README's "Command line" block must be
        # accepted as written: sweep lines are only parsed, the others run
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
            section = fh.read().split("## Command line", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
        commands = [shlex.split(line) for line in lines if line and not line.startswith("#")]
        assert len(commands) == 5
        for program, subcommand, *rest in commands:
            assert program == "qslora"
            if subcommand == "sweep":
                parse_config(rest)
            else:
                assert main([subcommand, *rest]) == 0, (subcommand, rest)
        assert "sf snr_db ser" in capsys.readouterr().out

    def test_readme_sweep_options_match_the_parser(self, capsys):
        # the README's options table is a hand-kept copy of the sweep flags
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
            section = fh.read().split("### Sweep options", 1)[1].split("\n#", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        documented = {flag for row in rows for flag in re.findall(r"--[a-z-]+", row.split("|")[1])}
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        parsed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert len(rows) == len(documented)
        assert documented == parsed - {"--help"}


def test_cli_runs_on_numpy_alone():
    # the README and pyproject.toml name numpy as the only runtime
    # dependency; scipy, mpmath and hypothesis are test-only references, so
    # neither the import nor an oracle, certify or corr run may load them
    src = os.path.dirname(os.path.dirname(os.path.abspath(qslora.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import contextlib, io, sys, qslora.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert qslora.cli.main(['oracle', '--sf', '4', '--snr', '10:10:1']) == 0\n"
        "    assert qslora.cli.main(['certify', '--sf', '4', '--trials', '2']) == 0\n"
        "    assert qslora.cli.main(['corr', '--steps', '3']) == 0\n"
        "print(sorted({'hypothesis', 'mpmath', 'scipy'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
