"""Tests for config resolution, result serialization, and the command-line
entry point."""

import csv
import io
import json

import pytest

from qslora.cli import SweepConfig, main, parse_config, write_results
from qslora.montecarlo import GridPoint, SerEstimate, analytical_ser_sync, wilson_interval
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

    def test_missing_config_file_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            parse_config(["--config", str(tmp_path / "absent.conf")])
        assert exc.value.code == 2


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
            (["corr", "-w", "foo"], "waveform"),
            (["oracle", "--snr", "0:1:1e-320"], "snr"),
            (["oracle", "--snr", "0:1e308:1e-10"], "snr"),
            (["certify", "--seed", "-1"], "seed"),
            (["certify", "--tolerance", "nan"], "tolerance"),
            (["certify", "--tolerance", "0"], "tolerance"),
            (["certify", "--tolerance", "-1"], "tolerance"),
        ],
    )
    def test_subcommand_bad_input_exits_2(self, argv, needle, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err

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

    def test_oracle_smoke(self, capsys):
        assert main(["oracle", "--sf", "4", "--snr", "0:4:2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sf snr_db ser"
        assert len(lines) == 4
        assert lines[1] == f"4 0 {analytical_ser_sync(4, 0.0)!r}"

    def test_oracle_needs_no_noise_variance(self, capsys):
        # N0 overflows at -4000 dB, which the sweep rejects; the oracle
        # never forms N0 and prints the uniform-guess error rate
        assert main(["oracle", "--sf", "4", "--snr=-4000:-4000:1"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "4 -4000 0.9375"

    def test_corr_smoke(self, capsys):
        assert main(["corr", "--steps", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "waveform delta overlapping overlapped"
        assert len(lines) == 7
        assert lines[2] == "rect 0.5 0.5 0.5"

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
