"""Acceptance suite: ten end-to-end criteria covering modulation algebra,
waveform correlations, continuous-time certification, the analytic decision
statistic, Monte-Carlo accuracy, target operating points, and output
determinism.

Each test prints one `criterion N PASS` line on success; run

    pytest tests/test_acceptance.py -rA

to see the full pass/fail report (the -rA summary echoes the captured
lines). The slow-marked tests dominate the runtime; deselect them with
`-m "not slow"` during development.
"""

import math

import numpy as np
import pytest

from qslora.channel import synthesize_chip_rows
from qslora.cli import main
from qslora.continuous_time import certify_discrete_model
from qslora.channel import analytic_decision_statistic
from qslora.modulation import despread, envelope_matrix, symbol_cardinality
from qslora.grid import GridPoint, snr_axis
from qslora.montecarlo import StoppingRule, run_point
from qslora.rice import analytical_ser_sync
from qslora.waveforms import (
    WAVEFORM_TOKENS,
    ChipWaveform,
    autocorr,
    autocorr_quad,
)

MASTER_SEED = 1


def _estimate(sf, token, delta_s, snr_db, max_trials, min_errors=0):
    point = GridPoint(
        sf=sf, waveform=ChipWaveform(token), delta_s=delta_s, snr_db=snr_db
    )
    rule = StoppingRule(max_trials=max_trials, min_errors=min_errors)
    return run_point(point, rule, master_seed=MASTER_SEED)


def _effective_ser(est):
    # zero-error points enter the waterfall interpolation as half an error
    return est.ser if est.errors > 0 else 0.5 / est.trials


def _required_snr_db(curve, target):
    """SNR where the SER curve crosses target, by log-linear interpolation.

    curve is a list of (snr_db, ser) in increasing snr order; returns None
    when the curve never crosses the target.
    """
    for (s0, p0), (s1, p1) in zip(curve, curve[1:]):
        if p0 >= target >= p1 and p0 > p1:
            t = (math.log10(p0) - math.log10(target)) / (math.log10(p0) - math.log10(p1))
            return s0 + t * (s1 - s0)
    return None


def test_criterion_01_orthonormality():
    worst = 0.0
    for sf in range(4, 9):
        mat = envelope_matrix(sf)
        gram = mat @ mat.conj().T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(symbol_cardinality(sf))))))
    assert worst < 1e-10
    print(
        f"criterion 1 PASS: envelope rows orthonormal for sf 4..8, "
        f"worst Gram deviation {worst:.3e} < 1e-10"
    )


def test_criterion_02_correlation_closed_forms():
    rect = ChipWaveform("rect")
    rc = ChipWaveform("rc")
    offsets = np.linspace(0.0, 1.0, 1000)
    worst_rect = 0.0
    for d in offsets:
        closed, quad = autocorr(rect, d), autocorr_quad(rect, d)
        assert closed == pytest.approx((1.0 - d, d), abs=1e-12)
        worst_rect = max(worst_rect, *(abs(c - q) for c, q in zip(closed, quad)))
    assert worst_rect < 1e-9
    # the pulse energy: the overlapping integral at delta = 0, by quadrature
    energy_err = abs(autocorr_quad(rc, 0.0)[0] - 1.0)
    assert energy_err < 1e-9
    half_closed = abs(autocorr(rc, 0.5)[0] - 1.0 / 6.0)
    half_quad = abs(autocorr_quad(rc, 0.5)[0] - 1.0 / 6.0)
    assert half_closed < 1e-8
    assert half_quad < 1e-8
    print(
        f"criterion 2 PASS: rect closed forms vs quadrature {worst_rect:.3e} < 1e-9 "
        f"at 1000 offsets; rc energy error {energy_err:.3e} < 1e-9; "
        f"rc overlap at half chip within {max(half_closed, half_quad):.3e} of 1/6"
    )


def test_criterion_03_model_certification():
    worst = {}
    for token in WAVEFORM_TOKENS:
        rng = np.random.default_rng(101)
        worst[token] = certify_discrete_model(4, ChipWaveform(token), 100, rng)
        assert worst[token] < 1e-6, (token, worst[token])
    print(
        "criterion 3 PASS: chip-rate model matches continuous-time matched filter, "
        "sf=4, 100 realizations per waveform, max abs error "
        f"rect={worst['rect']:.3e}, rc={worst['rc']:.3e} < 1e-6"
    )


def test_criterion_04_analytic_decomposition():
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(200):
        sf = 4 if i % 2 == 0 else 5
        m = symbol_cardinality(sf)
        wf = ChipWaveform("rect" if i % 4 < 2 else "rc")
        x_prev, x_cur, _ = (int(v) for v in rng.integers(0, m, size=3))
        delta = float(rng.uniform(-0.5, 0.5))
        rows = synthesize_chip_rows(
            np.array([x_prev]),
            np.array([x_cur]),
            np.array([delta]),
            wf,
            sf,
        )
        stats = despread(rows[0], sf)
        expected = analytic_decision_statistic(x_prev, x_cur, delta, wf, sf)
        for cand in range(m):
            worst = max(worst, abs(stats[cand] - expected[cand]))
    assert worst < 1e-9
    print(
        "criterion 4 PASS: analytic decision statistic equals the noise-free "
        f"despreading pipeline, 200 random tuples sf 4..5, max abs error {worst:.3e} < 1e-9"
    )


@pytest.mark.slow
def test_criterion_05_synchronous_oracle():
    lines = []
    worst_z = 0.0
    for sf in (4, 5):
        for snr in snr_axis(6.0, 16.0, 2.0):
            p = analytical_ser_sync(sf, snr)
            if not 1e-3 <= p <= 1e-1:
                continue
            est = _estimate(sf, "rect", 0.0, snr, max_trials=200_000)
            sigma = math.sqrt(p * (1.0 - p) / est.trials)
            z = abs(est.ser - p) / sigma
            assert z < 3.0, (sf, snr, est.ser, p, z)
            worst_z = max(worst_z, z)
            lines.append(f"sf={sf} snr={snr:g} ({z:.2f} sigma)")
    assert len(lines) >= 2
    print(
        "criterion 5 PASS: synchronous Monte-Carlo within 3 binomial sigma of the "
        f"analytical SER at {len(lines)} points, worst {worst_z:.2f} sigma: "
        + "; ".join(lines)
    )


@pytest.mark.slow
def test_criterion_06_error_floor_full_chip_offset():
    floor = 1.0
    for sf in (4, 5, 6, 7):
        for token in WAVEFORM_TOKENS:
            est = _estimate(sf, token, 1.0, 20.0, max_trials=100_000)
            assert est.ser > 1e-2, (sf, token, est.ser)
            floor = min(floor, est.ser)
    print(
        "criterion 6 PASS: SER at delta_s=1, 20 dB stays above 1e-2 for sf 4..7 "
        f"and both waveforms (smallest observed {floor:.3e})"
    )


@pytest.mark.slow
def test_criterion_07a_required_snr_mid_offset():
    required = {}
    for sf in (5, 6):
        curve = []
        for snr in snr_axis(8.0, 18.0, 2.0):
            est = _estimate(sf, "rect", 0.4, snr, max_trials=1_000_000, min_errors=100)
            curve.append((snr, _effective_ser(est)))
        required[sf] = _required_snr_db(curve, 1e-3)
        assert required[sf] is not None, (sf, curve)
        assert 12.0 <= required[sf] <= 16.0, (sf, required[sf], curve)
    print(
        "criterion 7a PASS: required SNR for SER 1e-3 (rect, delta_s=0.4) is "
        f"sf5 {required[5]:.2f} dB and sf6 {required[6]:.2f} dB, both within 14 +/- 2"
    )


@pytest.mark.slow
def test_criterion_07b_waveform_gap_at_large_offset():
    gaps = {}
    for ds in (0.4, 0.6, 0.8):
        required = {}
        for token in WAVEFORM_TOKENS:
            curve = []
            for snr in snr_axis(6.0, 24.0, 2.0):
                est = _estimate(4, token, ds, snr, max_trials=1_000_000, min_errors=100)
                curve.append((snr, _effective_ser(est)))
            required[token] = _required_snr_db(curve, 1e-3)
        if required["rect"] is not None and required["rc"] is not None:
            gaps[ds] = required["rc"] - required["rect"]
    assert any(1.0 <= gap <= 3.0 for gap in gaps.values()), gaps
    shown = ", ".join(f"delta_s={ds:g}: {gap:+.2f} dB" for ds, gap in sorted(gaps.items()))
    print(
        "criterion 7b PASS: at sf=4 the rectangular waveform reaches SER 1e-3 "
        f"1-3 dB earlier than raised-cosine at some large offset ({shown})"
    )


@pytest.mark.slow
def test_criterion_08_rc_not_worse_at_small_offset():
    compared = 0
    for sf in (4, 5, 6, 7):
        for snr in snr_axis(6.0, 16.0, 2.0):
            rect_est = _estimate(sf, "rect", 0.2, snr, max_trials=200_000, min_errors=100)
            if rect_est.errors < 10 or rect_est.ser > 0.3:
                continue
            rc_est = _estimate(sf, "rc", 0.2, snr, max_trials=200_000, min_errors=100)
            compared += 1
            assert rc_est.ci_low <= rect_est.ci_high, (
                sf,
                snr,
                rc_est.ser,
                rect_est.ser,
            )
    assert compared >= 8
    print(
        "criterion 8 PASS: raised-cosine SER is never significantly above "
        f"rectangular at delta_s=0.2 across {compared} waterfall points, sf 4..7"
    )


@pytest.mark.slow
def test_criterion_09_monotone_degradation_with_offset():
    checked = 0
    for sf in (4, 5, 6, 7):
        for token in WAVEFORM_TOKENS:
            ests = [
                _estimate(sf, token, ds, 14.0, max_trials=200_000, min_errors=100)
                for ds in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
            ]
            for prev, nxt in zip(ests, ests[1:]):
                checked += 1
                assert nxt.ci_high >= prev.ci_low, (
                    sf,
                    token,
                    prev.point.delta_s,
                    nxt.point.delta_s,
                    prev.ser,
                    nxt.ser,
                )
    print(
        "criterion 9 PASS: SER at 14 dB is nondecreasing in delta_s within CI "
        f"slack for every sf and waveform ({checked} adjacent pairs)"
    )


@pytest.mark.slow
def test_criterion_10_determinism_across_worker_counts(tmp_path):
    base = ["sweep", "--trials-max", "10000", "--min-errors", "100"]
    path_w1 = tmp_path / "w1.csv"
    path_w8 = tmp_path / "w8.csv"
    assert main([*base, "--workers", "1", "-o", str(path_w1)]) == 0
    assert main([*base, "--workers", "8", "-o", str(path_w8)]) == 0
    assert path_w1.read_bytes() == path_w8.read_bytes()
    lines = path_w1.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 721
    print(
        "criterion 10 PASS: full default grid at 1e4 trials is byte-identical "
        f"for worker counts 1 and 8 ({len(lines) - 1} rows)"
    )
