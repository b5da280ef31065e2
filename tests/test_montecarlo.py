"""Tests for the Monte-Carlo harness: confidence intervals, the analytical
synchronous reference, trial-level reproducibility, and the sweep driver."""

import math
import os
from concurrent.futures import Future

import numpy as np
import pytest

from qslora import montecarlo
from qslora.channel import synthesize_chip_rows
from qslora.modulation import despread, envelope_matrix
from qslora.montecarlo import (
    TRIALS_PER_CHUNK,
    GridPoint,
    SerEstimate,
    StoppingRule,
    SweepConfig,
    analytical_ser_sync,
    noise_variance,
    run_point,
    run_sweep,
    snr_axis,
    sweep_points,
    wilson_interval,
)
from qslora.waveforms import ChipWaveform

scipy_stats = pytest.importorskip("scipy.stats")


class TestWilsonInterval:
    @pytest.mark.parametrize(
        "errors,trials",
        [(0, 100), (1, 100), (50, 100), (100, 100), (3, 7), (250, 100000)],
    )
    def test_matches_reference_implementation(self, errors, trials):
        low, high = wilson_interval(errors, trials)
        ref = scipy_stats.binomtest(errors, trials).proportion_ci(
            confidence_level=0.95, method="wilson"
        )
        assert low == pytest.approx(ref.low, abs=1e-12)
        assert high == pytest.approx(ref.high, abs=1e-12)

    def test_bounds_are_ordered_and_contained(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            trials = int(rng.integers(1, 10_000))
            errors = int(rng.integers(0, trials + 1))
            low, high = wilson_interval(errors, trials)
            assert 0.0 <= low <= errors / trials <= high <= 1.0

    def test_exact_boundary_endpoints(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestAnalyticalSerSync:
    def test_frozen_values(self):
        # reference values computed independently at 200-digit precision
        assert analytical_ser_sync(4, 8.0) == pytest.approx(
            0.1417628281990643, rel=1e-12
        )
        assert analytical_ser_sync(4, 12.0) == pytest.approx(
            0.002192688882619354, rel=1e-12
        )
        assert analytical_ser_sync(5, 10.0) == pytest.approx(
            0.049863066488684826, rel=1e-12
        )
        assert analytical_ser_sync(7, 10.0) == pytest.approx(
            0.10698921595993874, rel=1e-12
        )

    def test_matches_numerical_integral(self):
        # independent check: P(correct) = E[F(V)^(M-1)] where V is the
        # Rician magnitude of the matched bin and F the Rayleigh CDF of
        # each unmatched bin
        from scipy.integrate import quad
        from scipy.special import i0e

        for sf, snr_db in [(4, 6.0), (4, 10.0), (5, 8.0)]:
            m = 2**sf
            gamma = 10.0 ** (snr_db / 10.0)
            s = np.sqrt(2.0 * gamma)

            def integrand(v, s=s, m=m):
                pdf = v * np.exp(-((v - s) ** 2) / 2.0) * i0e(v * s)
                cdf = 1.0 - np.exp(-(v**2) / 2.0)
                return pdf * cdf ** (m - 1)

            correct, _ = quad(integrand, 0.0, s + 40.0, limit=400)
            assert analytical_ser_sync(sf, snr_db) == pytest.approx(
                1.0 - correct, rel=1e-8
            )

    def test_deep_noise_limit(self):
        # at very low snr the decision is a uniform guess over the alphabet
        assert analytical_ser_sync(4, -60.0) == pytest.approx(15.0 / 16.0, rel=1e-4)

    def test_high_snr_limit(self):
        assert analytical_ser_sync(4, 60.0) < 1e-300

    def test_monotone_in_snr(self):
        vals = [analytical_ser_sync(5, snr) for snr in np.arange(-4.0, 20.1, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def _point(**overrides):
    base = dict(sf=4, waveform=ChipWaveform("rect"), delta_s=0.4, snr_db=8.0)
    base.update(overrides)
    return GridPoint(**base)


NO_EARLY_STOP = StoppingRule(max_trials=TRIALS_PER_CHUNK, min_errors=0)


class TestRunPoint:
    def test_seed_changes_outcomes(self):
        a = montecarlo._chunk_error_flags(_point(), 1, 0)
        b = montecarlo._chunk_error_flags(_point(), 2, 0)
        assert not np.array_equal(a, b)

    def test_early_stop_reaches_error_floor(self):
        point = _point(snr_db=0.0)
        rule = StoppingRule(max_trials=10**6, min_errors=100)
        est = run_point(point, rule, master_seed=1)
        assert est.errors >= 100
        assert est.trials < 10**6
        assert est.trials % TRIALS_PER_CHUNK == 0

    def test_worker_count_invariance(self):
        point = _point()
        rule = StoppingRule(max_trials=20_000, min_errors=0)
        serial = run_point(point, rule, master_seed=1, workers=1)
        parallel = run_point(point, rule, master_seed=1, workers=2)
        assert serial == parallel

    def test_equal_coordinates_share_a_stream(self):
        # the int, float and numpy forms of one coordinate, and -0.0 and 0.0,
        # are one grid point, so they must draw one random stream
        rule = StoppingRule(max_trials=2 * TRIALS_PER_CHUNK, min_errors=0)
        forms = [(1, 8), (1.0, 8.0), (np.float64(1.0), np.float64(8.0))]
        estimates = [run_point(_point(delta_s=ds, snr_db=snr), rule) for ds, snr in forms]
        assert estimates[1] == estimates[0]
        assert estimates[2] == estimates[0]
        assert run_point(_point(delta_s=-0.0), rule) == run_point(_point(delta_s=0.0), rule)

    @pytest.mark.parametrize("trials,errors", [(4, 5), (4, -1), (0, 0)])
    def test_estimate_rejects_impossible_counts(self, trials, errors):
        with pytest.raises(ValueError):
            SerEstimate(point=_point(), trials=trials, errors=errors, seed=1)

    def test_interval_consistent_with_counts(self):
        est = run_point(_point(), NO_EARLY_STOP, master_seed=1)
        low, high = wilson_interval(est.errors, est.trials)
        assert est.ci_low == low
        assert est.ci_high == high
        assert est.ser == est.errors / est.trials
        assert est.seed == 1

    def test_deep_noise_hits_uniform_guess_rate(self):
        point = _point(snr_db=-60.0, delta_s=0.0)
        est = run_point(
            point, StoppingRule(max_trials=40_960, min_errors=0), master_seed=1
        )
        p = 15.0 / 16.0
        sigma = np.sqrt(p * (1.0 - p) / est.trials)
        assert abs(est.ser - p) < 3.0 * sigma

    def test_synchronous_high_snr_is_error_free(self):
        point = _point(snr_db=60.0, delta_s=0.0)
        est = run_point(
            point, StoppingRule(max_trials=8192, min_errors=0), master_seed=1
        )
        assert est.errors == 0

    def test_agrees_with_analytical_reference(self):
        point = _point(snr_db=12.0, delta_s=0.0)
        est = run_point(
            point, StoppingRule(max_trials=100_000, min_errors=0), master_seed=1
        )
        p = analytical_ser_sync(4, 12.0)
        sigma = np.sqrt(p * (1.0 - p) / est.trials)
        assert abs(est.ser - p) < 3.0 * sigma

    def test_fixed_delta_overrides_random_draw(self):
        # pinning the offset at zero must reproduce synchronous statistics
        # even when the point nominally allows a wide offset spread
        point = _point(delta_s=0.8)
        est = run_point(
            point,
            StoppingRule(max_trials=16_384, min_errors=0),
            master_seed=1,
            fixed_delta=0.0,
        )
        p = analytical_ser_sync(4, 8.0)
        sigma = np.sqrt(p * (1.0 - p) / est.trials)
        assert abs(est.ser - p) < 4.0 * sigma

    @pytest.mark.parametrize("fixed_delta", [0.75, -0.6, float("nan")])
    def test_fixed_delta_out_of_bound_rejected(self, fixed_delta):
        # checked once per call, before any chunk is computed
        with pytest.raises(ValueError, match="0.5"):
            run_point(_point(), NO_EARLY_STOP, master_seed=1, fixed_delta=fixed_delta)

    def test_noise_calibration(self, monkeypatch):
        # with the signal zeroed the decision vectors hold pure noise; over
        # 2^20 draws the per-bin variance must match N0 = 10^(-snr/10), split
        # evenly between the two quadratures
        kept = []

        def zero_signal(x_prev, x_cur, *_):
            kept.append(np.zeros((x_cur.size, 256), dtype=complex))
            return kept[-1]

        monkeypatch.setattr(montecarlo, "analytic_decision_statistic", zero_signal)
        point = _point(sf=8, snr_db=4.0)
        montecarlo._chunk_error_flags(point, 1, 0)
        (samples,) = kept
        assert samples.size >= 1_000_000
        n0 = 10.0 ** (-4.0 / 10.0)
        power = np.abs(samples) ** 2
        assert abs(float(np.mean(power)) - n0) / n0 < 0.01
        assert abs(float(np.mean(samples.real**2)) - n0 / 2) / n0 < 0.01
        # each bin's mean of 4096 exponential draws has a relative sigma of
        # 1/64; 5 sigma bounds all 256 bins
        per_bin = np.mean(power, axis=0)
        assert np.all(np.abs(per_bin - n0) / n0 < 5.0 / 64.0)
        per_bin_real = np.mean(samples.real**2, axis=0) / per_bin
        assert np.all(np.abs(per_bin_real - 0.5) < 5.0 / 64.0)

    def test_chunk_builds_no_chip_matrix(self):
        # trials are drawn in the bin domain, so even an sf-10 point never
        # builds the 16 MB chip matrix
        envelope_matrix.cache_clear()
        run_point(_point(sf=10, snr_db=20.0), NO_EARLY_STOP, master_seed=1)
        assert envelope_matrix.cache_info().currsize == 0


# (trials, errors) of run_point at master seed 3 under random stream v2 (see
# the montecarlo docstring). A change here changes every published
# estimate, so it may only come with a new stream version recorded in
# CHANGES.md.
STREAM_PINS = [
    # synchronous, truncated last chunk (5000 = 4096 + 904)
    (dict(sf=4, waveform="rect", delta_s=0.0, snr_db=8.0), 5000, 0, None, (5000, 729)),
    # random offsets of both signs, truncated last chunk
    (dict(sf=5, waveform="rc", delta_s=1.0, snr_db=10.0), 5000, 0, None, (5000, 2187)),
    # early stop after three chunks
    (dict(sf=4, waveform="rect", delta_s=0.4, snr_db=12.0), 100_000, 100, None, (12288, 143)),
    # 25 chunks, the last one truncated (100000 = 24 * 4096 + 1696)
    (dict(sf=4, waveform="rect", delta_s=0.4, snr_db=14.0), 100_000, 100, None, (100000, 46)),
    # fixed offsets of both signs, overriding delta_s
    (dict(sf=6, waveform="rect", delta_s=1.0, snr_db=12.0), 4096, 0, 0.5, (4096, 2641)),
    (dict(sf=6, waveform="rc", delta_s=1.0, snr_db=12.0), 4096, 0, -0.5, (4096, 3924)),
    (dict(sf=5, waveform="rect", delta_s=0.0, snr_db=6.0), 5000, 0, 0.3, (5000, 3578)),
    (dict(sf=5, waveform="rect", delta_s=0.0, snr_db=6.0), 5000, 0, -0.3, (5000, 3604)),
]


@pytest.mark.parametrize(
    "coords,max_trials,min_errors,fixed_delta,expected",
    STREAM_PINS,
    ids=[
        "sync-truncated",
        "random-offsets-truncated",
        "early-stop",
        "many-chunks-truncated",
        "fixed-pos-half",
        "fixed-neg-half",
        "fixed-pos-at-ds0",
        "fixed-neg-at-ds0",
    ],
)
def test_stream_pin(coords, max_trials, min_errors, fixed_delta, expected):
    point = GridPoint(**{**coords, "waveform": ChipWaveform(coords["waveform"])})
    est = run_point(
        point,
        StoppingRule(max_trials=max_trials, min_errors=min_errors),
        master_seed=3,
        fixed_delta=fixed_delta,
    )
    assert (est.trials, est.errors) == expected


def _chip_rate_errors(sf, token, delta_s, snr_db, trials, rng):
    """Detection errors of the chip-rate pipeline over trials from rng.

    Each trial is built in the chip domain: synthesized chip rows, complex
    chip noise of variance N0, the direct-summation despreader, argmax.
    """
    m = 2**sf
    wf = ChipWaveform(token)
    scale = math.sqrt(noise_variance(snr_db) / 2.0)
    errors = 0
    for start in range(0, trials, TRIALS_PER_CHUNK):
        n = min(TRIALS_PER_CHUNK, trials - start)
        x_prev, x_cur = rng.integers(0, m, (2, n))
        delta = rng.uniform(-0.5 * delta_s, 0.5 * delta_s, n)
        rows = synthesize_chip_rows(x_prev, x_cur, delta, wf, sf)
        rows += scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        detected = np.argmax(np.abs(despread(rows, sf)), axis=1)
        errors += int(np.count_nonzero(detected != x_cur))
    return errors


@pytest.mark.slow
def test_chip_rate_reference_agrees():
    # the Monte-Carlo draws trials in the bin domain; the chip-rate pipeline
    # must give the same SER within a two-proportion |z| < 4.5 off
    # synchronism, and match the exact synchronous SER at delta_s = 0
    rng = np.random.default_rng(20240601)
    n = 2**16
    rule = StoppingRule(max_trials=n, min_errors=0)
    for sf in (4, 6):
        for token in ("rect", "rc"):
            ref = _chip_rate_errors(sf, token, 1.0, 10.0, n, rng)
            point = _point(sf=sf, waveform=ChipWaveform(token), delta_s=1.0, snr_db=10.0)
            est = run_point(point, rule)
            pooled = (ref + est.errors) / (2 * n)
            z = (est.errors - ref) / math.sqrt(pooled * (1.0 - pooled) * 2 * n)
            assert abs(z) < 4.5, (sf, token, est.errors, ref, z)
    ref = _chip_rate_errors(4, "rect", 0.0, 10.0, n, rng)
    p = analytical_ser_sync(4, 10.0)
    z = (ref - n * p) / math.sqrt(n * p * (1.0 - p))
    assert abs(z) < 4.5, (ref, n * p, z)


def _config(**overrides):
    base = dict(
        sf_list=(4,),
        waveforms=("rect",),
        delta_s_list=(0.4,),
        snr_start_db=8.0,
        snr_stop_db=8.0,
        snr_step_db=2.0,
        trials_max=TRIALS_PER_CHUNK,
        min_errors=0,
        master_seed=1,
        workers=1,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweep:
    def test_noise_variance(self):
        assert noise_variance(8.0) == 10.0 ** (-8.0 / 10.0)
        assert noise_variance(4000.0) == 0.0
        # N0 overflows below about -3083 dB; GridPoint and the sweep's snr
        # axis reject such an SNR like a non-finite one
        for snr in (-4000.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="snr_db"):
                noise_variance(snr)
            with pytest.raises(ValueError, match="snr_db"):
                _point(snr_db=snr)
        with pytest.raises(ValueError, match="^snr: "):
            _config(snr_start_db=-4000.0, snr_stop_db=0.0, snr_step_db=1000.0)

    def test_snr_axis_inclusive(self):
        assert snr_axis(-4.0, 24.0, 2.0) == [float(v) for v in range(-4, 25, 2)]
        assert snr_axis(0.0, 0.0, 2.0) == [0.0]
        with pytest.raises(ValueError):
            snr_axis(0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            snr_axis(10.0, 0.0, 2.0)
        with pytest.raises(ValueError, match="too many points"):
            snr_axis(0.0, 1.0, 1e-320)

    def test_point_grid_order_and_count(self):
        config = _config(
            sf_list=(5, 4),
            waveforms=("rect", "rc"),
            delta_s_list=(0.4, 0.0),
            snr_start_db=0.0,
            snr_stop_db=2.0,
        )
        points = sweep_points(config)
        assert len(points) == 16
        keys = [(p.sf, p.waveform.kind, p.delta_s, p.snr_db) for p in points]
        assert keys == sorted(keys)
        assert keys[0] == (4, "rc", 0.0, 0.0)

    @pytest.mark.parametrize(
        "message,kwargs",
        [
            ("sf list", dict(sf_list=())),
            ("waveform list", dict(waveforms=())),
            ("delta-s list", dict(delta_s_list=())),
            ("snr axis", dict(snr_start_db=10.0, snr_stop_db=0.0)),
        ],
    )
    def test_empty_axis_rejected_by_name(self, message, kwargs):
        with pytest.raises(ValueError, match=message):
            sweep_points(_config(**kwargs))

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError, match="delta-s"):
            sweep_points(_config(delta_s_list=(1.5,)))
        with pytest.raises(ValueError):
            sweep_points(_config(waveforms=("sinc",)))

    def test_point_estimate_depends_on_coordinates_not_grid(self):
        small = sweep_points(_config())
        large = sweep_points(
            _config(
                sf_list=(4, 5),
                waveforms=("rect", "rc"),
                delta_s_list=(0.0, 0.4),
                snr_start_db=6.0,
                snr_stop_db=8.0,
            )
        )
        target = [
            p
            for p in large
            if (p.sf, p.waveform.kind, p.delta_s, p.snr_db) == (4, "rect", 0.4, 8.0)
        ]
        assert len(target) == 1
        rule = StoppingRule(max_trials=TRIALS_PER_CHUNK, min_errors=0)
        assert run_point(small[0], rule, 1) == run_point(target[0], rule, 1)

    def test_run_sweep_matches_run_point(self):
        config = _config(
            waveforms=("rect", "rc"), snr_start_db=4.0, snr_stop_db=8.0, workers=2
        )
        swept = run_sweep(config)
        points = sweep_points(config)
        rule = StoppingRule(max_trials=config.trials_max, min_errors=config.min_errors)
        assert [e.point for e in swept] == points
        assert swept == [run_point(p, rule, config.master_seed) for p in points]

    def test_pools_are_capped_at_cpu_count(self, monkeypatch):
        # more workers than CPUs would only fork idle interpreters; the fake
        # pool records its size and runs every task inline
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        config = _config(workers=10**6)
        rule = StoppingRule(max_trials=config.trials_max, min_errors=config.min_errors)
        serial = run_point(sweep_points(config)[0], rule, config.master_seed)
        assert run_sweep(config) == [serial]
        assert run_point(sweep_points(config)[0], rule, config.master_seed, workers=10**6) == serial
        assert sizes == [3, 3]

    def test_progress_callback_sees_every_point(self):
        config = _config(snr_start_db=4.0, snr_stop_db=6.0)
        seen = []
        run_sweep(config, progress=lambda i, n, est: seen.append((i, n, est.point)))
        assert [i for i, _, _ in seen] == [1, 2]
        assert all(n == 2 for _, n, _ in seen)
