"""Tests for the Monte-Carlo harness: confidence intervals, the analytical
synchronous reference, trial-level reproducibility, and the sweep driver."""

import numpy as np
import pytest

from qslora import montecarlo
from qslora.montecarlo import (
    TRIALS_PER_CHUNK,
    GridPoint,
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
        # with the signal zeroed the rows reaching the despreader are pure
        # noise; per-chip variance over 2^20 draws must land within 1% of
        # N0 = 10^(-snr/10), split evenly between the two quadratures
        monkeypatch.setattr(
            montecarlo,
            "synthesize_chip_rows",
            lambda x_prev, x_cur, *_: np.zeros((x_cur.size, 256), dtype=complex),
        )
        seen = []
        despread_fft = montecarlo.despread_fft

        def capture(rows, sf):
            seen.append(rows.copy())
            return despread_fft(rows, sf)

        monkeypatch.setattr(montecarlo, "despread_fft", capture)
        point = _point(sf=8, snr_db=4.0)
        montecarlo._chunk_error_flags(point, 1, 0)
        (samples,) = seen
        assert samples.size >= 1_000_000
        n0 = 10.0 ** (-4.0 / 10.0)
        assert abs(float(np.mean(np.abs(samples) ** 2)) - n0) / n0 < 0.01
        assert abs(float(np.mean(samples.real**2)) - n0 / 2) / n0 < 0.01


# (trials, errors) of run_point at master seed 3 under the current random
# stream. A change here changes every published estimate, so it may only
# come with a new stream version recorded in CHANGES.md.
STREAM_PINS = [
    # synchronous, truncated last chunk (5000 = 4096 + 904)
    (dict(sf=4, waveform="rect", delta_s=0.0, snr_db=8.0), 5000, 0, None, (5000, 698)),
    # random offsets of both signs, truncated last chunk
    (dict(sf=5, waveform="rc", delta_s=1.0, snr_db=10.0), 5000, 0, None, (5000, 2191)),
    # early stop after three chunks
    (dict(sf=4, waveform="rect", delta_s=0.4, snr_db=12.0), 100_000, 100, None, (12288, 141)),
    # 25 chunks, the last one truncated (100000 = 24 * 4096 + 1696)
    (dict(sf=4, waveform="rect", delta_s=0.4, snr_db=14.0), 100_000, 100, None, (100000, 62)),
    # fixed offsets of both signs, overriding delta_s
    (dict(sf=6, waveform="rect", delta_s=1.0, snr_db=12.0), 4096, 0, 0.5, (4096, 2663)),
    (dict(sf=6, waveform="rc", delta_s=1.0, snr_db=12.0), 4096, 0, -0.5, (4096, 3911)),
    (dict(sf=5, waveform="rect", delta_s=0.0, snr_db=6.0), 5000, 0, 0.3, (5000, 3594)),
    (dict(sf=5, waveform="rect", delta_s=0.0, snr_db=6.0), 5000, 0, -0.3, (5000, 3585)),
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

    def test_progress_callback_sees_every_point(self):
        config = _config(snr_start_db=4.0, snr_stop_db=6.0)
        seen = []
        run_sweep(config, progress=lambda i, n, est: seen.append((i, n, est.point)))
        assert [i for i, _, _ in seen] == [1, 2]
        assert all(n == 2 for _, n, _ in seen)
