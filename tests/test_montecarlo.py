"""Tests for the Monte-Carlo harness: confidence intervals, the Rice law and
the analytical synchronous reference of qslora.rice, trial-level
reproducibility, and the sweep driver."""

import copy
import hashlib
import math
import multiprocessing
import os
import tracemalloc
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from qslora import montecarlo, rice
from qslora.channel import synthesize_chip_rows
from qslora.channel import analytic_decision_statistic
from qslora.cli import main
from qslora.modulation import despread, envelope_matrix
from qslora.grid import GridPoint, snr_axis
from qslora.montecarlo import (
    TRIALS_PER_CHUNK,
    SerEstimate,
    StoppingRule,
    SweepConfig,
    noise_variance,
    run_point,
    run_sweep,
    wilson_interval,
)
from qslora.rice import analytical_ser_sync
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


def _exact_ser_sync(sf: int, snr_db: float) -> float:
    """The exact alternating sum, in arbitrary precision (mpmath).

    P_e = sum_{j=1}^{M-1} (-1)^(j+1) C(M-1, j) exp(-gamma j/(j+1)) / (j+1)
    with gamma = 10^(snr_db/10). Its terms grow like 2^M, so it is summed
    with exact integer binomials at a working precision scaled to M.
    """
    mp = pytest.importorskip("mpmath")
    m = 2**sf
    with mp.workdps(int(0.302 * m) + 30):
        gamma = mp.mpf(10.0) ** (mp.mpf(snr_db) / 10.0)
        total = mp.mpf(0)
        for j in range(1, m):
            term = mp.mpf(math.comb(m - 1, j)) * mp.exp(-gamma * j / (j + 1)) / (j + 1)
            total = total + term if j % 2 == 1 else total - term
        return float(total)


class TestAnalyticalSerSync:
    @pytest.mark.parametrize("sf", range(2, 10))
    def test_matches_exact_sum(self, sf):
        for snr_db in np.arange(-4.0, 24.1, 2.0):
            exact = _exact_ser_sync(sf, float(snr_db))
            assert analytical_ser_sync(sf, float(snr_db)) == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.slow
    @pytest.mark.parametrize("sf", [10, 11, 12])
    def test_matches_exact_sum_large_sf(self, sf):
        for snr_db in (-4.0, 10.0, 24.0):
            exact = _exact_ser_sync(sf, snr_db)
            assert analytical_ser_sync(sf, snr_db) == pytest.approx(exact, rel=1e-12, abs=0)

    def test_log_i0e_against_scipy(self):
        from scipy.special import i0e

        z = np.concatenate((np.logspace(-6, 4, 400), [24.999, 25.0, 25.001, 699.0, 701.0]))
        np.testing.assert_allclose(np.exp(rice._log_i0e(z)), i0e(z), rtol=5e-15, atol=0)

    @pytest.mark.parametrize("snr_db", [60.0, 100.0, 200.0, 300.0])
    def test_beyond_the_smallest_subnormal_is_zero(self, snr_db):
        assert analytical_ser_sync(4, snr_db) == 0.0
        assert analytical_ser_sync(12, snr_db) == 0.0

    def test_zero_decided_by_the_union_bound(self):
        # the union bound (M-1)/2 exp(-gamma/2) crosses the smallest
        # subnormal at gamma = 2 (log((M-1)/2) - log(5e-324)) ~ 1494 at sf 4
        cut_db = 10.0 * math.log10(2.0 * (math.log(7.5) - math.log(math.ulp(0.0))))
        assert analytical_ser_sync(4, cut_db + 1e-9) == 0.0
        assert 0.0 < analytical_ser_sync(4, cut_db - 0.1) < 1e-315

    @pytest.mark.parametrize("snr_db", [-200.0, -250.0, -300.0])
    def test_deep_noise_is_the_uniform_guess(self, snr_db):
        # at gamma = 1e-30 the SER is 1 - 1/M to about 3e-16
        assert analytical_ser_sync(4, snr_db) == pytest.approx(15.0 / 16.0, rel=1e-15, abs=0)
        assert analytical_ser_sync(12, snr_db) == pytest.approx(4095.0 / 4096.0, rel=1e-15, abs=0)

    @pytest.mark.parametrize(
        "snr_db", [math.nan, math.inf, -math.inf, 300.5, -300.5, -4000.0, True, "4", None, 1j]
    )
    def test_non_finite_snr_rejected(self, snr_db):
        # and every other value outside channel.validate_snr's rule
        with pytest.raises(ValueError, match="^snr_db must be"):
            analytical_ser_sync(4, snr_db)

    def test_work_bounded_in_snr(self, monkeypatch):
        # every integrand node passes through _log_i0e once
        nodes = []
        log_i0e = rice._log_i0e

        def counted(z):
            nodes.append(z.size)
            return log_i0e(z)

        monkeypatch.setattr(rice, "_log_i0e", counted)
        for snr_db in (-300.0, -4.0, 10.0, 24.0, 31.5, 31.7, 32.0, 60.0, 300.0):
            analytical_ser_sync(12, snr_db)
        # nodes are built up to the cutoff near 31.7 dB only: about 1.6k at
        # sf 12, and none at all beyond it
        assert len(nodes) == 6
        assert max(nodes) == nodes[-1] < 2000

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


def _rice_log_tail(x: float, mu: float, terms: range, lower: bool) -> float:
    """log F (lower) or log(1 - F) of the Rice law in arbitrary precision.

    The Poisson mixture of regularized Gamma tails over j in terms, each
    tail by mpmath's incomplete gamma function; the terms outside must be
    negligible.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        x, mu = mp.mpf(x), mp.mpf(mu)
        total = mp.mpf(0)
        for j in terms:
            weight = mp.exp(j * mp.log(mu) - mu - mp.loggamma(j + 1))
            span = (0, x) if lower else (x, mp.inf)
            total += weight * mp.gammainc(j + 1, *span, regularized=True)
        return float(mp.log(total))


def _rice_amplitude_log_tails(r: float, s: float) -> tuple[float, float]:
    """(log F, log(1 - F)) of the Rice law at amplitude r around s, in mpmath.

    The smaller tail integrates the amplitude density
    2 rho exp(-(rho - s)**2) I0e(2 s rho) in offsets t from r, on the far
    side of r from s, with its exponent taken from d -/+ t (d = r - s) and
    scaled by exp(d**2), so that the quadrature sees values near 1 and s
    never rounds an offset away; below r it stops at t = |d| + 40, past
    which the scaled density is below exp(-1600). The other tail is
    log(1 - exp(smaller)). I0e is mpmath's besseli below 1e4 and its
    asymptotic series above.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        r, s = mp.mpf(r), mp.mpf(s)
        d = r - s
        side = 1 if d > 0 else -1

        def i0e(z):
            if z < 1e4:
                return mp.besseli(0, z) * mp.exp(-z)
            term = total = mp.mpf(1)
            k = 1
            while term > mp.eps:
                term *= (2 * k - 1) ** 2 / (8 * k * z)
                total += term
                k += 1
            return total / mp.sqrt(2 * mp.pi * z)

        def density(t):
            rho = r + side * t
            return 2 * rho * mp.exp(d * d - (d + side * t) ** 2) * i0e(2 * s * rho)

        end = min(r, abs(d) + 40) if side < 0 else mp.inf
        cuts = [mp.mpf(4) ** k / (40 * (abs(d) + 1)) for k in range(9)]
        cuts = [mp.mpf(0)] + [c for c in cuts if c < min(end, abs(d) + 40)] + [end]
        smaller = mp.log(mp.quad(density, cuts)) - d * d
        other = mp.log(-mp.expm1(smaller))
        pair = (smaller, other) if side < 0 else (other, smaller)
        return float(pair[0]), float(pair[1])


class TestRiceLaw:
    @pytest.mark.parametrize("mu", [0.0, 1e-6, 1e-3, 0.1, 1.0, 5.0, 30.0, 63.0, 4e3])
    def test_against_scipy(self, mu):
        # x from 1e-8 to 30 past sqrt(mu) in amplitude, and x = mu; 2x is
        # noncentral chi-square with 2 degrees of freedom and noncentrality
        # 2 mu. scipy loses accuracy in the far tails at large noncentrality
        # (at 2 mu = 8000 its logsf is off by 3.5e-13 at -29 and its logcdf
        # by 1.8e-6 at -329, by mpmath), so each side is compared where
        # scipy's value is above -20
        x = np.append(np.geomspace(1e-8, (math.sqrt(mu) + 30.0) ** 2, 300), mu)
        log_cdf, log_sf = rice._rice_log_cdf(np.sqrt(x), np.full_like(x, math.sqrt(mu)))
        law = scipy_stats.ncx2(2, 2.0 * mu) if mu else scipy_stats.chi2(2)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy's log of an underflowed tail
            ref_cdf, ref_sf = law.logcdf(2.0 * x), law.logsf(2.0 * x)
        for got, ref in ((log_cdf, ref_cdf), (log_sf, ref_sf)):
            near = ref > -20.0
            assert np.count_nonzero(near) >= 10
            np.testing.assert_allclose(got[near], ref[near], rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "x,mu,terms,lower",
        [
            (745.7974559428053, 1.0, range(80), False),  # log(1 - F) = -695
            (10.0, 500.0, range(200), True),  # log F = -393
            (2045.8526515760525, 4e3, range(2400, 3400), True),  # log F = -329
        ],
    )
    def test_far_tails_against_mpmath(self, x, mu, terms, lower):
        # where scipy's tails fail, the Poisson mixture in mpmath, summed
        # over the terms around sqrt(mu x) where the far tail's mass lies
        got = rice._rice_log_cdf(np.sqrt([x]), np.sqrt([mu]))[0 if lower else 1][0]
        ref = _rice_log_tail(x, mu, terms, lower)
        assert ref < -300.0
        assert got == pytest.approx(ref, rel=2e-15, abs=0)

    @pytest.mark.parametrize("mu", [1e5, 1e12, 1e30, 1e300])
    def test_large_mean_against_mpmath(self, mu):
        # in amplitude form, so that no x = r**2 rounds the input: from
        # d = -27 to 27 around s = sqrt(mu), up to the mu of about 1e30 the
        # kernel reaches at 300 dB, where the far tails are
        # subnormal floats (log about -733) that keep full relative
        # precision; at 1e300 the only floats near s are s itself, where
        # log F = log(1/2) to the last bit, and its neighbours, whose d of
        # about 2e134 puts one tail below the smallest float
        s = math.sqrt(mu)
        if mu < 1e100:
            r = s + np.array([-27.0, -26.0, -6.0, -1.0, -1e-3, 0.0, 1e-3, 1.0, 6.0, 26.0, 27.0])
        else:
            r = np.array([np.nextafter(s, 0.0), s, np.nextafter(s, math.inf)])
        ref = np.array([_rice_amplitude_log_tails(ri, s) for ri in r])
        got = np.column_stack(rice._rice_log_cdf(r, np.full_like(r, s)))
        near = ref > -20.0
        far = (ref <= -20.0) & (ref > rice._LOG_TINIEST)
        np.testing.assert_allclose(got[near], ref[near], rtol=0, atol=1e-13)
        np.testing.assert_allclose(got[far], ref[far], rtol=2e-15, atol=0)
        assert np.all(got[ref <= rice._LOG_TINIEST] == -math.inf)
        assert np.count_nonzero(near) >= 3

    def test_work_bounded_in_mu(self, monkeypatch):
        # every integrand node passes through _log_i0e once, and a row gets
        # the same number of them at any mean
        nodes = []
        log_i0e = rice._log_i0e

        def counted(z):
            nodes.append(z.size)
            return log_i0e(z)

        monkeypatch.setattr(rice, "_log_i0e", counted)
        d = np.array([-30.0, -3.0, -0.5, 0.0, 0.5, 3.0, 30.0])
        for mu in (1e-3, 4e3, 1e300):
            s = math.sqrt(mu)
            rice._rice_log_cdf(np.maximum(s + d, 0.0), np.full_like(d, s))
        assert len(nodes) == 3
        assert nodes == [nodes[0]] * 3 and nodes[0] == d.size * 16 * rice._TAIL_PANELS

    def test_central_law_is_the_exponential(self):
        # mu = 0: 1 - F = exp(-x), and log F is log1p(-exp(-x)) wherever
        # exp(-x) < 1/2; below, where that would cancel, log(-expm1(-x))
        r = np.sqrt(np.append(np.geomspace(1e-8, 800.0, 400), [0.0, math.log(2.0)]))
        x = r * r
        log_cdf, log_sf = rice._rice_log_cdf(r, np.zeros_like(r))
        np.testing.assert_array_equal(log_sf, -x)
        high = x > math.log(2.0)
        np.testing.assert_array_equal(log_cdf[high], np.log1p(-np.exp(-x[high])))
        with np.errstate(divide="ignore"):
            np.testing.assert_array_equal(log_cdf[~high], np.log(-np.expm1(-x[~high])))
        assert log_cdf[-2] == -math.inf

    def test_zero_energy_and_monotone(self):
        # F(0; mu) = 0 for every mu, without a warning; F rises and 1 - F
        # falls with x
        log_cdf, log_sf = rice._rice_log_cdf(np.zeros(3), np.sqrt([0.0, 2.0, 300.0]))
        assert np.all(log_cdf == -math.inf) and np.all(log_sf == 0.0)
        x = np.geomspace(1e-3, 200.0, 300)
        for mu in (1e-3, 2.0, 80.0):
            log_cdf, log_sf = rice._rice_log_cdf(np.sqrt(x), np.full_like(x, math.sqrt(mu)))
            assert np.all(np.diff(log_cdf) >= 0.0) and np.all(np.diff(log_sf) <= 0.0)


def _point(**overrides):
    base = dict(sf=4, waveform=ChipWaveform("rect"), delta_s=0.4, snr_db=8.0)
    base.update(overrides)
    return GridPoint(**base)


NO_EARLY_STOP = StoppingRule(max_trials=TRIALS_PER_CHUNK, min_errors=0)


@pytest.fixture
def recorded_noise(monkeypatch):
    """The kernel's bin noise as drawn: per chunk, one (4, n) draw, kept as
    the complex noise of bin a and then of bin b."""
    kept = []
    draw = montecarlo._bin_noise

    def recording(*args):
        noise = draw(*args)
        kept.extend((noise[0] + 1j * noise[1], noise[2] + 1j * noise[3]))
        return noise

    monkeypatch.setattr(montecarlo, "_bin_noise", recording)
    return kept


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

    def test_point_rejects_a_waveform_token(self):
        # the kernel reads waveform.kind, so a token would fail only later,
        # inside a worker process when workers > 1
        with pytest.raises(ValueError, match="waveform"):
            GridPoint(sf=4, waveform="rc", delta_s=0.4, snr_db=8.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_trials=1e4),
            dict(max_trials=4096.0),
            dict(max_trials=True),
            dict(min_errors=2.5),
            dict(min_errors=False),
        ],
    )
    def test_stopping_rule_rejects_non_integer_counts(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            StoppingRule(**kwargs)

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("workers", dict(workers=1.5)),
            ("workers", dict(workers=True)),
            ("master_seed", dict(master_seed=1.5)),
            ("master_seed", dict(master_seed=True)),
        ],
    )
    def test_run_point_rejects_non_integer_arguments(self, name, kwargs):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            run_point(_point(), NO_EARLY_STOP, **kwargs)

    def test_stopping_rule_accepts_numpy_integers(self):
        rule = StoppingRule(max_trials=np.int64(TRIALS_PER_CHUNK), min_errors=np.int32(0))
        assert run_point(_point(), rule).trials == TRIALS_PER_CHUNK

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

    @pytest.mark.parametrize("fixed_delta", [[0.1, 0.2], [0.1], np.array([0.1, 0.2])])
    def test_fixed_delta_must_be_one_offset(self, fixed_delta):
        # an array of offsets would fail only inside the chunk kernel
        with pytest.raises(ValueError, match="^fixed_delta must be a real number"):
            run_point(_point(), NO_EARLY_STOP, master_seed=1, fixed_delta=fixed_delta)

    def test_noise_calibration(self, recorded_noise):
        # the kernel's bin noise as drawn: the a and b bins of 128 chunks of
        # negative offsets, 2^20 draws, must have the variance
        # N0 = 10^(-snr/10), split evenly between the two quadratures
        point = _point(sf=8, snr_db=4.0)
        run_point(point, StoppingRule(128 * TRIALS_PER_CHUNK, 0), fixed_delta=-0.3)
        assert len(recorded_noise) == 256
        samples = np.column_stack([recorded_noise[0::2], recorded_noise[1::2]])
        assert samples.size >= 1_000_000
        n0 = 10.0 ** (-4.0 / 10.0)
        power = np.abs(samples) ** 2
        assert abs(float(np.mean(power)) - n0) / n0 < 0.01
        assert abs(float(np.mean(samples.real**2)) - n0 / 2) / n0 < 0.01
        # each bin's mean of 2^19 exponential draws has a relative sigma of
        # 2^-9.5; 5 sigma bounds both bins
        per_bin = np.mean(power.reshape(2, -1), axis=1)
        assert np.all(np.abs(per_bin - n0) / n0 < 5.0 * 2**-9.5)
        per_bin_real = np.mean(samples.real.reshape(2, -1) ** 2, axis=1) / per_bin
        assert np.all(np.abs(per_bin_real - 0.5) < 5.0 * 2**-9.5)

    @staticmethod
    def _replay(point, fixed_delta, noise_a, noise_b):
        """Chunk 0's trials by the stream v4 rule, with every trial's largest
        other energy decided by the Rice CDF at the trial's uniform: the flags
        |b|^2 >= |a|^2 or log U >= (M - 2) log F(x; mu), with a, b and c the
        bins of analytic_decision_statistic plus the noise the kernel drew,
        x = |a|^2/N0, mu = |c|^2/N0, and the offsets (unless fixed_delta is
        given) and U replayed from the chunk's stream. Returns the flags and
        (x, mu, log U)."""
        rng = montecarlo._chunk_rng(point, 1, 0)
        n, m = TRIALS_PER_CHUNK, 2**point.sf
        x_prev = rng.integers(0, m, size=n)
        x_cur = rng.integers(0, m, size=n)
        if fixed_delta is None:
            delta = rng.uniform(-0.5 * point.delta_s, 0.5 * point.delta_s, size=n)
        else:
            delta = np.full(n, fixed_delta)
        rng.standard_normal((4, n))  # the noise of a and b, recorded by the kernel
        with np.errstate(divide="ignore"):
            log_u = np.log(rng.random(n))
        n0 = noise_variance(point.snr_db)
        stats = analytic_decision_statistic(x_prev, x_cur, delta, point.waveform, point.sf)
        trial = np.arange(n)
        spill = (x_cur + np.where(delta < 0.0, -2, 2)) % m
        a = stats[trial, x_cur] + noise_a
        b = stats[trial, spill] + noise_b
        c = stats[trial, (x_cur + 1) % m]
        x = (a.real**2 + a.imag**2) / n0
        mu = (c.real**2 + c.imag**2) / n0
        log_cdf = rice._rice_log_cdf(np.sqrt(x), np.sqrt(mu))[0]
        flags = (b.real**2 + b.imag**2 >= a.real**2 + a.imag**2) | (log_u >= (m - 2) * log_cdf)
        return flags, (x, mu, log_u)

    @pytest.mark.parametrize("snr_db,errs", [(8.0, True), (24.0, False)])
    def test_negative_offsets_decide_by_the_rice_cdf(self, recorded_noise, snr_db, errs):
        # a negative-offset trial draws the noise of its a and b bins and
        # decides its M - 2 other bins, which all hold c, from its uniform;
        # at 24 dB most trials skip the series by the Chernoff bounds
        point = _point(sf=5, snr_db=snr_db)
        flags = montecarlo._chunk_error_flags(point, 1, 0, fixed_delta=-0.3)
        expected = self._replay(point, -0.3, *recorded_noise)[0]
        np.testing.assert_array_equal(flags, expected)
        assert bool(np.any(flags)) == errs

    def test_positive_offsets_decide_as_the_closed_form(self, recorded_noise):
        # a positive-offset trial's other bins hold noise only, mu = 0, so
        # the same rule takes F(x) = 1 - exp(-x) in closed form
        point = _point(sf=5, snr_db=8.0)
        flags = montecarlo._chunk_error_flags(point, 1, 0, fixed_delta=0.3)
        expected = self._replay(point, 0.3, *recorded_noise)[0]
        assert 0 < np.count_nonzero(flags) < TRIALS_PER_CHUNK
        np.testing.assert_array_equal(flags, expected)

    def test_random_offsets_decide_by_the_rice_cdf(self, recorded_noise, monkeypatch):
        # offsets of both signs at sf 4, 7 and 10 from -4 to 60 dB: every
        # flag is the full series' at the trial's own U, and between them the
        # chunks hold trials far above the mean, which the per-U test settles
        # at any U, and trials near it, of which only the band reaches the
        # series (mu up to about 4e3 at sf 4 and 60 dB). Far below the mean,
        # |a| would have to fall below |c| by sqrt(54 log 2 / (M - 2)) in
        # noise units, while |c| <= 2 Rhat / M < R; no chunk here gets there,
        # and test_chernoff_shortcuts_decide_as_the_series covers it. The spy
        # counts the mu > 0 rows only: mu = 0 rows take the closed form.
        series_rows = []
        rice_log_cdf = montecarlo._rice_log_cdf

        def counted(r, s):
            series_rows.append(int(np.count_nonzero(s > 0.0)))
            return rice_log_cdf(r, s)

        monkeypatch.setattr(montecarlo, "_rice_log_cdf", counted)
        taken = dict(above=0, near=0)
        for sf in (4, 7, 10):
            count = 2**sf - 2
            for snr_db in (-4.0, 4.0, 16.0, 60.0):
                point = _point(sf=sf, waveform=ChipWaveform("rc"), delta_s=1.0, snr_db=snr_db)
                recorded_noise.clear()
                flags = montecarlo._chunk_error_flags(point, 1, 0)
                expected, (x, mu, _) = self._replay(point, None, *recorded_noise)
                np.testing.assert_array_equal(flags, expected, err_msg=f"sf {sf}, {snr_db} dB")
                d = (np.sqrt(x) - np.sqrt(mu))[mu > 0.0]
                assert not np.any(d < -math.sqrt(54.0 * math.log(2.0) / count))
                above = d > math.sqrt(math.log(2.0 * count) + 54.0 * math.log(2.0))
                taken["above"] += int(np.count_nonzero(above))
                taken["near"] += int(np.count_nonzero(~above))
        assert taken["above"] > 0 and taken["near"] > 0, taken
        assert 0 < sum(series_rows) < taken["near"], (sum(series_rows), taken)

    @pytest.mark.parametrize("delta_s", [0.0, 1.0])
    def test_extreme_noise_guesses_uniformly(self, delta_s):
        # at -300 dB, the bottom of the SNR domain, N0 = 1e30; the decision
        # must stay finite and unbiased, so the SER is the uniform guess
        # 15/16 at sf 4 within 4 sigma over ten chunks
        point = _point(delta_s=delta_s, snr_db=-300.0)
        est = run_point(point, StoppingRule(max_trials=10 * TRIALS_PER_CHUNK, min_errors=0))
        p = 15 / 16
        assert abs(est.ser - p) <= 4.0 * math.sqrt(p * (1.0 - p) / est.trials)

    @pytest.mark.parametrize("count", [14, 4094])
    def test_chernoff_shortcuts_decide_as_the_series(self, count, monkeypatch):
        # trials whose log U lies outside the bracket of count * log F skip
        # the series; they must decide as log U >= count * log F does: at the
        # uniform's extremes, just inside and just outside each bound of the
        # bracket (with its margin), at the exact value, and at d within
        # 1e-6 of 0
        rng = np.random.default_rng(count)
        mu = np.repeat([0.0, 1e-4, 0.5, 30.0, 300.0], 400)
        d = rng.uniform(-np.minimum(np.sqrt(mu), 25.0), 12.0)
        small = np.flatnonzero(mu > 0.0)[::9]
        d[small] = rng.uniform(-1e-6, 1e-6, small.size)
        d[small[::4]] = 0.0
        x = (np.sqrt(mu) + d) ** 2
        log_cdf = rice._rice_log_cdf(np.sqrt(x), np.sqrt(mu))[0]
        assert np.all(np.isfinite(log_cdf))
        exact = count * log_cdf
        # the bracket: the Poisson mixture's j = 0 term and its largest
        # Gamma CDF, each tightened by the Chernoff bound on its side of
        # the mean, log(1 - exp(-d**2)) above it and -d**2 below it
        log_f0 = count * rice._central_log_cdf(x)
        chernoff = np.where(d > 0.0, count * rice._central_log_cdf(d * d), -count * d * d)
        lower = np.where(d > 0.0, np.maximum(log_f0 - count * mu, chernoff), log_f0 - count * mu)
        upper = np.where(d > 0.0, log_f0, np.minimum(log_f0, chernoff))
        assert np.all(lower <= exact) and np.all(exact <= upper)
        log_u = np.log(rng.random(mu.size))
        edges = [
            (-math.inf, np.log(1.0 - 2.0**-53), np.log(2.0**-53)),
            (lower * (1.0 + 2e-9), upper * (1.0 - 2e-9)),
            (lower * (1.0 + 5e-10), lower * (1.0 - 5e-10)),
            (upper * (1.0 + 5e-10), upper * (1.0 - 5e-10)),
            (exact * (1.0 + 1e-12), exact, exact * (1.0 - 1e-12)),
        ]
        edges = np.stack([np.broadcast_to(e, mu.shape) for group in edges for e in group])
        pick = rng.integers(-edges.shape[0], edges.shape[0], mu.size)  # below 0: random U
        log_u = np.where(pick >= 0, edges[np.maximum(pick, 0), np.arange(mu.size)], log_u)
        # a uniform is 0 or lies in [2**-53, 1 - 2**-53]
        kept = log_u.copy()
        inner = log_u > -math.inf
        log_u[inner] = np.clip(log_u[inner], -53.0 * math.log(2.0), -(2.0**-53))
        series_r = []
        rice_log_cdf = montecarlo._rice_log_cdf

        def seen(r, s):
            series_r.append(r)
            return rice_log_cdf(r, s)

        monkeypatch.setattr(montecarlo, "_rice_log_cdf", seen)
        n0 = 0.25  # a power of two: the kernel's x = energy / n0 is the x above
        reach = montecarlo._others_reach(x * n0, np.sqrt(mu * n0) + 0j, n0, log_u, count)
        np.testing.assert_array_equal(reach, log_u >= exact)
        # far above the mean, where count * exp(-d**2) < 2**-54, the lower
        # bound lies above every log U < 0, so no row there reaches the
        # series, not even at the largest U; far below the mean, where
        # -count * d**2 < -54 log 2, the upper bound lies below every U > 0
        # and U = 0 lies below the lower bound, so no row there reaches it
        # either; the series is taken, and not by every row near the mean
        rice_rows = mu > 0.0
        far_above = rice_rows & (d > math.sqrt(math.log(2.0 * count) + 54.0 * math.log(2.0)))
        far_below = rice_rows & (d < -math.sqrt(54.0 * math.log(2.0) / count))
        near = rice_rows & ~far_above
        series = np.isin(np.sqrt(x), np.concatenate(series_r)) & rice_rows
        assert np.any(far_above & (log_u == log_u.max())) and not np.any(series[far_above])
        assert np.any(series) and np.any(near & ~series)
        assert np.any(far_below & (log_u == -math.inf)) and not np.any(series[far_below])
        # 2e-9 outside a bound the trial skips the series; inside the
        # margin of either bound, or at the exact value, it reaches it
        edge = near & (log_u == kept) & (np.abs(d) > 1e-3)
        outside = edge & np.isin(pick, (3, 4))
        inside = edge & (pick >= 5)
        assert np.any(outside) and not np.any(series[outside])
        assert np.any(inside) and np.all(series[inside])

    @staticmethod
    def _noise_free_argmax(point, fixed_delta):
        """Chunk 0's flags by the noise-free argmax over the energies of
        analytic_decision_statistic, a tie with the wanted bin counting as
        an error; the symbols and offsets (unless fixed_delta is given) are
        replayed from the chunk's stream."""
        n, m = TRIALS_PER_CHUNK, 2**point.sf
        trial = np.arange(n)
        rng = montecarlo._chunk_rng(point, 1, 0)
        x_prev = rng.integers(0, m, size=n)
        x_cur = rng.integers(0, m, size=n)
        if fixed_delta is None:
            delta = rng.uniform(-0.5 * point.delta_s, 0.5 * point.delta_s, size=n)
        else:
            delta = np.full(n, fixed_delta)
        stats = analytic_decision_statistic(x_prev, x_cur, delta, point.waveform, point.sf)
        energy = stats.real**2 + stats.imag**2
        wanted = energy[trial, x_cur].copy()
        energy[trial, x_cur] = -1.0
        return energy.max(axis=1) >= wanted

    @pytest.mark.parametrize("snr_db", [200.0, 250.0, 300.0])
    @pytest.mark.parametrize("waveform", ["rect", "rc"])
    @pytest.mark.parametrize("sf", [2, 3, 4, 5, 6, 7])
    def test_high_snr_chunk_is_the_noise_free_argmax(self, sf, waveform, snr_db):
        # at the top of the SNR domain x = |a|^2/N0, mu = |c|^2/N0 and d**2
        # reach about 1e30 without a warning; the noise lies far below the
        # gaps between the energies, so each flag is the noise-free argmax
        # (no trial here ties |a| with another bin)
        for delta_s, fixed_delta in ((1.0, None), (0.0, -0.3), (0.0, 0.3)):
            point = _point(sf=sf, waveform=ChipWaveform(waveform), delta_s=delta_s, snr_db=snr_db)
            expected = self._noise_free_argmax(point, fixed_delta)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                flags = montecarlo._chunk_error_flags(point, 1, 0, fixed_delta)
            np.testing.assert_array_equal(flags, expected, err_msg=f"delta {fixed_delta}")

    @pytest.mark.parametrize(
        "waveform,delta_s,fixed_delta", [("rect", 0.0, -0.3), ("rc", 1.0, None)]
    )
    def test_negative_offsets_agree_with_brute_force(self, waveform, delta_s, fixed_delta):
        # independent of the Rice CDF: argmax over the noise-free M-vector of
        # analytic_decision_statistic plus M drawn complex normals must give
        # the same SER as run_point within a two-proportion |z| < 4.5
        sf, snr_db, n = 5, 8.0, 2**16
        wf = ChipWaveform(waveform)
        rng = np.random.default_rng(20261019)
        scale = math.sqrt(noise_variance(snr_db) / 2.0)
        ref = 0
        for _ in range(n // TRIALS_PER_CHUNK):
            x_prev, x_cur = rng.integers(0, 2**sf, (2, TRIALS_PER_CHUNK))
            if fixed_delta is None:
                delta = rng.uniform(-0.5 * delta_s, 0.5 * delta_s, TRIALS_PER_CHUNK)
            else:
                delta = fixed_delta
            stats = analytic_decision_statistic(x_prev, x_cur, delta, wf, sf)
            noise = rng.standard_normal((2,) + stats.shape)
            stats += scale * (noise[0] + 1j * noise[1])
            ref += int(np.count_nonzero(np.argmax(np.abs(stats), axis=1) != x_cur))
        point = _point(sf=sf, waveform=wf, delta_s=delta_s, snr_db=snr_db)
        est = run_point(point, StoppingRule(n, 0), fixed_delta=fixed_delta)
        pooled = (ref + est.errors) / (2 * n)
        z = (est.errors - ref) / math.sqrt(pooled * (1.0 - pooled) * 2 * n)
        assert abs(z) < 4.5, (est.errors, ref, z)

    def test_synchronous_chunk_allocates_no_bin_array(self):
        # a trial decides its M - 2 other bins from one uniform, so a
        # one-chunk sf-10 point stays below one byte per bin of an (n, M)
        # array, let alone a complex one: at delta_s = 0, and at
        # delta_s = 1, whose negative offsets put c in every other bin
        for delta_s in (0.0, 1.0):
            point = _point(sf=10, delta_s=delta_s, snr_db=11.0)
            tracemalloc.start()
            try:
                run_point(point, NO_EARLY_STOP, master_seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < TRIALS_PER_CHUNK * 2**10, delta_s

    def test_bracket_leaves_the_series_few_trials(self, recorded_noise, monkeypatch):
        # at 4 dB mu = |c|^2/N0 is small on most negative offsets, where the
        # Chernoff bounds alone lie far from log F; the mixture bounds
        # log F(x; 0) - mu <= log F(x; mu) <= log F(x; 0) settle all but a
        # few trials, and every flag stays the full series' at its own U
        series_rows = []
        rice_log_cdf = montecarlo._rice_log_cdf

        def counted(r, s):
            series_rows.append(r.size)
            return rice_log_cdf(r, s)

        monkeypatch.setattr(montecarlo, "_rice_log_cdf", counted)
        trials = 0
        for sf in (4, 5, 6, 7):
            for waveform in ("rect", "rc"):
                point = _point(sf=sf, waveform=ChipWaveform(waveform), delta_s=1.0, snr_db=4.0)
                recorded_noise.clear()
                flags = montecarlo._chunk_error_flags(point, 1, 0)
                expected = self._replay(point, None, *recorded_noise)[0]
                np.testing.assert_array_equal(flags, expected, err_msg=f"sf {sf}, {waveform}")
                trials += flags.size
        assert sum(series_rows) < 0.005 * trials, (sum(series_rows), trials)

    def test_high_snr_chunk_skips_the_series(self, monkeypatch):
        # at sf 4 and 60 dB the boundary term gives mu up to about 4e3, where
        # the series would need about 5e3 terms per trial; the Chernoff
        # bounds decide every trial there, so the chunk's peak stays small
        sizes = []
        rice_log_cdf = montecarlo._rice_log_cdf

        def counted(r, s):
            sizes.append(r.size)
            return rice_log_cdf(r, s)

        monkeypatch.setattr(montecarlo, "_rice_log_cdf", counted)
        point = _point(waveform=ChipWaveform("rc"), delta_s=1.0, snr_db=60.0)
        tracemalloc.start()
        try:
            run_point(point, NO_EARLY_STOP, master_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(sizes) == 0  # no row reaches the series
        assert peak < TRIALS_PER_CHUNK * 2**8

    def test_chunk_builds_no_chip_matrix(self):
        # trials are drawn in the bin domain, so even an sf-10 point never
        # builds the 16 MB chip matrix
        envelope_matrix.cache_clear()
        run_point(_point(sf=10, snr_db=20.0), NO_EARLY_STOP, master_seed=1)
        assert envelope_matrix.cache_info().currsize == 0


# (trials, errors) of run_point at master seed 3 under random stream v4,
# montecarlo.STREAM_VERSION (see the montecarlo docstring). A change here
# changes every published estimate, so it may only come with a new
# STREAM_VERSION recorded in CHANGES.md. v4 changed only the pins with
# negative offsets; sync-truncated, fixed-pos-half and fixed-pos-at-ds0 keep
# their v3 values.
STREAM_PINS = [
    # synchronous, truncated last chunk (5000 = 4096 + 904)
    (dict(sf=4, waveform="rect", delta_s=0.0, snr_db=8.0), 5000, 0, None, (5000, 730)),
    # random offsets of both signs, truncated last chunk
    (dict(sf=5, waveform="rc", delta_s=1.0, snr_db=10.0), 5000, 0, None, (5000, 2173)),
    # early stop after two chunks
    (dict(sf=4, waveform="rect", delta_s=0.4, snr_db=12.0), 100_000, 100, None, (8192, 105)),
    # 25 chunks, the last one truncated (100000 = 24 * 4096 + 1696)
    (dict(sf=4, waveform="rect", delta_s=0.4, snr_db=14.0), 100_000, 100, None, (100000, 71)),
    # fixed offsets of both signs, overriding delta_s
    (dict(sf=6, waveform="rect", delta_s=1.0, snr_db=12.0), 4096, 0, 0.5, (4096, 2660)),
    (dict(sf=6, waveform="rc", delta_s=1.0, snr_db=12.0), 4096, 0, -0.5, (4096, 3916)),
    (dict(sf=5, waveform="rect", delta_s=0.0, snr_db=6.0), 5000, 0, 0.3, (5000, 3620)),
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
    assert montecarlo.STREAM_VERSION == 4
    point = GridPoint(**{**coords, "waveform": ChipWaveform(coords["waveform"])})
    est = run_point(
        point,
        StoppingRule(max_trials=max_trials, min_errors=min_errors),
        master_seed=3,
        fixed_delta=fixed_delta,
    )
    assert (est.trials, est.errors) == expected


# sha256 of whole outputs, under the same stream version as STREAM_PINS:
# the sweep of the benchmark's grid-w2 argv at one worker (bench/workloads.py),
# 96 points with offsets of both signs, early stops and truncated last chunks;
# the sweep of its sf10-w1 argv, four full chunks at sf 10; a sweep at the
# bottom of the SNR domain and in its N0 > 1 part, 24 points; and the default
# oracle table, 60 lines.
# The certify rows pin every line the continuous-time reference prints: the
# benchmark's certify argv (several trials per block at sf 4 and 5), the
# default, sf 2-9 (blocks of 64 trials down to one trial, and short last
# blocks), sf 12 (one trial per block) and the synchronous path.
OUTPUT_PINS = {
    "grid-w2": (
        "sweep --sf 4,5,6,7 --waveform rect,rc --delta-s 0,0.2,0.4,0.6,0.8,1 --snr 4:16:12 "
        "--trials-max 5000 --min-errors 100 --seed 1 --workers 1",
        "047c9784c51c013109765b0f53a6b6b91bf2cf114fc5aa88d272ffe42740377a",
    ),
    "sf10-w1": (
        "sweep --sf 10 --waveform rect,rc --delta-s 0,1 --snr 11:11:1 "
        "--trials-max 4096 --min-errors 0 --seed 1 --workers 1",
        "225ec1797b8b3b5ee33c6b40ac21340b09940fd373029154b9f449710f2b26b6",
    ),
    "deep-noise": (
        "sweep --sf 4,7 --waveform rect,rc --delta-s 0,1 --snr=-300:-2:149 "
        "--trials-max 4096 --min-errors 0 --seed 1 --workers 1",
        "2e1713c631dad8fab1fd35359f068464df14f7b4c8ff76d45965f592f9e4adf5",
    ),
    "oracle": (
        "oracle",
        "e2968af3d2aa537dca8b0b83cf1802dfffcd4e5f9c69a624d78d0f96cac04a29",
    ),
    "certify-bench": (
        "certify --sf 4,5 --waveform rect,rc --trials 50 --seed 1",
        "b86665856ff20ee136d5f2ebc728faa94f3238df51a08a109443268bd4a23804",
    ),
    "certify": (
        "certify",
        "037e5d996bd6a2b92e6a1f079750da915a510b111fdf0ebbb653eb60be07c0f6",
    ),
    "certify-sf2-9": (
        "certify --sf 2,3,6,7,8,9 --trials 40 --seed 9",
        "2f98c655e185e5ab7eeca243d7ee6ee42168061ea8776e9277cff124a47d7c6a",
    ),
    "certify-sf12": (
        "certify --sf 12 --trials 2",
        "d1e84382a370eb204f132906c87fac2bfafb762052cb62493d1645c1735f0782",
    ),
    "certify-sync": (
        "certify --delta-s 0 --trials 30",
        "cf1f558291c2c5966a0ee555164dd5c371e32381ca18caa855d61124b5f5f911",
    ),
    "corr": (
        "corr",
        "bdff31ff1a80a7d42378138aa723098d2a987512c5d585465df99571fc62088e",
    ),
    "corr-quad": (
        "corr --quad",
        "b5d38b30ad74c4e1d6092f5cebeb71fa35aa18db7a168aeb210f227545024582",
    ),
    "corr-101": (
        "corr --steps 101",
        "400cc1e7a8a25fcfc63220f87e3ffee08f844618951a84270b18f832aeaae291",
    ),
    "corr-101-quad": (
        "corr --steps 101 --quad",
        "637dfdc68f59881869cedcf53ad002e27297e786970c1441e311240d335fa506",
    ),
}


@pytest.mark.parametrize("name", OUTPUT_PINS)
def test_stream_pin_of_a_grid_sweep(name, tmp_path, capsys):
    assert montecarlo.STREAM_VERSION == 4
    argv, expected = OUTPUT_PINS[name]
    argv = argv.split()
    path = tmp_path / "out.csv"
    if argv[0] == "sweep":
        argv += ["-o", str(path)]
    assert main(argv) == 0
    output = path.read_bytes() if argv[0] == "sweep" else capsys.readouterr().out.encode()
    assert hashlib.sha256(output).hexdigest() == expected


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
    # the Monte-Carlo draws trials in the bin domain, with the noise-only
    # bins reduced to their largest energy; the chip-rate pipeline must give
    # the same SER within a two-proportion |z| < 4.5, sf 8 covering both
    # kernel branches at a larger M, and both must match the exact
    # synchronous SER at delta_s = 0
    rng = np.random.default_rng(20240601)
    n = 2**16
    rule = StoppingRule(max_trials=n, min_errors=0)
    cases = [(sf, token, 1.0) for sf in (4, 6) for token in ("rect", "rc")]
    cases += [(8, "rect", 0.0), (8, "rect", 1.0), (8, "rc", 1.0)]
    for sf, token, delta_s in cases:
        ref = _chip_rate_errors(sf, token, delta_s, 10.0, n, rng)
        point = _point(sf=sf, waveform=ChipWaveform(token), delta_s=delta_s, snr_db=10.0)
        est = run_point(point, rule)
        pooled = (ref + est.errors) / (2 * n)
        z = (est.errors - ref) / math.sqrt(pooled * (1.0 - pooled) * 2 * n)
        assert abs(z) < 4.5, (sf, token, delta_s, est.errors, ref, z)
    ref = _chip_rate_errors(4, "rect", 0.0, 10.0, n, rng)
    p = analytical_ser_sync(4, 10.0)
    z = (ref - n * p) / math.sqrt(n * p * (1.0 - p))
    assert abs(z) < 4.5, (ref, n * p, z)
    trials = 2**18
    est = run_point(_point(sf=10, delta_s=0.0, snr_db=10.0), StoppingRule(trials, 0))
    p = analytical_ser_sync(10, 10.0)
    z = (est.errors - trials * p) / math.sqrt(trials * p * (1.0 - p))
    assert abs(z) < 4.5, (est.errors, trials * p, z)


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


def _mixed_config(**overrides):
    # 12 points whose neighbours stop after different chunk counts (1 to 4),
    # and where a stopped point still has a chunk in flight at workers=2;
    # 13192 trials is not a multiple of the chunk size, so a point that runs
    # to the cap ends on a truncated chunk
    base = dict(
        waveforms=("rect", "rc"),
        delta_s_list=(0.0, 1.0),
        snr_start_db=4.0,
        snr_stop_db=16.0,
        snr_step_db=6.0,
        trials_max=3 * TRIALS_PER_CHUNK + 904,
        min_errors=300,
    )
    base.update(overrides)
    return _config(**base)


def _chunks(estimate):
    return -(-estimate.trials // TRIALS_PER_CHUNK)


class _ResultCancelPool:
    """A pool whose futures have only result() and cancel(), as the
    benchmark's counting executor wraps them.

    A chunk runs in this process when its result is read. The pool records
    the chunk indices read per point, in order, and the most futures that
    were ever in flight (submitted, and neither read nor cancelled).
    """

    def __init__(self, max_workers=None):
        self.read = {}
        self.in_flight = 0
        self.peak = 0

    def submit(self, fn, *args):
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        return _ResultCancelFuture(self, fn, args)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _ResultCancelFuture:
    def __init__(self, pool, fn, args):
        self._pool = pool
        self._fn = fn
        self._args = args
        self._open = True

    def _settle(self):
        assert self._open, "a chunk future was read after it was read or cancelled"
        self._open = False
        self._pool.in_flight -= 1

    def result(self, timeout=None):
        self._settle()
        point, _, chunk = self._args[:3]
        self._pool.read.setdefault(point, []).append(chunk)
        return self._fn(*self._args)

    def cancel(self):
        if self._open:
            self._settle()
        return True


@pytest.fixture
def result_cancel_pools(monkeypatch):
    """Sweep pools become _ResultCancelPool, on two CPUs whatever the host has."""
    pools = []

    def make(max_workers):
        pools.append(_ResultCancelPool(max_workers))
        return pools[-1]

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", make)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pools


class TestSweep:
    def test_noise_variance(self):
        assert noise_variance(8.0) == 10.0 ** (-8.0 / 10.0)
        assert noise_variance(300.0) == 10.0**-30.0
        assert noise_variance(-300) == 10.0**30.0
        assert _point(snr_db=-300.0).snr_db == -300.0
        # the SNR domain is [-300, 300] dB (channel.validate_snr): noise_variance,
        # GridPoint and the sweep's snr axis reject a value outside it, a
        # non-finite one, and one that is not a real number, naming snr_db
        bad = (300.5, -300.5, -4000.0, math.nan, math.inf, -math.inf, True, "4", None, 1j)
        for snr in bad:
            with pytest.raises(ValueError, match="snr_db"):
                noise_variance(snr)
            with pytest.raises(ValueError, match="snr_db"):
                _point(snr_db=snr)
        with pytest.raises(ValueError, match="^snr: "):
            _config(snr_start_db=-4000.0, snr_stop_db=0.0, snr_step_db=1000.0)
        with pytest.raises(ValueError, match="^snr: .*snr_db"):
            _config(snr_start_db=0.0, snr_stop_db=400.0, snr_step_db=100.0)

    def test_snr_axis_inclusive(self):
        assert snr_axis(-4.0, 24.0, 2.0) == [float(v) for v in range(-4, 25, 2)]
        assert snr_axis(0.0, 0.0, 2.0) == [0.0]
        # integer and half-integer axes are the float sums start + i * step
        assert snr_axis(-4.5, 24.0, 0.5) == [-4.5 + i * 0.5 for i in range(58)]
        assert snr_axis(-300, 300, 150) == [-300.0, -150.0, 0.0, 150.0, 300.0]
        # each point is start + i * step in decimal, rounded once: a decimal
        # step reaches its decimal stop and lists each point as it is typed
        assert snr_axis(0.1, 0.7, 0.2) == [0.1, 0.3, 0.5, 0.7]
        assert snr_axis(0.0, 0.7, 0.1) == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        assert snr_axis(-0.3, 0.3, 0.3) == [-0.3, 0.0, 0.3]
        assert snr_axis(1.0, 1.95, 0.1)[-1] == 1.9
        with pytest.raises(ValueError):
            snr_axis(0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            snr_axis(10.0, 0.0, 2.0)
        for bounds in ((0.0, 1.0, 1e-320), (0.0, 1e308, 1e-10), (0.0, 1e20, 1.0)):
            with pytest.raises(ValueError, match="too many points"):
                snr_axis(*bounds)
        for bounds in ((math.nan, 1.0, 1.0), (0.0, math.inf, 1.0), (0.0, 1.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                snr_axis(*bounds)
        # a point outside the SNR domain; an unreachable stop is no point
        for bounds in ((-301.0, 0.0, 1.0), (0.0, 400.0, 100.0), (0.0, 1e20, 1e18)):
            with pytest.raises(ValueError, match="snr_db"):
                snr_axis(*bounds)
        assert snr_axis(0.0, 400.0, 500.0) == [0.0]

    def test_point_grid_order_and_count(self):
        config = _config(
            sf_list=(5, 4),
            waveforms=("rect", "rc"),
            delta_s_list=(0.4, 0.0),
            snr_start_db=0.0,
            snr_stop_db=2.0,
        )
        points = config.points
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
            _config(**kwargs)

    @pytest.mark.parametrize(
        "key,kwargs",
        [
            ("trials-max", dict(trials_max=5000.0)),
            ("min-errors", dict(min_errors=2.5)),
            ("workers", dict(workers=1.5)),
            ("workers", dict(workers=True)),
            ("seed", dict(master_seed=1.5)),
            ("seed", dict(master_seed=True)),
        ],
    )
    def test_non_integer_counts_rejected_by_name(self, key, kwargs):
        with pytest.raises(ValueError, match=f"^{key}: .* must be an integer"):
            SweepConfig(**kwargs)

    @pytest.mark.parametrize(
        "key,kwargs",
        [
            ("sf", dict(sf_list=4)),
            ("delta-s", dict(delta_s_list=("0.5",))),
            ("snr", dict(snr_start_db="1")),
            ("output", dict(output_path=5)),
            ("fixed-delta", dict(fixed_delta=[0.1, 0.2])),
            ("fixed-delta", dict(fixed_delta=[0.1])),
        ],
    )
    def test_wrong_types_rejected_by_name(self, key, kwargs):
        with pytest.raises(ValueError, match=f"^{key}: "):
            SweepConfig(**kwargs)

    def test_config_keeps_what_its_checks_build(self):
        config = _config(
            fixed_delta=np.float32(0.25), sf_list=(np.int64(5), 4, 5), snr_stop_db=10.0
        )
        assert config.fixed_delta == 0.25 and type(config.fixed_delta) is float
        assert config.stop == StoppingRule(max_trials=TRIALS_PER_CHUNK, min_errors=0)
        coords = [(p.sf, p.snr_db) for p in config.points]
        assert coords == [(4, 8.0), (4, 10.0), (5, 8.0), (5, 10.0)]
        # derived fields are not arguments and do not enter equality
        assert config == _config(fixed_delta=0.25, sf_list=(np.int64(5), 4, 5), snr_stop_db=10.0)
        assert "points" not in repr(config)

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError, match="delta-s"):
            _config(delta_s_list=(1.5,))
        with pytest.raises(ValueError):
            _config(waveforms=("sinc",))

    def test_point_estimate_depends_on_coordinates_not_grid(self):
        small = _config().points
        large = _config(
            sf_list=(4, 5),
            waveforms=("rect", "rc"),
            delta_s_list=(0.0, 0.4),
            snr_start_db=6.0,
            snr_stop_db=8.0,
        ).points
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
        points = list(config.points)
        rule = StoppingRule(max_trials=config.trials_max, min_errors=config.min_errors)
        assert [e.point for e in swept] == points
        assert swept == [run_point(p, rule, config.master_seed) for p in points]

    def test_pools_are_capped_at_cpu_count(self, monkeypatch):
        # more workers than the CPUs this process may run on would only
        # contend with the scheduler; the fake pool records its size and runs
        # every task inline. The affinity mask counts where the platform has
        # one, and os.cpu_count where it does not.
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
        config = _config(workers=10**6)
        rule = StoppingRule(max_trials=config.trials_max, min_errors=config.min_errors)
        serial = run_point(config.points[0], rule, config.master_seed)

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert run_sweep(config) == [serial]
        assert run_point(config.points[0], rule, config.master_seed, workers=10**6) == serial
        assert sizes == [3, 3]

        sizes.clear()
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert run_sweep(config) == [serial]
        assert run_point(config.points[0], rule, config.master_seed, workers=10**6) == serial
        assert sizes == [3, 3]

    def test_progress_callback_sees_every_point(self):
        config = _config(snr_start_db=4.0, snr_stop_db=6.0)
        seen = []
        run_sweep(config, progress=lambda i, n, est: seen.append((i, n, est.point)))
        assert [i for i, _, _ in seen] == [1, 2]
        assert all(n == 2 for _, n, _ in seen)

    def test_pool_contract_of_the_benchmark(self, result_cancel_pools):
        # bench/tracing.CountingExecutor hands out futures with only result()
        # and cancel(), and counts one result() per consumed chunk
        config = _mixed_config(workers=2)
        estimates = run_sweep(config)
        (pool,) = result_cancel_pools
        assert estimates == run_sweep(_mixed_config(workers=1))
        trials = [e.trials for e in estimates]
        assert min(trials) < config.trials_max == max(trials)
        assert config.trials_max % TRIALS_PER_CHUNK
        # every consumed chunk is read once, in index order, and nothing is
        # read after its point has stopped
        assert sum(len(read) for read in pool.read.values()) == sum(map(_chunks, estimates))
        assert pool.read == {e.point: list(range(_chunks(e))) for e in estimates}
        assert pool.in_flight == 0
        # one point on its own still keeps more than one chunk in flight, and
        # the chunk it did not need is cancelled, not read
        single = _ResultCancelPool()
        stopped = estimates[1]
        assert _chunks(stopped) == 3 and stopped.trials < config.trials_max
        est = run_point(stopped.point, config.stop, 1, workers=2, executor=single)
        assert est == stopped
        assert single.read == {stopped.point: [0, 1, 2]}
        assert single.peak > 1 and single.in_flight == 0

    @pytest.mark.parametrize("fixed_delta", [None, -0.1])
    def test_sweep_worker_count_invariance(self, fixed_delta):
        serial = run_sweep(_mixed_config(fixed_delta=fixed_delta))
        chunks = [_chunks(e) for e in serial]
        assert any(a != b for a, b in zip(chunks, chunks[1:]))
        assert run_sweep(_mixed_config(fixed_delta=fixed_delta, workers=2)) == serial

    def test_progress_in_grid_order_while_later_points_finish(self, result_cancel_pools):
        # the first point runs 3 chunks and its neighbour 1, so the neighbour
        # finishes first and is reported second
        config = _mixed_config(snr_start_db=10.0, snr_stop_db=10.0, workers=2)
        seen = []

        def progress(i, n, est):
            read = result_cancel_pools[0].read
            seen.append((i, n, est, {point: len(chunks) for point, chunks in read.items()}))

        estimates = run_sweep(config, progress=progress)
        assert [e.point for e in estimates] == list(config.points)
        assert [(i, n, est) for i, n, est, _ in seen] == [
            (i, len(estimates), est) for i, est in enumerate(estimates, 1)
        ]
        first_read = seen[0][3]
        assert any(first_read.get(e.point) == _chunks(e) for e in estimates[1:])

    def test_failures_leave_no_process_behind(self):
        config = _mixed_config(workers=2)
        bad = copy.copy(config.points[2])
        object.__setattr__(bad, "sf", 13)  # passes to a worker, whose kernel rejects it
        object.__setattr__(config, "points", (*config.points[:2], bad, *config.points[3:]))
        with pytest.raises(ValueError, match="spreading factor"):
            run_sweep(config)
        assert multiprocessing.active_children() == []

        def interrupt(i, n, est):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(_mixed_config(workers=2), progress=interrupt)
        assert multiprocessing.active_children() == []
