"""Tests for chip pulse shapes and their partial autocorrelations.

The closed forms are checked against two independent quadratures: the
package's own fixed Gauss-Legendre rule and scipy.integrate.quad, the
adaptive reference.
"""

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from qslora.channel import analytic_decision_statistic, synthesize_chip_rows
from qslora.continuous_time import ContinuousSignal, certify_discrete_model, synthesize
from qslora.grid import GridPoint
from qslora.waveforms import (
    WAVEFORM_TOKENS,
    ChipWaveform,
    autocorr,
    autocorr_quad,
    sample_waveform,
)

RC_AMP = np.sqrt(2.0 / 3.0)


class TestTokens:
    def test_known_tokens(self):
        assert [ChipWaveform(token).kind for token in WAVEFORM_TOKENS] == ["rect", "rc"]

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError, match="rect, rc"):
            ChipWaveform("gaussian")

    def test_constructor_validates_kind(self):
        with pytest.raises(ValueError):
            ChipWaveform("square")


class TestSampling:
    def test_rect_is_flat_on_support(self, rect):
        t = np.array([0.0, 0.25, 0.5, 0.999])
        np.testing.assert_array_equal(sample_waveform(rect, t), np.ones(4))

    def test_zero_outside_support(self, rect, rc):
        t = np.array([-0.5, -1e-9, 1.0, 1.5])
        np.testing.assert_array_equal(sample_waveform(rect, t), np.zeros(4))
        np.testing.assert_array_equal(sample_waveform(rc, t), np.zeros(4))

    def test_rc_nulls_at_chip_edges(self, rc):
        assert sample_waveform(rc, 0.0) == 0.0
        assert sample_waveform(rc, 1.0 - 1e-12) == pytest.approx(0.0, abs=1e-10)

    def test_rc_peak_at_half_chip(self, rc):
        assert sample_waveform(rc, 0.5) == pytest.approx(2.0 * RC_AMP, abs=1e-15)

    def test_scalar_input_gives_scalar_like(self, rect):
        assert float(sample_waveform(rect, 0.3)) == 1.0


class TestEnergy:
    # the pulse energy is the overlapping integral at delta = 0, by quadrature
    def test_unit_energy_rect(self, rect):
        assert abs(autocorr_quad(rect, 0.0)[0] - 1.0) < 1e-9

    def test_unit_energy_rc(self, rc):
        assert abs(autocorr_quad(rc, 0.0)[0] - 1.0) < 1e-9

    def test_unit_energy_against_scipy(self, rc):
        val, err = scipy.integrate.quad(lambda t: sample_waveform(rc, t) ** 2, 0.0, 1.0)
        assert abs(val - 1.0) < 1e-9


class TestRectangularClosedForms:
    def test_identities_on_dense_grid(self, rect):
        d = np.linspace(-1.0, 1.0, 1001)
        keep, spill = autocorr(rect, d)
        np.testing.assert_allclose(keep, 1.0 - np.abs(d), atol=1e-15)
        np.testing.assert_allclose(spill, np.abs(d), atol=1e-15)

    def test_complementarity(self, rect):
        d = np.linspace(-1.0, 1.0, 201)
        total = sum(autocorr(rect, d))
        np.testing.assert_allclose(total, np.ones_like(d), atol=1e-15)


class TestRaisedCosineClosedForms:
    # values frozen from quadrature of the defining integrals before the
    # closed forms were written
    @pytest.mark.parametrize(
        "delta, keep, spill",
        [
            (0.25, 0.6591549430918954, 0.0075117235747713335),
            (0.3, 0.5459280470406438, 0.017732954834373874),
            (0.5, 1.0 / 6.0, 1.0 / 6.0),
        ],
    )
    def test_frozen_quadrature_values(self, rc, delta, keep, spill):
        assert autocorr(rc, delta) == pytest.approx((keep, spill), abs=1e-12)

    def test_half_chip_value_is_one_sixth(self, rc):
        # certified by quadrature: both partial correlations equal 1/6 at
        # half-chip offset (not 0.5)
        assert abs(autocorr(rc, 0.5)[0] - 1.0 / 6.0) < 1e-8
        assert abs(autocorr_quad(rc, 0.5)[0] - 1.0 / 6.0) < 1e-8

    def test_no_complementarity(self, rc):
        total = sum(autocorr(rc, 0.25))
        assert abs(total - 1.0) > 0.1

    def test_against_scipy_quadrature(self, rc, rng):
        for d in rng.uniform(0.0, 1.0, size=50):
            keep, _ = scipy.integrate.quad(
                lambda u: sample_waveform(rc, u) * sample_waveform(rc, u - d), d, 1.0
            )
            spill, _ = scipy.integrate.quad(
                lambda u: sample_waveform(rc, u) * sample_waveform(rc, u + 1.0 - d), 0.0, d
            )
            assert autocorr(rc, d) == pytest.approx((keep, spill), abs=1e-10)


class TestCommonProperties:
    @pytest.mark.parametrize("token", ["rect", "rc"])
    def test_endpoints(self, token):
        w = ChipWaveform(token)
        assert autocorr(w, 0.0) == pytest.approx((1.0, 0.0), abs=1e-12)
        assert autocorr(w, 1.0) == pytest.approx((0.0, 1.0), abs=1e-12)

    @given(delta=st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_even_in_delta(self, delta):
        for token in ("rect", "rc"):
            w = ChipWaveform(token)
            assert autocorr(w, delta) == autocorr(w, -delta)

    @pytest.mark.parametrize("token", ["rect", "rc"])
    def test_closed_forms_match_quadrature(self, token, rng):
        # the closed forms are defined by the pair of overlap integrals
        w = ChipWaveform(token)
        offsets = rng.uniform(-1.0, 1.0, size=1000)
        for d in offsets:
            assert autocorr(w, d) == pytest.approx(autocorr_quad(w, d), abs=1e-10)

    @pytest.mark.parametrize("token", ["rect", "rc"])
    def test_offset_out_of_range_rejected(self, token):
        w = ChipWaveform(token)
        with pytest.raises(ValueError):
            autocorr(w, 1.5)
        with pytest.raises(ValueError):
            autocorr(w, -1.2)
        for reject in (autocorr, autocorr_quad):
            with pytest.raises(ValueError, match=r"must be finite and in \[-1, 1\]"):
                reject(w, np.nan)
        with pytest.raises(ValueError, match=r"must be finite and in \[-1, 1\]"):
            autocorr(w, np.array([0.5, np.nan]))

    def test_quadrature_energy_partition(self, rc):
        # R(d) + Rhat(d) equals the energy of the filter window content
        # only for rect; for rc verify instead that each integral is
        # bounded by the pulse energy
        d = np.linspace(0.0, 1.0, 21)
        keep, spill = autocorr(rc, d)
        assert np.all(keep <= 1.0 + 1e-12)
        assert np.all(spill <= 1.0 + 1e-12)
        assert np.all(keep >= -1e-12)
        assert np.all(spill >= -1e-12)


# every checked entry that takes a pulse, called with it and otherwise valid arguments
PULSE_ENTRIES = {
    "autocorr": lambda w: autocorr(w, 0.5),
    "autocorr_quad": lambda w: autocorr_quad(w, 0.5),
    "sample_waveform": lambda w: sample_waveform(w, 0.5),
    "synthesize_chip_rows": lambda w: synthesize_chip_rows(0, 1, 0.25, w, 4),
    "analytic_decision_statistic": lambda w: analytic_decision_statistic(0, 1, 0.25, w, 4),
    "certify_discrete_model": lambda w: certify_discrete_model(4, w, 1, np.random.default_rng(1)),
    "synthesize": lambda w: synthesize((1, 2), w, 4),
    "ContinuousSignal": lambda w: ContinuousSignal((1, 2), 4, w),
}


@pytest.mark.parametrize("bad", ["rc", None, ("rc",)], ids=["token", "None", "tuple"])
@pytest.mark.parametrize("entry", list(PULSE_ENTRIES))
def test_every_pulse_entry_refuses_a_non_waveform(entry, bad):
    with pytest.raises(ValueError, match="^waveform must be a ChipWaveform, got "):
        PULSE_ENTRIES[entry](bad)


def test_grid_point_keeps_its_waveform_message():
    with pytest.raises(ValueError, match=r"^waveform must be a ChipWaveform, got 'rc'$"):
        GridPoint(4, "rc", 0.0, 0.0)
