"""Tests for the continuous-time reference model and its certification of
the chip-rate decomposition."""

import numpy as np
import pytest

from qslora.channel import synthesize_chip_rows
from qslora.continuous_time import certify_discrete_model, matched_filter_chip, synthesize
from qslora.modulation import envelope_matrix
from qslora.quadrature import integrate
from qslora.waveforms import ChipWaveform, autocorr_overlapped, autocorr_overlapping


class TestSynthesize:
    def test_grid_size_contract(self, rect):
        # the signal spans len(symbols) * M chips from t = 0
        sig = synthesize((3, 5), rect, 4)
        assert sig.span == (0.0, 32.0)

    def test_requires_symbols(self, rect):
        with pytest.raises(ValueError):
            synthesize((), rect, 4)

    def test_symbol_index_validated(self, rect):
        with pytest.raises(ValueError):
            synthesize((16,), rect, 4)

    def test_rect_mid_chip_samples_equal_envelope(self, rect):
        sig = synthesize((9,), rect, 4)
        env = envelope_matrix(4)[9]
        for k in range(16):
            assert sig.value_at(k + 0.5) == pytest.approx(env[k], abs=1e-12)

    def test_rc_nulls_at_chip_boundaries(self, rc):
        sig = synthesize((9,), rc, 4)
        boundary_samples = sig.value_at(np.arange(16.0))
        np.testing.assert_allclose(boundary_samples, 0.0, atol=1e-12)

    def test_zero_outside_span(self, rect):
        sig = synthesize((9,), rect, 4)
        assert sig.value_at(-0.5) == 0.0
        assert sig.value_at(16.01) == 0.0

    @pytest.mark.parametrize("token", ["rect", "rc"])
    def test_symbol_energy_is_unit(self, token):
        # chip-wise quadrature of |s(t)|^2 over one symbol
        sig = synthesize((7,), ChipWaveform(token), 4)
        total = sum(
            integrate(lambda t: np.abs(sig.value_at(t)) ** 2, k, k + 1.0) for k in range(16)
        )
        assert total == pytest.approx(1.0, abs=1e-6)



class TestMatchedFilterChip:
    def test_synchronous_recovers_envelope(self, rect, rc):
        for wf in (rect, rc):
            sig = synthesize((5, 9, 2), wf, 4)
            env = envelope_matrix(4)[9]
            for k in (0, 7, 15):
                got = matched_filter_chip(sig, 1, k, 0.0)
                assert got == pytest.approx(env[k], abs=1e-6)

    def test_rect_quarter_chip_interior(self, rect):
        sig = synthesize((5, 9, 2), rect, 4)
        env = envelope_matrix(4)[9]
        got = matched_filter_chip(sig, 1, 3, 0.25)
        assert got == pytest.approx(0.75 * env[3] + 0.25 * env[4], abs=1e-6)

    def test_rc_half_chip_interior(self, rc):
        sig = synthesize((5, 9, 2), rc, 4)
        env = envelope_matrix(4)[9]
        keep = autocorr_overlapping(rc, 0.5)
        spill = autocorr_overlapped(rc, 0.5)
        got = matched_filter_chip(sig, 1, 3, 0.5)
        assert got == pytest.approx(keep * env[3] + spill * env[4], abs=1e-6)

    def test_negative_offset_spills_from_previous_symbol(self, rect):
        sig = synthesize((5, 9, 2), rect, 4)
        reference = synthesize_chip_rows(
            np.array([5]), np.array([9]), np.array([-0.4]), rect, 4,
        )[0]
        got = matched_filter_chip(sig, 1, 0, -0.4)
        assert got == pytest.approx(reference[0], abs=1e-9)

    def test_window_outside_span_rejected(self, rect):
        sig = synthesize((5, 9, 2), rect, 4)
        with pytest.raises(ValueError):
            matched_filter_chip(sig, 0, 0, -0.3)
        with pytest.raises(ValueError):
            matched_filter_chip(sig, 2, 15, 0.3)

    def test_indices_validated(self, rect):
        sig = synthesize((5, 9, 2), rect, 4)
        with pytest.raises(ValueError):
            matched_filter_chip(sig, 3, 0, 0.0)
        with pytest.raises(ValueError):
            matched_filter_chip(sig, 1, 16, 0.0)
        # the window would lie inside the span; the offset bound rejects it
        with pytest.raises(ValueError, match="chip offset magnitude"):
            matched_filter_chip(sig, 1, 3, 0.75)

    def test_time_shift_consistency(self, rc):
        # prepending a symbol shifts the signal by one symbol period, so
        # querying n+1 must reproduce the chip samples
        base = synthesize((5, 9, 2), rc, 4)
        shifted = synthesize((7, 5, 9, 2), rc, 4)
        for k in (0, 6, 15):
            a = matched_filter_chip(base, 1, k, 0.37)
            b = matched_filter_chip(shifted, 2, k, 0.37)
            assert a == pytest.approx(b, abs=1e-9)


class TestCertifyDiscreteModel:
    @pytest.mark.parametrize("token", ["rect", "rc"])
    def test_random_offsets_agree(self, token):
        rng = np.random.default_rng(31)
        err = certify_discrete_model(4, ChipWaveform(token), 30, rng)
        assert err < 1e-6

    def test_synchronous_path_is_tighter(self, rect):
        rng = np.random.default_rng(32)
        err = certify_discrete_model(4, rect, 10, rng, delta_s=0.0)
        assert err < 1e-9

    def test_requires_positive_trials(self, rect):
        with pytest.raises(ValueError):
            certify_discrete_model(4, rect, 0, np.random.default_rng(0))

    def test_higher_sf_spot_check(self, rc):
        rng = np.random.default_rng(33)
        err = certify_discrete_model(5, rc, 5, rng)
        assert err < 1e-6
