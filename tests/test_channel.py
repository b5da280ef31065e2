"""Tests for the chip-rate channel: offset draw, spillover indexing and
chip synthesis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslora.channel import _offsets, synthesize_chip_rows, validate_offset
from qslora.modulation import envelope_matrix, symbol_cardinality
from qslora.waveforms import autocorr, rectangular


def _chips(x_prev, x_cur, delta, waveform, sf=4):
    """Noise-free chips of one trial: a one-row synthesize_chip_rows batch."""
    return synthesize_chip_rows(
        np.array([x_prev]), np.array([x_cur]), np.array([float(delta)]), waveform, sf,
    )[0]


class TestValidateOffset:
    def test_scalar_returns_float(self):
        assert validate_offset(-0.5) == -0.5
        assert isinstance(validate_offset(np.float32(0.25)), float)

    def test_array_checked_as_a_whole(self):
        deltas = np.array([-0.5, 0.0, 0.5])
        np.testing.assert_array_equal(validate_offset(deltas, array=True), deltas)
        for bad in (0.75, -0.6, np.nan):
            with pytest.raises(ValueError, match="0.5"):
                validate_offset(np.array([0.1, bad, 0.2]), array=True)
            with pytest.raises(ValueError, match="0.5"):
                validate_offset(bad)


class TestOffsetLaw:
    def test_zero_bound_returns_exact_zero(self, rng):
        state = rng.bit_generator.state
        np.testing.assert_array_equal(_offsets(0.0, rng, 5), np.zeros(5))
        # the stream must not have been consumed
        assert rng.bit_generator.state == state

    @given(delta_s=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_support_bound(self, delta_s):
        rng = np.random.default_rng(99)
        assert np.all(np.abs(_offsets(delta_s, rng, 20)) <= delta_s / 2)

    def test_uniformity_statistics(self):
        # 10^6 draws at delta_s = 1: mean within 3 sigma of 0, max <= 0.5
        rng = np.random.default_rng(5)
        draws = _offsets(1.0, rng, 1_000_000)
        sigma_mean = (1.0 / math.sqrt(12.0)) / math.sqrt(draws.size)
        assert abs(draws.mean()) < 3 * sigma_mean
        assert draws.max() <= 0.5
        assert draws.min() >= -0.5
        # quartile occupancy within 1% of uniform
        frac_low = np.mean(draws < -0.25)
        assert abs(frac_low - 0.25) < 0.01


class TestOverlapIndices:
    """Which chip spills into each window: the chip one step toward the
    offset, taken from the adjacent symbol only at the boundary window."""

    def test_synchronous_identity(self, rect):
        np.testing.assert_array_equal(
            _chips(3, 9, 0.0, rect), _chips(0, 9, 0.0, rect)
        )

    def test_positive_offset_boundary_wraps_forward(self, rect):
        env = envelope_matrix(4)
        chips = _chips(2, 11, 0.3, rect)  # chip 0 of any next symbol, here 5
        keep, spill = autocorr(rect, 0.3)
        assert chips[15] == pytest.approx(keep * env[11, 15] + spill * env[5, 0], abs=1e-15)
        assert chips[7] == pytest.approx(keep * env[11, 7] + spill * env[11, 8], abs=1e-15)

    def test_negative_offset_boundary_reaches_back(self, rect):
        env = envelope_matrix(4)
        chips = _chips(2, 11, -0.3, rect)
        keep, spill = autocorr(rect, 0.3)
        assert chips[0] == pytest.approx(keep * env[11, 0] + spill * env[2, 15], abs=1e-15)
        assert chips[7] == pytest.approx(keep * env[11, 7] + spill * env[11, 6], abs=1e-15)

    @pytest.mark.parametrize("delta", [0.2, -0.2, 0.5, -0.5])
    @pytest.mark.parametrize("sf", [2, 4, 6])
    def test_exactly_one_boundary_chip(self, delta, sf, rc):
        # reference rule, chip by chip: window k reads chip k+s of the
        # current symbol, except the one window where k+s leaves [0, M) and
        # reads the neighbouring symbol; the model is not told x_next, which
        # only its chip 0 (the same for every symbol) could reveal
        cap = symbol_cardinality(sf)
        env = envelope_matrix(sf)
        x_prev, x_cur, x_next = 1, 2, 3
        s = 1 if delta > 0 else -1
        keep, spill = autocorr(rc, delta)
        expected = np.empty(cap, dtype=complex)
        boundary = []
        for k in range(cap):
            if 0 <= k + s < cap:
                src = env[x_cur, k + s]
            else:
                boundary.append(k)
                src = env[x_next, 0] if s > 0 else env[x_prev, cap - 1]
            expected[k] = keep * env[x_cur, k] + spill * src
        assert boundary == [cap - 1 if s > 0 else 0]
        np.testing.assert_allclose(
            _chips(x_prev, x_cur, delta, rc, sf=sf), expected, atol=1e-15
        )


class TestSynthesizeChips:
    def test_synchronous_noise_free_is_pure_envelope(self, rect):
        chips = _chips(3, 9, 0.0, rect)
        np.testing.assert_allclose(chips, envelope_matrix(4)[9], atol=1e-15)

    def test_interior_chip_half_offset(self, rect):
        # delta = 0.5 rect: equal-weight mix of chip k and chip k+1 of the
        # same symbol for interior k
        chips = _chips(2, 11, 0.5, rect)
        env_cur = envelope_matrix(4)[11]
        assert chips[7] == pytest.approx(0.5 * env_cur[7] + 0.5 * env_cur[8], abs=1e-12)

    def test_boundary_chip_half_offset_spills_into_next(self, rect):
        # chip 0 of any next symbol, here 5
        chips = _chips(2, 11, 0.5, rect)
        env = envelope_matrix(4)
        expected = 0.5 * env[11, 15] + 0.5 * env[5, 0]
        assert chips[15] == pytest.approx(expected, abs=1e-12)

    def test_boundary_chip_negative_offset_spills_into_previous(self, rect):
        chips = _chips(2, 11, -0.25, rect)
        env = envelope_matrix(4)
        expected = 0.75 * env[11, 0] + 0.25 * env[2, 15]
        assert chips[0] == pytest.approx(expected, abs=1e-12)

    @given(
        sf=st.integers(min_value=2, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_noise_free_synchronous_chip_energy(self, sf, data):
        # symbols have unit energy
        cap = symbol_cardinality(sf)
        x = data.draw(st.integers(0, cap - 1))
        chips = _chips(0, x, 0.0, rectangular(), sf)
        total = float(np.sum(np.abs(chips) ** 2))
        assert abs(total - 1.0) < 1e-12

    def test_batch_matches_scalar_path(self, rc):
        # each row of a mixed-sign batch equals the same trial synthesized
        # alone as a one-row batch, so batching never couples trials
        deltas = np.array([-0.4, -0.1, 0.0, 0.2, 0.5])
        xp = np.array([1, 2, 3, 4, 5])
        xc = np.array([9, 8, 7, 6, 5])
        batch = synthesize_chip_rows(xp, xc, deltas, rc, 4)
        for i in range(5):
            single = _chips(xp[i], xc[i], deltas[i], rc)
            np.testing.assert_array_equal(batch[i], single)

    @pytest.mark.parametrize("delta", [1.5, -1.5])
    def test_offset_beyond_one_chip_is_rejected(self, rc, delta):
        # the public entry checks offsets through the autocorrelations; the
        # kernel's unchecked pair must not make a wrong offset pass quietly
        with pytest.raises(ValueError, match=r"^delta must be finite and in \[-1, 1\]"):
            synthesize_chip_rows(np.array([1]), np.array([2]), np.array([delta]), rc, 4)
