"""Tests for despreading and noncoherent detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslora.channel import synthesize_chip_rows
from qslora.correlations import analytic_decision_statistic
from qslora.modulation import envelope_matrix, symbol_cardinality
from qslora.receiver import despread, despread_fft, detect
from qslora.waveforms import rectangular


class TestDespread:
    def test_pure_envelope_gives_scaled_delta(self):
        for x in (0, 5, 15):
            stats = despread(3.0 * envelope_matrix(4)[x], 4)
            expected = np.zeros(16, dtype=complex)
            expected[x] = 3.0
            np.testing.assert_allclose(stats, expected, atol=1e-12)

    def test_zero_input_gives_zero_output(self):
        stats = despread(np.zeros(32, dtype=complex), 5)
        np.testing.assert_array_equal(stats, np.zeros(32))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            despread(np.zeros(8, dtype=complex), 4)

    def test_matches_analytic_statistic_quarter_chip(self, rect):
        # noise-free quarter-chip rectangular realization: every candidate's
        # statistic equals the analytic decomposition
        chips = synthesize_chip_rows(
            np.array([4]), np.array([9]), np.array([2]),
            np.array([0.25]), rect, 4,
        )[0]
        stats = despread(chips, 4)
        for m in range(16):
            ref = analytic_decision_statistic(9, 2, m, 0.25, rect, 4)
            assert stats[m] == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("sf", [4, 5, 6, 7, 8])
    def test_fft_form_matches_direct_summation(self, sf, rng):
        # the DFT-of-dechirped-chips shortcut must agree elementwise with
        # the direct correlator bank; direct summation is the definition.
        # Both act along the last axis: a batch row matches that row
        # despread alone.
        m = symbol_cardinality(sf)
        chips = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
        direct = despread(chips, sf)
        fast = despread_fft(chips, sf)
        assert fast.shape == (5, m)
        assert float(np.max(np.abs(direct - fast))) < 1e-9
        for row, stats in zip(chips, fast):
            np.testing.assert_allclose(despread_fft(row, sf), stats, rtol=0, atol=1e-12)


class TestDetect:
    def test_perfect_synchronous_detection(self):
        for sf in (4, 5, 6, 7):
            mat = envelope_matrix(sf)
            for x in range(symbol_cardinality(sf)):
                assert detect(despread(mat[x], sf)) == x

    def test_tie_breaks_to_lowest_index(self):
        stats = np.array([1.0, 1.0, 0.0, 0.5])
        assert detect(stats) == 0
        stats = np.array([0.2, 0.8, 0.8])
        assert detect(stats) == 1

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            detect(np.array([]))
        with pytest.raises(ValueError):
            detect(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            detect(np.array([[1.0, 2.0]]))

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_phase_and_scale_invariance(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        chips = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        phase = np.exp(1j * data.draw(st.floats(min_value=-np.pi, max_value=np.pi)))
        scale = data.draw(st.floats(min_value=1e-3, max_value=1e3))
        base = detect(despread(chips, 4))
        assert detect(despread(phase * chips, 4)) == base
        assert detect(despread(scale * chips, 4)) == base

    def test_half_chip_argmax_matches_analytic_brute_force(self, rect, rng):
        # noise-free half-chip offset: the detector must agree with an
        # exhaustive argmax over the analytic statistic magnitudes, except
        # at exact magnitude ties where either method's argmax is valid
        for _ in range(50):
            x_prev, x_cur, x_next = (int(v) for v in rng.integers(0, 16, 3))
            chips = synthesize_chip_rows(
                np.array([x_prev]), np.array([x_cur]), np.array([x_next]),
                np.array([0.5]), rect, 4,
            )[0]
            got = detect(despread(chips, 4))
            mags = np.array(
                [
                    abs(analytic_decision_statistic(x_cur, x_next, m, 0.5, rect, 4))
                    for m in range(16)
                ]
            )
            top = float(mags.max())
            candidates = np.flatnonzero(mags > top - 1e-9)
            if candidates.size == 1:
                assert got == int(np.argmax(mags))
            else:
                assert got in candidates
