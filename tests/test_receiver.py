"""Tests for despreading and noncoherent detection."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslora.channel import synthesize_chip_rows
from qslora.correlations import analytic_decision_statistic
from qslora.modulation import envelope_matrix, symbol_cardinality
from qslora.receiver import despread, detect
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
            np.array([4]), np.array([9]), np.array([0.25]), rect, 4,
        )[0]
        stats = despread(chips, 4)
        ref = analytic_decision_statistic(4, 9, 0.25, rect, 4)
        np.testing.assert_allclose(stats, ref, rtol=0, atol=1e-12)

    def test_one_row_peak_below_one_matrix(self):
        # only the chips are conjugated: despreading one sf-11 row must not
        # allocate anything near the size of the cached M x M matrix
        m = symbol_cardinality(11)
        chips = envelope_matrix(11)[3]
        try:
            tracemalloc.start()
            stats = despread(chips, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            envelope_matrix.cache_clear()
        assert int(np.argmax(np.abs(stats))) == 3
        assert peak < m * m * 16


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
            x_prev, x_cur, _ = (int(v) for v in rng.integers(0, 16, 3))
            chips = synthesize_chip_rows(
                np.array([x_prev]), np.array([x_cur]), np.array([0.5]), rect, 4,
            )[0]
            got = detect(despread(chips, 4))
            mags = np.abs(analytic_decision_statistic(x_prev, x_cur, 0.5, rect, 4))
            top = float(mags.max())
            candidates = np.flatnonzero(mags > top - 1e-9)
            if candidates.size == 1:
                assert got == int(np.argmax(mags))
            else:
                assert got in candidates
