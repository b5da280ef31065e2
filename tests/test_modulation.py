"""Tests for the chirp-modulation primitives: spreading-factor validation,
the chip matrix, orthonormality, despreading and the noncoherent argmax
detection rule applied to it."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslora.channel import synthesize_chip_rows
from qslora.channel import analytic_decision_statistic
from qslora.modulation import (
    MAX_SF,
    MIN_SF,
    despread,
    envelope_matrix,
    symbol_cardinality,
)


class TestSpreadingFactorValidation:
    @pytest.mark.parametrize("sf", [0, 1, 13, -3])
    def test_out_of_range(self, sf):
        with pytest.raises(ValueError):
            symbol_cardinality(sf)

    def test_non_integer(self):
        with pytest.raises(ValueError):
            symbol_cardinality(4.5)

    def test_cardinality(self):
        assert symbol_cardinality(7) == 128


class TestEnvelope:
    def test_first_chip_is_real_for_any_symbol(self):
        # k = 0 makes the phase vanish regardless of x; exactly, so the chip
        # synthesis can rotate the current symbol instead of reading chip 0
        # of the next one
        for sf in range(MIN_SF, 11):
            m = symbol_cardinality(sf)
            first = envelope_matrix(sf)[:, 0]
            assert np.all(first == 1 / np.sqrt(m) + 0j)

    def test_symbol_zero_is_base_chirp(self):
        m = 16
        chips = envelope_matrix(4)[0]
        k = np.arange(m)
        expected = np.exp(2j * np.pi * (k * k % m) / m) / np.sqrt(m)
        np.testing.assert_allclose(chips, expected, atol=1e-15)

    def test_phase_wraps_to_zero_at_aliased_chip(self):
        # x=3, sf=4: chip 13 has (3+13) mod 16 = 0, so the value is 1/4
        assert envelope_matrix(4)[3, 13] == pytest.approx(0.25, abs=1e-15)

    def test_constant_modulus_all_sf(self):
        # |chips[k]| = 2^(-sf/2) for every symbol and chip; in place and one
        # matrix at a time, so sf 12 (256 MB) peaks near 400 MB
        for sf in range(MIN_SF, MAX_SF + 1):
            mags = np.abs(envelope_matrix(sf))
            mags -= 2.0 ** (-sf / 2)
            assert float(np.max(np.abs(mags, out=mags))) < 1e-12
            envelope_matrix.cache_clear()

    def test_build_peak_below_twice_result(self):
        # the chip formula's phase is one integer array that indexes a table
        # of roots of unity; clear the cache so the build is measured
        envelope_matrix.cache_clear()
        tracemalloc.start()
        try:
            mat = envelope_matrix(11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            envelope_matrix.cache_clear()
        assert peak < 2 * mat.nbytes

    def test_cache_keys_on_the_checked_sf(self):
        # an int and a numpy integer share one entry, so one matrix
        envelope_matrix.cache_clear()
        assert envelope_matrix(np.int64(4)) is envelope_matrix(4)
        assert envelope_matrix.cache_info().misses == 1

    def test_matrix_rows_match_envelope(self):
        # rows follow the defining formula c_x[k] = exp(2j*pi*k*((x+k) mod M)/M)/sqrt(M)
        mat = envelope_matrix(5)
        k = np.arange(32)
        for x in (0, 13, 31):
            expected = np.exp(2j * np.pi * k * ((x + k) % 32) / 32) / np.sqrt(32)
            np.testing.assert_allclose(mat[x], expected, atol=1e-13)

    def test_matrix_is_read_only(self):
        mat = envelope_matrix(4)
        with pytest.raises(ValueError):
            mat[0, 0] = 0


class TestOrthonormality:
    @pytest.mark.parametrize("sf", [4, 5, 6, 7, 8])
    def test_exhaustive_gram_matrix(self, sf):
        mat = envelope_matrix(sf)
        gram = mat @ mat.conj().T
        dev = np.max(np.abs(gram - np.eye(symbol_cardinality(sf))))
        assert float(dev) < 1e-10

    def test_inner_product_same_symbol(self):
        row = envelope_matrix(5)[7]
        assert np.vdot(row, row) == pytest.approx(1.0, abs=1e-12)

    def test_inner_product_distinct_symbols(self):
        mat = envelope_matrix(5)
        assert abs(np.vdot(mat[8], mat[7])) < 1e-12

    @given(
        sf=st.integers(min_value=MIN_SF, max_value=9),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_inner_product_is_kronecker(self, sf, data):
        m = symbol_cardinality(sf)
        a = data.draw(st.integers(0, m - 1))
        b = data.draw(st.integers(0, m - 1))
        mat = envelope_matrix(sf)
        val = np.vdot(mat[b], mat[a])
        expected = 1.0 if a == b else 0.0
        assert abs(val - expected) < 1e-10


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


def _decide(stats):
    return int(np.argmax(np.abs(stats)))


class TestArgmaxDetection:
    """The Monte-Carlo's decision: the index of the largest |despread| bin."""

    def test_perfect_synchronous_detection(self):
        for sf in (4, 5, 6, 7):
            mat = envelope_matrix(sf)
            for x in range(symbol_cardinality(sf)):
                assert _decide(despread(mat[x], sf)) == x

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_phase_and_scale_invariance(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        chips = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        phase = np.exp(1j * data.draw(st.floats(min_value=-np.pi, max_value=np.pi)))
        scale = data.draw(st.floats(min_value=1e-3, max_value=1e3))
        base = _decide(despread(chips, 4))
        assert _decide(despread(phase * chips, 4)) == base
        assert _decide(despread(scale * chips, 4)) == base

    def test_half_chip_argmax_matches_analytic_brute_force(self, rect, rng):
        # noise-free half-chip offset: the decision must agree with an
        # exhaustive argmax over the analytic statistic magnitudes, except
        # at exact magnitude ties where either method's argmax is valid
        for _ in range(50):
            x_prev, x_cur, _ = (int(v) for v in rng.integers(0, 16, 3))
            chips = synthesize_chip_rows(
                np.array([x_prev]), np.array([x_cur]), np.array([0.5]), rect, 4,
            )[0]
            got = _decide(despread(chips, 4))
            mags = np.abs(analytic_decision_statistic(x_prev, x_cur, 0.5, rect, 4))
            top = float(mags.max())
            candidates = np.flatnonzero(mags > top - 1e-9)
            if candidates.size == 1:
                assert got == int(np.argmax(mags))
            else:
                assert got in candidates
