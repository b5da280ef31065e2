"""Tests for the chirp-modulation primitives: bit mapping, spreading-factor
validation, the chip matrix, orthonormality."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslora.modulation import (
    MAX_SF,
    MIN_SF,
    envelope_matrix,
    sample_to_word,
    symbol_cardinality,
    word_to_sample,
)


class TestWordMapping:
    def test_word_to_sample_lsb_first(self):
        assert word_to_sample((1, 0, 1), 3) == 5
        assert word_to_sample((0, 0, 0, 0), 4) == 0
        assert word_to_sample((1, 1, 1, 1), 4) == 15

    def test_sample_to_word_lsb_first(self):
        assert sample_to_word(5, 3) == (1, 0, 1)
        assert sample_to_word(5, 5) == (1, 0, 1, 0, 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            word_to_sample((1, 0), 3)

    def test_non_bit_rejected(self):
        with pytest.raises(ValueError):
            word_to_sample((1, 2, 0), 3)

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sample_to_word(8, 3)
        with pytest.raises(ValueError):
            sample_to_word(-1, 3)

    @pytest.mark.parametrize("sf", range(MIN_SF, 9))
    def test_round_trip_exhaustive(self, sf):
        for x in range(symbol_cardinality(sf)):
            assert word_to_sample(sample_to_word(x, sf), sf) == x

    @given(
        sf=st.integers(min_value=MIN_SF, max_value=MAX_SF),
        data=st.data(),
    )
    def test_round_trip_word_first(self, sf, data):
        word = tuple(data.draw(st.lists(st.integers(0, 1), min_size=sf, max_size=sf)))
        assert sample_to_word(word_to_sample(word, sf), sf) == word


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
        # k = 0 makes the phase vanish regardless of x
        for sf in (2, 4, 7):
            m = symbol_cardinality(sf)
            for x in (0, 1, m - 1):
                assert envelope_matrix(sf)[x, 0] == pytest.approx(1 / np.sqrt(m), abs=1e-15)

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
        # the phase is reduced in place in one integer array that indexes a
        # table of roots of unity; bypass the cache so the build is measured
        tracemalloc.start()
        try:
            mat = envelope_matrix.__wrapped__(11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * mat.nbytes

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
