"""Tests for shifted-envelope cross-correlations and the analytic decision
statistic, including the equivalence oracle against the simulated path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslora.channel import synthesize_chip_rows
from qslora.correlations import (
    analytic_decision_statistic,
    cross_corr_adjacent_symbol,
    cross_corr_same_symbol,
)
from qslora.modulation import envelope_matrix, symbol_cardinality
from qslora.receiver import despread
from qslora.waveforms import raised_cosine, rectangular


def brute_force_partition(mhat, m, ell, sf):
    """Independent K_in/K_out evaluation by explicit loop."""
    cap = symbol_cardinality(sf)
    a = envelope_matrix(sf)[mhat]
    b = envelope_matrix(sf)[m]
    k_in = [k for k in range(cap) if 0 <= k + ell <= cap - 1]
    k_out = [k for k in range(cap) if k not in k_in]
    same = sum(a[k + ell] * np.conj(b[k]) for k in k_in)
    adj = sum(a[(k + ell) % cap] * np.conj(b[k]) for k in k_out)
    return same, adj, len(k_in), len(k_out)


class TestCrossCorrSameSymbol:
    def test_zero_shift_reduces_to_orthonormality(self):
        assert cross_corr_same_symbol(6, 6, 0, 4) == pytest.approx(1.0, abs=1e-12)
        assert abs(cross_corr_same_symbol(6, 9, 0, 4)) < 1e-12

    def test_frozen_value_sf4(self):
        # brute-force sum over k = 0..14, computed before the build
        val = cross_corr_same_symbol(2, 5, 1, 4)
        assert val == pytest.approx(-0.0625j, abs=1e-12)

    def test_frozen_value_sf5_negative_shift(self):
        val = cross_corr_same_symbol(7, 7, -1, 5)
        assert val == pytest.approx(-0.011958857261408554 + 0.028871235390977273j, abs=1e-12)

    def test_invalid_shift_rejected(self):
        with pytest.raises(ValueError):
            cross_corr_same_symbol(1, 2, 2, 4)

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cross_corr_same_symbol(16, 2, 1, 4)

    @given(
        sf=st.integers(min_value=2, max_value=6),
        ell=st.sampled_from([-1, 1]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, sf, ell, data):
        cap = symbol_cardinality(sf)
        mhat = data.draw(st.integers(0, cap - 1))
        m = data.draw(st.integers(0, cap - 1))
        same, adj, n_in, n_out = brute_force_partition(mhat, m, ell, sf)
        assert cross_corr_same_symbol(mhat, m, ell, sf) == pytest.approx(same, abs=1e-12)
        assert cross_corr_adjacent_symbol(mhat, m, ell, sf) == pytest.approx(adj, abs=1e-12)
        # term-count conservation
        assert n_in + n_out == cap
        assert n_out == 1

    @given(
        sf=st.integers(min_value=2, max_value=9),
        ell=st.sampled_from([-1, 1]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_magnitude_bound(self, sf, ell, data):
        cap = symbol_cardinality(sf)
        mhat = data.draw(st.integers(0, cap - 1))
        m = data.draw(st.integers(0, cap - 1))
        assert abs(cross_corr_same_symbol(mhat, m, ell, sf)) <= 1.0 + 1e-12


class TestCrossCorrAdjacentSymbol:
    def test_single_boundary_term_positive_shift(self):
        # K_out = {15}: the value is env(mhat)[0] * conj(env(m)[15])
        for mhat, m in ((0, 0), (3, 11), (15, 2)):
            a = envelope_matrix(4)[mhat]
            b = envelope_matrix(4)[m]
            expected = a[0] * np.conj(b[15])
            assert cross_corr_adjacent_symbol(mhat, m, 1, 4) == pytest.approx(expected, abs=1e-15)

    def test_single_boundary_term_negative_shift(self):
        a = envelope_matrix(4)[9]
        b = envelope_matrix(4)[4]
        expected = a[15] * np.conj(b[0])
        assert cross_corr_adjacent_symbol(9, 4, -1, 4) == pytest.approx(expected, abs=1e-15)

    def test_frozen_value_sf5(self):
        val = cross_corr_adjacent_symbol(3, 3, 1, 5)
        assert val == pytest.approx(0.028871235390977693 + 0.01195885726140908j, abs=1e-12)

    def test_zero_shift_rejected(self):
        with pytest.raises(ValueError):
            cross_corr_adjacent_symbol(1, 2, 0, 4)

    @given(
        sf=st.integers(min_value=2, max_value=10),
        ell=st.sampled_from([-1, 1]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_magnitude_is_exactly_inverse_cardinality(self, sf, ell, data):
        cap = symbol_cardinality(sf)
        mhat = data.draw(st.integers(0, cap - 1))
        m = data.draw(st.integers(0, cap - 1))
        val = cross_corr_adjacent_symbol(mhat, m, ell, sf)
        assert abs(abs(val) - 2.0 ** (-sf)) < 1e-15


class TestAnalyticDecisionStatistic:
    def test_synchronous_match(self, rect):
        assert analytic_decision_statistic(9, 2, 9, 0.0, rect, 4) == pytest.approx(1.0)

    def test_synchronous_mismatch(self, rect):
        assert analytic_decision_statistic(9, 2, 5, 0.0, rect, 4) == 0.0

    def test_offset_out_of_range_rejected(self, rect):
        with pytest.raises(ValueError):
            analytic_decision_statistic(1, 2, 3, 0.7, rect, 4)

    @pytest.mark.parametrize("sf", [4, 5])
    def test_equivalence_with_simulated_path(self, sf, rng):
        # the decomposition must reproduce the noise-free despread output
        # for every candidate; 200 random tuples over both waveforms
        cap = symbol_cardinality(sf)
        waveforms = [rectangular(), raised_cosine()]
        worst = 0.0
        for _ in range(100):
            wf = waveforms[int(rng.integers(2))]
            x_prev, x_cur, x_next = (int(v) for v in rng.integers(0, cap, 3))
            delta = float(rng.uniform(-0.5, 0.5))
            chips = synthesize_chip_rows(
                np.array([x_prev]),
                np.array([x_cur]),
                np.array([x_next]),
                np.array([delta]),
                wf,
                sf,
            )[0]
            stats = despread(chips, sf)
            x_adj = x_next if delta > 0 else x_prev
            for m in range(cap):
                ref = analytic_decision_statistic(x_cur, x_adj, m, delta, wf, sf)
                worst = max(worst, abs(stats[m] - ref))
        assert worst < 1e-9

    def test_example_rect_quarter_chip(self, rect):
        # x_cur=9, x_adj=2, delta=0.25: candidate 9 keeps the strong
        # autocorrelation term
        chips = synthesize_chip_rows(
            np.array([0]), np.array([9]), np.array([2]),
            np.array([0.25]), rect, 4,
        )[0]
        stats = despread(chips, 4)
        val = analytic_decision_statistic(9, 2, 9, 0.25, rect, 4)
        assert stats[9] == pytest.approx(val, abs=1e-12)
        assert abs(val) > 0.7
