"""Tests for the closed-form despread output, including the equivalence
oracle against the simulated path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslora.channel import synthesize_chip_rows
from qslora.correlations import analytic_decision_statistic
from qslora.modulation import despread, symbol_cardinality
from qslora.waveforms import ChipWaveform, autocorr_overlapped, raised_cosine, rectangular


class TestAnalyticDecisionStatistic:
    def test_synchronous_match(self, rect):
        assert analytic_decision_statistic(2, 9, 0.0, rect, 4)[9] == pytest.approx(1.0)

    def test_synchronous_mismatch(self, rect):
        stats = analytic_decision_statistic(2, 9, 0.0, rect, 4)
        assert np.all(np.delete(stats, 9) == 0.0)

    def test_offset_out_of_range_rejected(self, rect):
        with pytest.raises(ValueError):
            analytic_decision_statistic(1, 2, 0.7, rect, 4)
        with pytest.raises(ValueError, match="0.5"):
            analytic_decision_statistic(1, 2, np.array([0.1, np.nan]), rect, 4)

    def test_index_out_of_range_rejected(self, rect):
        with pytest.raises(ValueError):
            analytic_decision_statistic(16, 2, 0.3, rect, 4)
        with pytest.raises(ValueError):
            analytic_decision_statistic(1, -1, 0.3, rect, 4)
        with pytest.raises(ValueError):
            analytic_decision_statistic(2.7, 9.9, 0.25, rect, 4)
        with pytest.raises(ValueError, match="x_cur"):
            analytic_decision_statistic(np.array([1, 2]), np.array([3, 16]), 0.25, rect, 4)

    @pytest.mark.parametrize("sf", range(2, 11))
    def test_equivalence_with_simulated_path(self, sf, rng):
        # the closed form must reproduce the noise-free despread output in
        # every bin: the offsets 0 and +-0.5 for both waveforms, then 100
        # random trials over both waveforms, all despread in one batch
        cap = symbol_cardinality(sf)
        waveforms = [rectangular(), raised_cosine()]
        cases = [(d, wf) for d in (0.0, 0.5, -0.5) for wf in waveforms]
        cases += [
            (float(rng.uniform(-0.5, 0.5)), waveforms[int(rng.integers(2))])
            for _ in range(100)
        ]
        chips, refs = [], []
        for delta, wf in cases:
            x_prev, x_cur = (int(v) for v in rng.integers(0, cap, 2))
            row = synthesize_chip_rows(
                np.array([x_prev]), np.array([x_cur]), np.array([delta]), wf, sf
            )
            chips.append(row[0])
            refs.append(analytic_decision_statistic(x_prev, x_cur, delta, wf, sf))
        worst = float(np.max(np.abs(despread(np.array(chips), sf) - np.array(refs))))
        assert worst < 1e-9

    @pytest.mark.parametrize("token", ["rect", "rc"])
    def test_batch_matches_single_trials(self, token, rng):
        # a batch of trials is row for row the vector of each trial alone
        wf = ChipWaveform(token)
        x_prev, x_cur = rng.integers(0, 32, (2, 50))
        delta = rng.uniform(-0.5, 0.5, 50)
        delta[:3] = (0.0, 0.5, -0.5)
        batch = analytic_decision_statistic(x_prev, x_cur, delta, wf, 5)
        assert batch.shape == (50, 32)
        for i in range(50):
            single = analytic_decision_statistic(
                int(x_prev[i]), int(x_cur[i]), float(delta[i]), wf, 5
            )
            assert single.shape == (32,)
            np.testing.assert_array_equal(batch[i], single)

    def test_example_rect_quarter_chip(self, rect):
        # x_cur=9, delta=0.25: candidate 9 keeps the strong autocorrelation
        # term
        chips = synthesize_chip_rows(
            np.array([0]), np.array([9]), np.array([0.25]), rect, 4,
        )[0]
        stats = despread(chips, 4)
        val = analytic_decision_statistic(0, 9, 0.25, rect, 4)[9]
        assert stats[9] == pytest.approx(val, abs=1e-12)
        assert abs(val) > 0.7

    @given(
        sf=st.integers(min_value=2, max_value=10),
        token=st.sampled_from(["rect", "rc"]),
        delta=st.floats(min_value=-0.5, max_value=-1e-6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_boundary_term_bound(self, sf, token, delta, data):
        # for delta < 0 the bins other than x_cur and x_cur-2 all hold the
        # boundary term c, a difference of two chips of magnitude Rhat/M
        cap = symbol_cardinality(sf)
        wf = ChipWaveform(token)
        x_prev = data.draw(st.integers(0, cap - 1))
        x_cur = data.draw(st.integers(0, cap - 1))
        stats = analytic_decision_statistic(x_prev, x_cur, delta, wf, sf)
        rest = np.delete(stats, [x_cur, (x_cur - 2) % cap])
        c = rest[0]
        np.testing.assert_array_equal(rest, c)
        assert abs(c) <= 2.0 * autocorr_overlapped(wf, delta) / cap + 1e-15
        same = analytic_decision_statistic(x_cur, x_cur, delta, wf, sf)
        assert np.all(np.delete(same, [x_cur, (x_cur - 2) % cap]) == 0.0)
