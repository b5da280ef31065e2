"""Tests for the continuous-time reference model and its certification of
the chip-rate decomposition."""

import tracemalloc
import warnings

import numpy as np
import pytest

from qslora import continuous_time
from qslora.channel import synthesize_chip_rows
from qslora.continuous_time import (
    ContinuousSignal,
    certify_discrete_model,
    matched_filter_chip,
    synthesize,
)
from qslora.modulation import envelope_matrix
from qslora.quadrature import integrate
from qslora.waveforms import ChipWaveform, autocorr


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
        # a float symbol is not truncated to an index, and the signal type
        # itself rejects a symbol out of range, not only synthesize
        with pytest.raises(ValueError, match="symbol must be an integer"):
            synthesize((4.7, 1), rect, 4)
        with pytest.raises(ValueError, match="symbol must be in"):
            ContinuousSignal((99,), 4, rect)

    def test_rect_mid_chip_samples_equal_envelope(self, rect):
        sig = synthesize((9,), rect, 4)
        env = envelope_matrix(4)[9]
        for k in range(16):
            assert sig.value_at(k + 0.5) == pytest.approx(env[k], abs=1e-12)

    def test_rc_nulls_at_chip_boundaries(self, rc):
        sig = synthesize((9,), rc, 4)
        boundary_samples = sig.value_at(np.arange(16.0))
        np.testing.assert_allclose(boundary_samples, 0.0, atol=1e-12)

    def test_value_at_keeps_the_shape(self, rc):
        sig = synthesize((9, 2), rc, 4)
        t = np.array([[0.3, 5.5, 31.2], [-1.0, 17.25, 40.0]])
        got = sig.value_at(t)
        assert got.shape == t.shape
        np.testing.assert_array_equal(got.ravel(), sig.value_at(t.ravel()))

    def test_zero_outside_span(self, rect):
        sig = synthesize((9,), rect, 4)
        assert sig.value_at(-0.5) == 0.0
        assert sig.value_at(16.01) == 0.0

    def test_zero_far_outside_span_without_a_warning(self, rect):
        # times past the int64 range have no chip index; they are masked
        # before the cast, so they read 0 and raise no RuntimeWarning
        sig = synthesize((1, 2, 3), rect, 4)
        far = [1e19, -1e19, 2.0**63, -(2.0**63)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in far:
                assert sig.value_at(t) == 0.0
            got = sig.value_at(np.array([*far, 0.5]))
        np.testing.assert_array_equal(got[:-1], 0.0)
        assert got[-1] == sig.value_at(0.5) != 0.0

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
        keep, spill = autocorr(rc, 0.5)
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
        # no slack past the span: at delta 0 the first and last windows end
        # exactly on its edges, so any step beyond them is refused
        for n, k in ((0, 0), (2, 15)):
            matched_filter_chip(sig, n, k, 0.0)
        for n, k, delta in ((0, 0, -1e-12), (2, 15, 1e-12)):
            with pytest.raises(ValueError, match="outside synthesized span"):
                matched_filter_chip(sig, n, k, delta)

    def test_indices_validated(self, rect):
        sig = synthesize((5, 9, 2), rect, 4)
        with pytest.raises(ValueError):
            matched_filter_chip(sig, 3, 0, 0.0)
        with pytest.raises(ValueError):
            matched_filter_chip(sig, 1, 16, 0.0)
        # a fractional chip or symbol index names a window that is not a chip
        with pytest.raises(ValueError, match="chip index must be an integer"):
            matched_filter_chip(sig, 1, 2.5, 0.0)
        with pytest.raises(ValueError, match="symbol index must be an integer"):
            matched_filter_chip(sig, 1.5, 2, 0.0)
        # the window would lie inside the span; the offset bound rejects it
        with pytest.raises(ValueError, match=r"^delta must be finite and in \[-0.5, 0.5\]"):
            matched_filter_chip(sig, 1, 3, 0.75)

    @pytest.mark.parametrize("delta", [0.0, 0.37, -0.21, 0.5, -0.5])
    def test_chip_array_equals_scalar_calls(self, rect, rc, delta):
        for wf in (rect, rc):
            sig = synthesize((5, 9, 2), wf, 4)
            chips = np.arange(16)
            got = matched_filter_chip(sig, 1, chips, delta)
            assert got.shape == (16,) and got.dtype == complex
            want = [matched_filter_chip(sig, 1, k, delta) for k in chips]
            assert all(isinstance(w, complex) for w in want)
            np.testing.assert_array_equal(got, want)
            grid = matched_filter_chip(sig, 1, chips.reshape(4, 4)[:, ::-1], delta)
            np.testing.assert_array_equal(grid, np.reshape(want, (4, 4))[:, ::-1])

    @pytest.mark.parametrize("chips", [[0, 7, 16], [-1, 3], [[2, 3], [4, 99]]])
    def test_chip_array_out_of_range_rejected(self, rect, chips):
        sig = synthesize((5, 9, 2), rect, 4)
        with pytest.raises(ValueError, match="chip index"):
            matched_filter_chip(sig, 1, np.array(chips), 0.1)

    def test_time_shift_consistency(self, rc):
        # prepending a symbol shifts the signal by one symbol period, so
        # querying n+1 must reproduce the chip samples
        base = synthesize((5, 9, 2), rc, 4)
        shifted = synthesize((7, 5, 9, 2), rc, 4)
        for k in (0, 6, 15):
            a = matched_filter_chip(base, 1, k, 0.37)
            b = matched_filter_chip(shifted, 2, k, 0.37)
            assert a == pytest.approx(b, abs=1e-9)


def _per_trial(x, delta, wf, sf):
    """Every chip of the middle symbol of one trial, by the public one-signal call."""
    return matched_filter_chip(synthesize(tuple(x), wf, sf), 1, np.arange(2**sf), float(delta))


class TestBlockCore:
    @pytest.mark.parametrize("sf", range(2, 9))
    @pytest.mark.parametrize("token", ["rect", "rc"])
    @pytest.mark.parametrize("delta_s", [1.0, 0.0])
    def test_certify_blocks_equal_per_trial_calls(self, monkeypatch, sf, token, delta_s):
        # certify's own blocks, caught on their way out of the core; the
        # trial count leaves a short last block wherever a block holds more
        # than one trial, and every chip must equal the single-trial call
        # bit for bit, not approximately
        wf = ChipWaveform(token)
        m = 2**sf
        per_block = max(1, continuous_time._BLOCK_WINDOWS // m)
        trials = per_block + per_block // 2 + 1
        core = continuous_time._matched_filter
        blocks = []

        def spy(symbols, *args):
            out = core(symbols, *args)
            blocks.append((symbols.copy(), np.ravel(args[-1]).copy(), out))
            return out

        monkeypatch.setattr(continuous_time, "_matched_filter", spy)
        certify_discrete_model(sf, wf, trials, np.random.default_rng(sf), delta_s=delta_s)
        monkeypatch.undo()
        sizes = [len(x) for x, _, _ in blocks]
        assert sum(sizes) == trials and set(sizes[:-1]) <= {per_block}
        assert sizes[-1] == (trials - 1) % per_block + 1
        signs = set()
        for x, delta, out in blocks:
            assert out.shape == (len(x), m)
            for row in range(len(x)):
                np.testing.assert_array_equal(out[row], _per_trial(x[row], delta[row], wf, sf))
                signs.add(np.sign(delta[row]))
        assert signs == ({0.0} if delta_s == 0.0 else {-1.0, 1.0})

    @pytest.mark.parametrize("sf", range(2, 9))
    @pytest.mark.parametrize("token", ["rect", "rc"])
    def test_edge_offsets_in_one_block(self, sf, token):
        # the offset bound, zero and both signs, side by side in one call
        wf = ChipWaveform(token)
        m = 2**sf
        delta = np.array([-0.5, -0.31, 0.0, 0.27, 0.5])
        x = np.random.default_rng(40 + sf).integers(0, m, (delta.size, 3))
        rows = np.arange(delta.size)[:, None]
        out = continuous_time._matched_filter(x, m, wf, rows, 1, np.arange(m), delta[:, None])
        for row in range(delta.size):
            np.testing.assert_array_equal(out[row], _per_trial(x[row], delta[row], wf, sf))

    def test_value_at_is_one_row_of_the_core(self, rc):
        x = np.array([[5, 9, 2], [7, 0, 15]])
        t = np.linspace(-1.0, 49.0, 301)
        got = continuous_time._value(x, 16, rc, np.array([[0], [1]]), t)
        for row in range(2):
            np.testing.assert_array_equal(got[row], synthesize(tuple(x[row]), rc, 4).value_at(t))


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
        with pytest.raises(ValueError, match="trials must be an integer"):
            certify_discrete_model(4, rect, True, np.random.default_rng(0))

    def test_higher_sf_spot_check(self, rc):
        rng = np.random.default_rng(33)
        err = certify_discrete_model(5, rc, 5, rng)
        assert err < 1e-6

    def test_sf12_builds_no_chip_matrix(self, rc):
        # every chip of the signal and of the chip rows comes from the chip
        # formula, so an sf-12 trial never builds the 256 MB chip matrix
        envelope_matrix.cache_clear()
        tracemalloc.start()
        try:
            certify_discrete_model(12, rc, 1, np.random.default_rng(34))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert envelope_matrix.cache_info().currsize == 0
        assert peak < 64 * 2**20

    def test_memory_does_not_grow_with_trials(self, rc):
        # trials are computed in blocks of a fixed window budget, so 100
        # times the trials take no more than the peak of one full block
        def peak(trials):
            tracemalloc.start()
            try:
                certify_discrete_model(4, rc, trials, np.random.default_rng(35))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2000) <= 1.5 * peak(20)
