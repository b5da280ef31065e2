"""Tests for the adaptive Gauss-Legendre integrator."""

import math

import numpy as np
import pytest

from qslora.quadrature import QuadratureError, integrate


class TestIntegrate:
    def test_polynomial_is_exact(self):
        # degree 7 is integrated exactly by the 10-node rule
        val = integrate(lambda t: 7 * t**6, 0.0, 1.0)
        assert abs(val - 1.0) < 1e-14

    def test_oscillatory_integrand(self):
        val = integrate(np.sin, 0.0, math.pi)
        assert abs(val - 2.0) < 1e-12

    def test_complex_integrand(self):
        val = integrate(lambda t: np.exp(1j * t), 0.0, math.pi / 2)
        assert abs(val - (1.0 + 1j)) < 1e-12

    def test_zero_width_interval(self):
        assert integrate(np.cos, 1.3, 1.3) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(np.cos, 1.0, 0.0)

    def test_additivity_over_split(self):
        f = lambda t: np.exp(-t) * np.cos(10 * t)
        whole = integrate(f, 0.0, 2.0)
        parts = integrate(f, 0.0, 0.73) + integrate(f, 0.73, 2.0)
        assert abs(whole - parts) < 1e-12

    def test_narrow_feature_resolved_by_subdivision(self):
        # a sharp Gaussian bump that the top-level panel cannot resolve
        f = lambda t: np.exp(-((t - 0.5) ** 2) / 1e-4)
        val = integrate(f, 0.0, 1.0, tol=1e-12)
        assert abs(val - math.sqrt(math.pi) * 1e-2) < 1e-10

    def test_nonconvergence_raises(self):
        # thousands of oscillations per panel keep the 10- and 20-node
        # estimates in disagreement at every allowed depth
        f = lambda t: np.cos(5e4 * t)
        with pytest.raises(QuadratureError):
            integrate(f, 0.0, 1.0, tol=1e-14, max_depth=3)

    def test_real_input_returns_real(self):
        val = integrate(lambda t: t * 0 + 1.0, 0.0, 3.0)
        assert isinstance(val, float)
        assert val == pytest.approx(3.0, abs=1e-13)


class TestBatchedIntervals:
    def test_array_ends_equal_scalar_calls(self):
        f = lambda t: np.exp(-t) * np.cos(10 * t) + 1j * np.sin(3 * t)
        lo = np.array([0.0, 0.3, 1.7, 2.0, -1.25])
        hi = np.array([1.0, 0.3, 2.9, 2.0 + 1e-9, 4.0])
        got = integrate(f, lo, hi, tol=1e-13)
        assert got.shape == lo.shape
        for i in range(lo.size):
            assert got[i] == integrate(f, lo[i], hi[i], tol=1e-13)

    def test_ends_broadcast_and_keep_their_shape(self):
        got = integrate(lambda t: 3 * t**2, 0.0, np.array([[1.0, 2.0], [0.0, 0.5]]))
        assert got.dtype == float and got.shape == (2, 2)
        np.testing.assert_allclose(got, [[1.0, 8.0], [0.0, 0.125]], rtol=0, atol=1e-14)

    def test_each_interval_refined_independently(self):
        # the bump forces deep bisection on [0, 1] only; the easy interval
        # keeps the value it has on its own
        f = lambda t: np.exp(-((t - 0.5) ** 2) / 1e-4) + np.cos(t)
        alone = integrate(f, 3.0, 4.0, tol=1e-12)
        both = integrate(f, np.array([0.0, 3.0]), np.array([1.0, 4.0]), tol=1e-12)
        assert both[1] == alone
        assert abs(both[0] - (math.sqrt(math.pi) * 1e-2 + math.sin(1.0))) < 1e-10

    def test_one_level_one_call(self):
        shapes = []

        def f(t):
            shapes.append(t.shape)
            return np.exp(-((t - 0.5) ** 2) / 1e-3)

        integrate(f, np.array([0.0, 2.0, 5.0]), np.array([1.0, 3.0, 6.0]), tol=1e-12)
        assert shapes[0] == (3, 30)
        assert len(shapes) > 1 and all(len(s) == 2 and s[1] == 30 for s in shapes)

    def test_one_failing_interval_raises(self):
        # flat on [0, 5), thousands of oscillations per panel beyond
        f = lambda t: np.where(t < 5.0, 1.0, np.cos(5e4 * t))
        easy = integrate(f, np.array([0.0, 1.0]), np.array([1.0, 2.0]), tol=1e-14, max_depth=3)
        np.testing.assert_allclose(easy, 1.0, rtol=0, atol=1e-14)
        lo, hi = np.array([0.0, 5.0, 1.0]), np.array([1.0, 6.0, 2.0])
        with pytest.raises(QuadratureError):
            integrate(f, lo, hi, tol=1e-14, max_depth=3)

    def test_reversed_interval_anywhere_rejected(self):
        with pytest.raises(ValueError):
            integrate(np.cos, np.array([0.0, 1.0]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            integrate(np.cos, np.array([0.0, np.nan]), 1.0)

    def test_complex_array_stays_complex(self):
        got = integrate(lambda t: np.exp(1j * t), np.zeros(2), np.array([math.pi / 2, 0.0]))
        assert got.dtype == complex
        assert abs(got[0] - (1.0 + 1j)) < 1e-12 and got[1] == 0.0
