"""Tests for the fixed 20-node Gauss-Legendre integrator."""

import math

import numpy as np
import pytest

from qslora import quadrature
from qslora.quadrature import integrate


def _rc(u, p):
    """The unit-energy raised-cosine chip shape sqrt(2/3) (1 - cos 2 pi u), shifted by p."""
    return math.sqrt(2.0 / 3.0) * (1.0 - np.cos(2.0 * np.pi * (u - p)))


def _rc_integrals(a, b, p, q):
    """Integrals of _rc(u, p) and of _rc(u, p) * _rc(u, q) over [a, b], in mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a, b, p, q = map(mp.mpf, (a, b, p, q))
        w = 2 * mp.pi

        def single(u):
            return u - mp.sin(w * (u - p)) / w

        def product(u):
            return (
                u * (1 + mp.cos(w * (p - q)) / 2)
                - mp.sin(w * (u - p)) / w
                - mp.sin(w * (u - q)) / w
                + mp.sin(w * (2 * u - p - q)) / (4 * w)
            )

        return (
            float(mp.sqrt(mp.mpf(2) / 3) * (single(b) - single(a))),
            float(mp.mpf(2) / 3 * (product(b) - product(a))),
        )


class TestIntegrate:
    def test_polynomial_is_exact(self):
        # degree 39 is integrated exactly by the 20-node rule
        val = integrate(lambda t: 40 * t**39, 0.0, 1.0)
        assert abs(val - 1.0) < 1e-15

    def test_rule_is_the_20_node_rule(self):
        nodes, weights = np.polynomial.legendre.leggauss(20)
        np.testing.assert_allclose(quadrature._NODES, nodes, rtol=0, atol=2e-16)
        np.testing.assert_allclose(quadrature._WEIGHTS, weights, rtol=0, atol=2e-15)

    def test_chip_integrands_are_exact(self, rng):
        # qslora's integrands: constants (rect) and products of shifted
        # raised cosines (rc), on sub-intervals at most one chip wide
        for _ in range(500):
            a = rng.uniform(0.0, 3.0)
            b = a + rng.uniform(0.0, 1.0)
            c, p, q = rng.uniform(-1.0, 1.0, size=3)
            const = integrate(lambda t: np.full_like(t, c), a, b)
            assert abs(const - c * (b - a)) < 1e-15
            single, product = _rc_integrals(a, b, p, q)
            assert abs(integrate(lambda t: _rc(t, p), a, b) - single) < 1e-15
            assert abs(integrate(lambda t: _rc(t, p) * _rc(t, q), a, b) - product) < 1e-15

    def test_oscillatory_integrand(self):
        val = integrate(np.sin, 0.0, math.pi)
        assert abs(val - 2.0) < 1e-14

    def test_complex_integrand(self):
        val = integrate(lambda t: np.exp(1j * t), 0.0, math.pi / 2)
        assert isinstance(val, complex)
        assert abs(val - (1.0 + 1j)) < 1e-14

    def test_zero_width_interval(self):
        assert integrate(np.cos, 1.3, 1.3) == 0.0
        got = integrate(np.cos, np.array([0.0, 2.5]), np.array([1.0, 2.5]))
        assert got[1] == 0.0 and got[0] == pytest.approx(math.sin(1.0), abs=1e-15)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError, match=r"^integration interval is reversed \(need a <= b\)"):
            integrate(np.cos, 1.0, 0.0)

    def test_nan_interval_rejected(self):
        # the ends pass the number rule, which NaN fails by name
        with pytest.raises(ValueError, match="^a must be finite"):
            integrate(np.cos, math.nan, 1.0)
        with pytest.raises(ValueError, match="^b must be finite"):
            integrate(np.cos, 0.0, math.nan)

    def test_additivity_over_split(self):
        f = lambda t: _rc(t, 0.3) * _rc(t, -0.1)
        whole = integrate(f, 0.0, 1.0)
        parts = integrate(f, 0.0, 0.73) + integrate(f, 0.73, 1.0)
        assert abs(whole - parts) < 1e-15

    def test_real_input_returns_real(self):
        val = integrate(lambda t: t * 0 + 1.0, 0.0, 3.0)
        assert isinstance(val, float)
        assert val == pytest.approx(3.0, abs=1e-14)


class TestBatchedIntervals:
    def test_array_ends_equal_scalar_calls(self):
        # a wide, badly resolved interval in the call does not change the
        # others: each interval's value is its own row of the rule
        f = lambda t: np.exp(-t) * np.cos(10 * t) + 1j * np.sin(3 * t)
        lo = np.array([0.0, 0.3, 1.7, 2.0, -1.25])
        hi = np.array([1.0, 0.3, 2.9, 2.0 + 1e-9, 40.0])
        got = integrate(f, lo, hi)
        assert got.shape == lo.shape
        for i in range(lo.size):
            assert got[i] == integrate(f, lo[i], hi[i])

    def test_2d_ends_equal_scalar_calls(self, rng):
        f = lambda t: _rc(t, 0.2) * np.exp(2j * np.pi * t)
        lo = rng.uniform(0.0, 5.0, size=(4, 7))
        hi = lo + rng.uniform(0.0, 1.0, size=(4, 7))
        got = integrate(f, lo, hi)
        assert got.shape == (4, 7) and got.dtype == complex
        for i in np.ndindex(lo.shape):
            assert got[i] == integrate(f, lo[i], hi[i])

    def test_ends_broadcast_and_keep_their_shape(self):
        got = integrate(lambda t: 3 * t**2, 0.0, np.array([[1.0, 2.0], [0.0, 0.5]]))
        assert got.dtype == float and got.shape == (2, 2)
        np.testing.assert_allclose(got, [[1.0, 8.0], [0.0, 0.125]], rtol=0, atol=1e-14)

    def test_one_level_one_call(self):
        shapes = []

        def f(t):
            shapes.append(t.shape)
            return np.cos(t)

        integrate(f, np.array([0.0, 2.0, 5.0]), np.array([1.0, 3.0, 6.0]))
        assert shapes == [(3, 20)]

    def test_reversed_interval_anywhere_rejected(self):
        with pytest.raises(ValueError):
            integrate(np.cos, np.array([0.0, 1.0]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            integrate(np.cos, np.array([0.0, np.nan]), 1.0)

    def test_complex_array_stays_complex(self):
        got = integrate(lambda t: np.exp(1j * t), np.zeros(2), np.array([math.pi / 2, 0.0]))
        assert got.dtype == complex
        assert abs(got[0] - (1.0 + 1j)) < 1e-14 and got[1] == 0.0
