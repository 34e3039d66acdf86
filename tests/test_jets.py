import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from susypv.jets import (
    jet_from_taylor,
    series_diff,
    series_div,
    series_mul,
    taylor_from_jet,
)
from susypv.oscillator import closure_jet

from oracles import closure_jet_scalar, jet_div, jet_log_deriv, jet_mul

# a moderate part, or any double, or one of the values where signed zeros and
# non-finite parts decide the bits
PARTS = st.one_of(st.floats(-1e3, 1e3), st.floats(width=64),
                  st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))


def exp_jet(x, n):
    return np.full(n + 1, math.exp(x), dtype=complex)


def power_jet(x, p, n):
    out = np.empty(n + 1, dtype=complex)
    c = 1.0
    for m in range(n + 1):
        out[m] = c * x ** (p - m)
        c *= p - m
    return out


def complex_grid(draw, shape, real=False):
    out = np.zeros(shape, dtype=complex)  # parts set directly: re + 1j * im would round
    out.real = draw(arrays(np.float64, shape, elements=PARTS))
    if not real:
        out.imag = draw(arrays(np.float64, shape, elements=PARTS))
    return out


@st.composite
def closure_cases(draw):
    """(vjet, start, energy, order): real or complex V rows, complex start and energy."""
    order, points = draw(st.integers(1, 40)), draw(st.integers(1, 50))
    vjet = complex_grid(draw, (points, max(order - 1, 0)), real=draw(st.booleans()))
    return vjet, complex_grid(draw, (points, 2)), complex(draw(PARTS), draw(PARTS)), order


def hexes(values) -> list:
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


class TestLeibniz:
    @settings(max_examples=60, deadline=None)
    @given(closure_cases())
    def test_grid_closure_matches_scalar_loop(self, case):
        # every row of the grid closure has the bits of the per-point loop
        vjet, start, energy, order = case
        grid = closure_jet(vjet, start, energy, order)
        assert grid.shape == (len(start), order + 1)
        for v, (u0, u1), row in zip(vjet, start, grid):
            assert hexes(row) == hexes(closure_jet_scalar(v, u0, u1, energy, order))

    def test_product_of_known_jets(self):
        x, n = 1.3, 6
        f = exp_jet(x, n)
        g = power_jet(x, 3.0, n)
        prod = jet_mul(f, g)
        # d^2/dx^2 [x^3 e^x] = e^x (x^3 + 6x^2 + 6x)
        ref = math.exp(x) * (x**3 + 6 * x**2 + 6 * x)
        assert abs(prod[2] - ref) <= 1e-12 * abs(ref)

    def test_div_inverts_mul(self):
        x, n = 0.9, 8
        f = power_jet(x, 2.5, n)
        g = exp_jet(x, n)
        assert np.allclose(jet_div(jet_mul(f, g), g), f, rtol=1e-12)

    def test_log_deriv(self):
        x, n = 1.7, 5
        f = power_jet(x, 4.0, n)
        ld = jet_log_deriv(f)
        assert abs(ld[0] - 4.0 / x) <= 1e-13
        assert abs(ld[1] + 4.0 / x**2) <= 1e-13


class TestSeries:
    def test_taylor_round_trip(self):
        f = power_jet(1.1, 3.0, 7)
        assert np.allclose(jet_from_taylor(taylor_from_jet(f)), f, rtol=1e-14)

    def test_series_mul_matches_jet_mul(self):
        x, n = 1.3, 7
        f = exp_jet(x, n)
        g = power_jet(x, 2.0, n)
        via_series = jet_from_taylor(series_mul(taylor_from_jet(f), taylor_from_jet(g)))
        via_leibniz = jet_mul(f, g)
        assert np.allclose(via_series, via_leibniz, rtol=1e-12)

    def test_series_div_matches_jet_div(self):
        x, n = 0.8, 7
        f = power_jet(x, 3.5, n)
        g = exp_jet(x, n)
        via_series = jet_from_taylor(series_div(taylor_from_jet(f), taylor_from_jet(g)))
        assert np.allclose(via_series, jet_div(f, g), rtol=1e-12)

    def test_series_diff(self):
        t = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        assert np.allclose(series_diff(t), [2.0, 6.0, 12.0])

    def test_operands_with_different_axes_raise(self):
        # the helpers put the coefficient axis first with .T, which needs equal ndim
        grid = np.ones((3, 4), dtype=complex)
        single = np.ones(4, dtype=complex)
        for op in (series_mul, series_div):
            with pytest.raises(ValueError, match="series of 2 and 1 axes"):
                op(grid, single)
