import cmath
import math
import time
from unittest.mock import patch

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susypv import specialfunctions
from susypv.specialfunctions import (
    BATCH_MIN_SIZE,
    GammaPoleError,
    NoConvergenceError,
    ParameterPoleError,
    bessel_i,
    gamma,
    hermite_h,
    kummer_1f1,
    laguerre_l,
    log_gamma,
    parameter_pole,
)

from oracles import OracleNoConvergence, mp_bessel_i, mp_hyp1f1


class TestKummer:
    def test_empty_sum(self):
        assert kummer_1f1(0.3 + 0.2j, 1.7, 0.0) == 1.0

    def test_exponential_case(self):
        x = 2.5
        assert abs(kummer_1f1(1.0, 1.0, x) - cmath.exp(x)) <= 1e-12 * math.exp(x)

    def test_two_term_truncation(self):
        # a = -1 truncates the series at two terms: 1 - 2x/3 for b = 3/2
        for x in (0.4, 2.0, -3.5, 1.0 + 2.0j):
            assert abs(kummer_1f1(-1.0, 1.5, x) - (1.0 - 2.0 * x / 3.0)) < 1e-14

    def test_against_high_precision_series(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = complex(rng.uniform(-4, 4), rng.uniform(-3, 3))
            b = complex(rng.uniform(0.3, 5), rng.uniform(-2, 2))
            x = complex(rng.uniform(-10, 10), rng.uniform(-5, 5))
            if abs(x) > 10:
                x *= 10 / abs(x)
            got = kummer_1f1(a, b, x)
            ref = complex(mp_hyp1f1(a, b, x))
            assert abs(got - ref) <= 1e-12 * max(1e-30, abs(ref)), (a, b, x)

    def test_oracle_raises_at_term_cap(self):
        # 300 terms of e^1000 stop far short of it; the oracle once returned
        # that partial sum as the reference
        with pytest.raises(OracleNoConvergence):
            mp_hyp1f1(1, 1, 1000)

    def test_kummer_transformation_self_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            b = complex(rng.uniform(0.5, 4), rng.uniform(-1, 1))
            x = complex(rng.uniform(-10, 10), rng.uniform(-3, 3))
            direct = kummer_1f1(a, b, x)
            reflected = cmath.exp(x) * kummer_1f1(b - a, b, -x)
            assert abs(direct - reflected) <= 1e-11 * max(1.0, abs(direct))

    def test_parameter_pole(self):
        with pytest.raises(ParameterPoleError):
            kummer_1f1(0.5, -2.0, 1.0)
        # polynomial case shields the pole: a = -1 with b = -2 terminates first
        val = kummer_1f1(-1.0, -2.0, 3.0)
        assert abs(val - (1.0 + 1.5)) < 1e-14

    def test_parameter_pole_predicate(self):
        assert parameter_pole(0.5, -2.0)
        assert parameter_pole(-2.0, -2.0)
        assert not parameter_pole(-1.0, -2.0)
        assert not parameter_pole(0.5, 2.0)

    @pytest.mark.parametrize("b", [-1.0, -3.0, 0.5, 2.5])
    def test_derivative_at_a_zero(self, b):
        # 1F1(0, b; y) is the constant 1 wherever it is defined, b = -1 included,
        # so a seed branch with a = 0 has M' = 0 (TestMakeSeed::test_branch1_closed_form)
        assert kummer_1f1(0.0, b, 1.7) == 1.0

    def test_large_argument_no_convergence_error_path(self):
        # |x| = 35 still converges inside the cap
        v = kummer_1f1(0.25, 0.5, 35.0)
        ref = complex(mp_hyp1f1(0.25, 0.5, 35.0))
        assert abs(v - ref) <= 1e-12 * abs(ref)


def hexes(values) -> list:
    return [(float.hex(v.real), float.hex(v.imag)) for v in np.ravel(values).tolist()]


def point_loop(a_rows, b_rows, xs):
    """The (row, point) array of one-point kummer_1f1 calls, made point by point, row by row."""
    return np.array([[kummer_1f1(a, b, x) for a, b in zip(a_rows, b_rows)] for x in xs]).T


def outcome(fn, *args):
    try:
        return "ok", hexes(fn(*args))
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def real_points(n: int) -> list:
    """n real points 0 < y <= 12: the shape a seed sends, summed in one pass."""
    return (12.0 - np.random.default_rng(n).uniform(0.0, 12.0, n)).tolist()


def mixed_points(n: int) -> list:
    """n points mixing positive, negative and complex x, |x| <= 12: looped per point."""
    rng = np.random.default_rng(n)
    kinds = [complex(rng.uniform(0.0, 12.0)), complex(rng.uniform(-12.0, 0.0)),
             complex(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))]
    return [kinds[i % 3] if i < 3 else complex(rng.uniform(-12, 12), rng.uniform(-4, 4) * (i % 2))
            for i in range(n)]


# real b as the seed has it: generic complex a, terminating rows (a = -n, exactly
# and within INT_TOL, b past a pole it never reaches), and a = 0 (1F1 = 1, also at b = -1)
REAL_B_ROWS = [(0.3 + 0.2j, 1.7), (-4.0, 0.5), (-1.25 + 0.5j, 2.5), (0.0, -1.0),
               (2.0, 0.5), (-2.0 + 1e-13, -3.0), (0.45 - 1.1j, -1.5), (-1.0, -2.0)]
# complex b (b = 0.75 + 3i, b = 2.5 - 0.75i) makes a grid loop whatever its points
MIXED_ROWS = [(0.3 + 0.2j, 1.7), (-4.0, 0.5), (-1.25 + 0.5j, 2.5 - 0.75j), (0.0, -1.0),
              (2.0, 0.5), (-2.0 + 1e-13, -3.0), (0.75, 0.75 + 3.0j), (-1.0, -2.0)]


# random rows: complex |a| <= 30, or a = -n exactly and within INT_TOL (2e-12 is
# outside); real b, half-integers and poles included
A_VALUES = st.one_of(st.complex_numbers(max_magnitude=30.0),
                     st.builds(lambda n, e: -n + e, st.integers(0, 30),
                               st.sampled_from([0.0, 1e-13, -1e-13, 1e-13j, 1e-12, 2e-12])))
B_VALUES = st.one_of(st.floats(-50.0, 52.0), st.integers(-100, 104).map(lambda n: n / 2))


def column(rows) -> tuple[list, list]:
    return [a for a, _ in rows], [b for _, b in rows]


class TestKummerGrid:
    """A grid call equals the one-point calls bit for bit, batched or looped."""

    @pytest.fixture(params=["default", "batched", "chunked"])
    def batch_min(self, request, monkeypatch):
        if request.param != "default":  # small grids through the batched sum too
            monkeypatch.setattr(specialfunctions, "BATCH_MIN_SIZE", 0)
        if request.param == "chunked":  # a grid summed in passes of 5 elements
            monkeypatch.setattr(specialfunctions, "_CHUNK", 5)
        return specialfunctions.BATCH_MIN_SIZE

    @pytest.mark.parametrize("npts", [1, 4, 16, 200])
    @pytest.mark.parametrize("nrows", [1, 2, 3, 4])
    def test_rows_bit_for_bit(self, npts, nrows, batch_min):
        xs = real_points(npts)
        for first in range(0, len(REAL_B_ROWS), nrows):
            a_rows, b_rows = column((REAL_B_ROWS * 2)[first:first + nrows])
            got = kummer_1f1(a_rows, b_rows, xs)
            assert got.shape == (nrows, npts)
            assert hexes(got) == hexes(point_loop(a_rows, b_rows, xs)), (a_rows, b_rows)

    @pytest.mark.parametrize("npts", [1, 16, 200])
    def test_mixed_grids_equal_the_loop(self, npts, batch_min):
        # complex b and points off the positive axis, mixed into real ones
        xs = mixed_points(npts)
        for rows, points in ((MIXED_ROWS, xs), (MIXED_ROWS, real_points(npts)),
                             (REAL_B_ROWS, xs)):
            for first in range(0, len(rows), 3):
                a_rows, b_rows = column(rows[first:first + 3])
                got = kummer_1f1(a_rows, b_rows, points)
                assert hexes(got) == hexes(point_loop(a_rows, b_rows, points)), (a_rows, b_rows)

    def test_real_grid_of_a_column(self, batch_min):
        # parameter columns, a real float grid, and the seed's y range
        a, b = np.array([[0.45 - 1.1j], [1.45 - 1.1j]]), np.array([[-1.5], [-0.5]])
        ys = [0.5 * z for z in np.geomspace(0.1, 20.0, 40)]
        got = kummer_1f1(a, b, ys)
        assert hexes(got) == hexes(point_loop(a.ravel(), b.ravel(), ys))

    def test_scalar_input_gives_a_scalar(self):
        assert isinstance(kummer_1f1(0.5, 1.5, 2.0), complex)

    @pytest.mark.parametrize("rows, xs", [
        # a pole row fails at its first point, after the rows ahead of it there
        # and before every later point
        ([(0.3, 1.7), (0.5, -2.0)], real_points(30)),
        ([(0.5, 1.5), (0.5, -2.0)], [1.0, 2000.0] + real_points(28)),
        ([(0.5, 1.5), (0.3, 1.7), (0.5, -2.0)], [2000.0] + real_points(29)),
        # no convergence within MAX_TERMS, at one point of the grid
        ([(0.5, 1.5), (1.0, 2.5)], real_points(20) + [1500.0] + real_points(9)),
        ([(1.0, 2.5), (0.5, 1.5)], [1500.0] + real_points(29)),
        # finite parts of an infinite modulus: abs() raises OverflowError at
        # y = 1; past y = 1.2 the row's terms are NaN (no convergence)
        ([(0.5, 1.5), (1.5e308 + 1.5e308j, 1.0)], [1.0] + real_points(29)),
        ([(0.5, 1.5), (1.5e308 + 1.5e308j, 1.0)], real_points(30)),
        # the same failures on grids that loop
        ([(1.0, 2.5), (0.5, 1.5)], [-1500.0 + 3j] + mixed_points(29)),
        ([(0.5, 1.5), (1.5e308 + 1.5e308j, 1.0)], [1.0] + mixed_points(29)),
        ([(0.3, 1.7 + 1j), (0.5, -2.0)], real_points(30)),
    ])
    def test_errors_match_the_point_loop(self, rows, xs, batch_min):
        a_rows, b_rows = column(rows)
        expected = outcome(point_loop, a_rows, b_rows, xs)
        assert expected[0] != "ok"
        assert outcome(kummer_1f1, a_rows, b_rows, xs) == expected

    def test_batched_above_the_crossover(self, monkeypatch):
        # real b rows on real points 0 < y < inf never reach the one-point kernel
        def fail(*args):
            raise AssertionError("one-point kernel called")

        xs = real_points(BATCH_MIN_SIZE)
        a_rows, b_rows = column(REAL_B_ROWS)
        expected = hexes(point_loop(a_rows, b_rows, xs))
        monkeypatch.setattr(specialfunctions, "_kummer_point", fail)
        assert hexes(kummer_1f1(a_rows, b_rows, xs)) == expected

    @pytest.mark.parametrize("b, x", [(1.7 + 1e-3j, 1.0), (1.7, 0.0), (1.7, -1.0),
                                      (1.7, 1.0 + 1e-3j), (1.7, math.inf)])
    def test_other_grids_loop_above_the_crossover(self, b, x, monkeypatch):
        # a complex b row or one point off 0 < y < inf: the one-point kernel, per element
        xs = real_points(BATCH_MIN_SIZE - 1) + [x]
        kernel, calls = specialfunctions._kummer_point, []

        def count(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(specialfunctions, "_kummer_point", count)
        outcome(kummer_1f1, [0.3 + 0.2j, 0.3 + 0.2j], [1.7, b], xs)
        assert len(calls) >= 2 * (len(xs) - 1)  # every element up to the last point

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(A_VALUES, B_VALUES), min_size=1, max_size=3),
           ys=st.integers(1, 64).flatmap(lambda n: st.lists(
               st.floats(0.0, 200.0, exclude_min=True), min_size=n, max_size=n)),
           chunk=st.integers(1, 64))
    def test_batched_pass_equals_the_loop(self, rows, ys, chunk):
        # every element and the first error, whatever the pass and chunk sizes
        a_rows, b_rows = column(rows)
        with patch.object(specialfunctions, "BATCH_MIN_SIZE", 0), \
                patch.object(specialfunctions, "_CHUNK", chunk):
            expected = outcome(point_loop, a_rows, b_rows, ys)
            assert outcome(kummer_1f1, a_rows, b_rows, ys) == expected


class TestTermCap:
    """Terminating rows (a = -n) keep the MAX_TERMS cap of every other series."""

    @pytest.mark.parametrize("a, b, x", [
        (-1e308, 1.0, 1.0),  # one point
        ([0.5, -1e308], [1.5, 1.0], real_points(30)),  # the batched pass
        ([0.5, -501.0], [1.5, 1.0], mixed_points(30)),  # the loop
    ])
    def test_past_the_cap_raises_at_once(self, a, b, x):
        start = time.perf_counter()
        with pytest.raises(NoConvergenceError, match="terminating series past 500 terms"):
            kummer_1f1(a, b, x)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [0, 1, 125, 500])
    def test_up_to_the_cap(self, n):
        # 1F1(-n, 1; y) = L_n(y), summed in full; the grid keeps the point bits
        ref = complex(mp.laguerre(n, 0, 0.01))
        assert abs(kummer_1f1(-float(n), 1.0, 0.01) - ref) <= 1e-12 * max(1.0, abs(ref))
        a_rows, b_rows, xs = [-float(n), 0.5], [1.0, 1.5], real_points(30)
        assert outcome(kummer_1f1, a_rows, b_rows, xs) == outcome(point_loop, a_rows, b_rows, xs)


class TestLogGamma:
    def test_half(self):
        assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_five(self):
        assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13

    def test_complex_point(self):
        z = 2.0 + 3.0j
        ref = complex(mp.loggamma(z))
        assert abs(log_gamma(z) - ref) <= 1e-12 * abs(ref)

    def test_test_set_accuracy(self):
        pts = [0.5, 1.0, 2.5, 5.0, 9.75, 2 + 3j, 0.75 + 0.5j, 4 - 2j]
        for z in pts:
            ref = complex(mp.loggamma(z))
            assert abs(log_gamma(z) - ref) <= 1e-13 * max(1.0, abs(ref)), z

    def test_reflection_exp_correct(self):
        for z in (-0.25, -1.3, -3.7, -0.5 + 0.4j):
            ref = complex(mp.gamma(z))
            assert abs(gamma(z) - ref) <= 1e-12 * abs(ref), z

    def test_pole(self):
        with pytest.raises(GammaPoleError):
            log_gamma(-3.0)


class TestPolynomials:
    def test_hermite_base(self):
        assert hermite_h(0, 1.7) == 1.0

    def test_laguerre_base(self):
        alpha, x = 0.7, 1.1 + 0.3j
        assert abs(laguerre_l(1, alpha, x) - (1 + alpha - x)) < 1e-14

    def test_laguerre_kummer_identity(self):
        # L_n^alpha(x) = ((alpha+1)_n / n!) 1F1(-n, alpha+1, x)
        rng = np.random.default_rng(3)
        for n in range(9):
            alpha = rng.uniform(-0.9, 3.0)
            x = complex(rng.uniform(0, 6), rng.uniform(-2, 2))
            poch = 1.0
            for j in range(n):
                poch *= alpha + 1 + j
            ref = poch / math.factorial(n) * kummer_1f1(-n, alpha + 1.0, x)
            got = laguerre_l(n, alpha, x)
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref)), (n, alpha, x)

    def test_hermite_against_mpmath(self):
        for n in (1, 3, 6):
            for x in (0.3, -1.2, 2.0 + 1.0j):
                ref = complex(mp.hermite(n, mp.mpc(x)))
                assert abs(hermite_h(n, x) - ref) <= 1e-12 * max(1.0, abs(ref))


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(1.0, 0.0) == 0.0

    def test_against_series_oracle(self):
        for mu, x in ((2.0, 3.7), (0.5, 1.0), (-0.75, 2.5), (3.0, 20.0), (-2.25, 4.0)):
            ref = complex(mp_bessel_i(mu, x))
            assert abs(bessel_i(mu, x) - ref) <= 1e-11 * max(1e-30, abs(ref)), (mu, x)

    def test_outside_series_regime(self):
        with pytest.raises(NoConvergenceError):
            bessel_i(0.0, 80.0)

    def test_oracle_raises_at_term_cap(self):
        with pytest.raises(OracleNoConvergence):
            mp_bessel_i(0.0, 1000.0)
