import cmath
import math

import mpmath as mp
import numpy as np
import pytest

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
    kummer_1f1_dx,
    laguerre_l,
    log_gamma,
    parameter_pole,
)

from oracles import OracleNoConvergence, fd4_first, mp_bessel_i, mp_hyp1f1


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
        # 1F1(0, b; y) is the constant 1 wherever it is defined, b = -1 included
        assert kummer_1f1(0.0, b, 1.7) == 1.0
        assert kummer_1f1_dx(0.0, b, 1.7) == 0.0

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


def grid_points(n: int) -> list:
    """n points mixing positive, negative and complex x, |x| <= 12."""
    rng = np.random.default_rng(n)
    kinds = [complex(rng.uniform(0.0, 12.0)), complex(rng.uniform(-12.0, 0.0)),
             complex(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))]
    return [kinds[i % 3] if i < 3 else complex(rng.uniform(-12, 12), rng.uniform(-4, 4) * (i % 2))
            for i in range(n)]


# generic rows (b = 0.75 + 3i scales _Py_c_quot by the imaginary part at small k),
# terminating rows (a = -n, exactly and within INT_TOL, b past a pole it never reaches),
# and a = 0 (1F1 = 1, also at b = -1)
GRID_ROWS = [(0.3 + 0.2j, 1.7), (-4.0, 0.5), (-1.25 + 0.5j, 2.5 - 0.75j), (0.0, -1.0),
             (2.0, 0.5), (-2.0 + 1e-13, -3.0), (0.75, 0.75 + 3.0j), (-1.0, -2.0)]


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
        xs = grid_points(npts)
        for first in range(0, len(GRID_ROWS), nrows):
            rows = (GRID_ROWS * 2)[first:first + nrows]
            a_rows, b_rows = [a for a, _ in rows], [b for _, b in rows]
            got = kummer_1f1(a_rows, b_rows, xs)
            assert got.shape == (nrows, npts)
            assert hexes(got) == hexes(point_loop(a_rows, b_rows, xs)), rows

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
        ([(0.3, 1.7), (0.5, -2.0)], grid_points(30)),
        ([(0.5, 1.5), (0.5, -2.0)], [1.0, 2000.0] + grid_points(28)),
        ([(0.5, 1.5), (0.3, 1.7), (0.5, -2.0)], [2000.0] + grid_points(29)),
        # no convergence within MAX_TERMS, at one point of the grid
        ([(0.5, 1.5), (1.0, 2.5)], grid_points(20) + [1500.0] + grid_points(9)),
        ([(1.0, 2.5), (0.5, 1.5)], [-1500.0 + 3j] + grid_points(29)),
        # finite parts of an infinite modulus: abs() raises OverflowError
        ([(0.5, 1.5), (1.5e308 + 1.5e308j, 1.0)], grid_points(30)),
    ])
    def test_errors_match_the_point_loop(self, rows, xs, batch_min):
        a_rows, b_rows = [a for a, _ in rows], [b for _, b in rows]
        expected = outcome(point_loop, a_rows, b_rows, xs)
        assert expected[0] != "ok"
        assert outcome(kummer_1f1, a_rows, b_rows, xs) == expected

    def test_batched_above_the_crossover(self, monkeypatch):
        # above the crossover the one-point kernel runs only where Re x < 0
        # takes Kummer's reflection
        def fail(*args):
            raise AssertionError("one-point kernel called")

        xs = [complex(abs(x.real), x.imag) for x in grid_points(BATCH_MIN_SIZE)]
        expected = hexes(point_loop([0.3 + 0.2j], [1.7], xs))
        monkeypatch.setattr(specialfunctions, "_kummer_point", fail)
        assert hexes(kummer_1f1([0.3 + 0.2j], [1.7], xs)) == expected


class TestKummerDerivative:
    def test_exponential(self):
        x = 1.7
        assert abs(kummer_1f1_dx(1.0, 1.0, x) - cmath.exp(x)) < 1e-12 * math.exp(x)

    def test_at_zero(self):
        a, b = 0.7 + 0.1j, 1.9
        assert abs(kummer_1f1_dx(a, b, 0.0) - a / b) < 1e-15

    def test_finite_difference_sweep(self):
        a, b, x0 = 0.8 - 0.4j, 1.3, 1.3
        best = math.inf
        for h in (1e-2, 3e-3, 1e-3):
            fd = fd4_first(lambda t: kummer_1f1(a, b, t), x0, h)
            best = min(best, abs(fd - kummer_1f1_dx(a, b, x0)))
        assert best <= 1e-8


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
