"""Complex-valued special functions used by the seed solutions and hierarchies.

Everything here is plain double precision. The series are evaluated with
compensated (Kahan) summation and a hard 500-term cap; the confluent
hypergeometric function applies the Kummer transformation for Re(x) < 0 so
that the Taylor series is only ever summed on the cancellation-free side.
High-precision reference values live in the test suite, not here.
"""

from __future__ import annotations

import cmath
import math

__all__ = [
    "ParameterPoleError",
    "NoConvergenceError",
    "GammaPoleError",
    "parameter_pole",
    "kummer_1f1",
    "kummer_1f1_dx",
    "log_gamma",
    "gamma",
    "rgamma",
    "hermite_h",
    "laguerre_l",
    "bessel_i",
]

MAX_TERMS = 500
SERIES_TOL = 1e-16
INT_TOL = 1e-12  # distance at which a parameter counts as an integer


class ParameterPoleError(ValueError):
    """The lower 1F1 parameter sits on a forbidden non-positive integer."""


class NoConvergenceError(RuntimeError):
    """A series failed to converge within the term cap."""


class GammaPoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


def _as_nonpositive_int(z: complex) -> int | None:
    """Return n >= 0 with z == -n when z is within INT_TOL of a non-positive integer."""
    if abs(z.imag) > INT_TOL:
        return None
    n = round(z.real)
    if n <= 0 and abs(z.real - n) <= INT_TOL:
        return -n
    return None


def _kahan_sum_terms(first_term: complex, ratio, n_terms: int | None = None) -> complex:
    """Sum t0 + t1 + ... with t_{k+1} = t_k * ratio(k), compensated.

    If ``n_terms`` is given the sum terminates there exactly (polynomial
    case); otherwise it stops once two consecutive terms fall below
    SERIES_TOL relative to the running sum.
    """
    total = first_term
    comp = 0.0 + 0.0j
    term = first_term
    small_streak = 0
    cap = MAX_TERMS if n_terms is None else n_terms
    for k in range(cap):
        term = term * ratio(k)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if n_terms is None:
            at = abs(total)  # max(at, 1e-300) without the call, nan kept as max keeps it
            if abs(term) <= SERIES_TOL * (1e-300 if at < 1e-300 else at):
                small_streak += 1
                if small_streak >= 2:
                    return total
            else:
                small_streak = 0
    if n_terms is not None:
        return total
    raise NoConvergenceError(
        f"series did not converge within {MAX_TERMS} terms (last |term|={abs(term):.3e})"
    )


def parameter_pole(a: complex, b: complex) -> bool:
    """1F1(a, b; x) is undefined: b a non-positive integer, a not a smaller one."""
    nb = _as_nonpositive_int(complex(b))
    if nb is None:
        return False
    na = _as_nonpositive_int(complex(a))
    return na is None or na >= nb


def kummer_1f1(a: complex, b: complex, x: complex) -> complex:
    """Confluent hypergeometric function 1F1(a, b; x) for complex arguments.

    For Re(x) < 0 the Kummer transformation
    1F1(a,b;x) = e^x 1F1(b-a, b; -x) moves the evaluation to the
    cancellation-free side before the Taylor series is summed.

    Raises ParameterPoleError where ``parameter_pole(a, b)``.
    """
    a = complex(a)
    b = complex(b)
    x = complex(x)
    if parameter_pole(a, b):
        raise ParameterPoleError(f"1F1 lower parameter b={b} is a non-positive integer")
    na = _as_nonpositive_int(a)
    if na is not None:
        # Terminating series; no reflection needed.
        return _kahan_sum_terms(
            1.0 + 0.0j,
            lambda k: (a + k) * x / ((b + k) * (k + 1)),
            n_terms=na,
        )
    if x.real < 0.0:
        return cmath.exp(x) * kummer_1f1(b - a, b, -x)
    return _kahan_sum_terms(1.0 + 0.0j, lambda k: (a + k) * x / ((b + k) * (k + 1)))


def kummer_1f1_dx(a: complex, b: complex, x: complex) -> complex:
    """d/dx 1F1(a,b;x) via the contiguous relation (a/b) 1F1(a+1,b+1;x); 0 at a = 0."""
    a = complex(a)
    b = complex(b)
    if _as_nonpositive_int(a) == 0:  # 1F1 = 1; at b = -1 the relation would hit a pole
        return 0j
    return (a / b) * kummer_1f1(a + 1.0, b + 1.0, x)


# Lanczos coefficients, g = 7, n = 9 (Godfrey's set; ~15 significant digits).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma via a Lanczos approximation.

    Reflection handles Re(z) < 1/2; off the real axis the reflected value is
    exp-correct (exp(log_gamma(z)) == Gamma(z)) which is all the callers
    need there.
    """
    z = complex(z)
    if _as_nonpositive_int(z) is not None:
        raise GammaPoleError(f"Gamma pole at z={z}")
    if z.real < 0.5:
        # ln Gamma(z) = ln pi - ln sin(pi z) - ln Gamma(1 - z)
        return cmath.log(cmath.pi) - _log_sin_pi(z) - log_gamma(1.0 - z)
    w = z - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)


def _log_sin_pi(z: complex) -> complex:
    """log(sin(pi z)), stable against overflow for large |Im z|."""
    if abs(z.imag) < 20.0:
        return cmath.log(cmath.sin(cmath.pi * z))
    # sin(pi z) = (e^{i pi z} - e^{-i pi z}) / (2i); keep the dominant factor in log form.
    if z.imag > 0:
        return -1j * cmath.pi * z + cmath.log((cmath.exp(2j * cmath.pi * z) - 1.0) / (2j))
    return 1j * cmath.pi * z + cmath.log((1.0 - cmath.exp(-2j * cmath.pi * z)) / (2j))


def gamma(z: complex) -> complex:
    """Gamma function (complex), via exp(log_gamma)."""
    return cmath.exp(log_gamma(z))


def rgamma(z: complex) -> complex:
    """Reciprocal Gamma; returns 0 exactly at the poles."""
    try:
        return cmath.exp(-log_gamma(z))
    except GammaPoleError:
        return 0.0 + 0.0j


def hermite_h(n: int, x: complex) -> complex:
    """Physicists' Hermite polynomial H_n(x) by the three-term recurrence."""
    if n < 0:
        raise ValueError("Hermite degree must be non-negative")
    x = complex(x)
    h_prev = 1.0 + 0.0j
    if n == 0:
        return h_prev
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h


def laguerre_l(n: int, alpha: float, x: complex) -> complex:
    """Associated Laguerre polynomial L_n^alpha(x) by the three-term recurrence."""
    if n < 0:
        raise ValueError("Laguerre degree must be non-negative")
    x = complex(x)
    l_prev = 1.0 + 0.0j
    if n == 0:
        return l_prev
    l_cur = 1.0 + alpha - x
    for k in range(1, n):
        l_cur, l_prev = ((2 * k + 1 + alpha - x) * l_cur - (k + alpha) * l_prev) / (k + 1), l_cur
    return l_cur


def bessel_i(mu: float, x: complex) -> complex:
    """Modified Bessel function I_mu(x) by the ascending series.

    The leading coefficient is formed through log-gamma so non-integer
    mu < -1 is fine; the series regime is |x| <= 60.
    """
    x = complex(x)
    if x == 0:
        if mu == 0:
            return 1.0 + 0.0j
        if mu > 0:
            return 0.0 + 0.0j
        raise ValueError("I_mu(0) diverges for mu < 0")
    if abs(x) > 60.0:
        raise NoConvergenceError(f"|x|={abs(x):.1f} outside the series regime (<= 60)")
    half = x / 2.0
    first = cmath.exp(mu * cmath.log(half)) * rgamma(mu + 1.0)
    q = half * half
    return _kahan_sum_terms(first, lambda k: q / ((k + 1) * (mu + k + 1)))
