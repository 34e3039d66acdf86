"""Complex-valued special functions used by the seed solutions and hierarchies.

Everything here is plain double precision. The series are evaluated with
compensated (Kahan) summation and a hard 500-term cap; the confluent
hypergeometric function applies the Kummer transformation for Re(x) < 0 so
that the Taylor series is only ever summed on the cancellation-free side.
High-precision reference values live in the test suite, not here.

``kummer_1f1`` also sums parameter rows over a grid of points, each
element with the bits of its one-point call. Real b rows at 0 < y < inf,
from BATCH_MIN_SIZE rows x points on, go through one numpy pass
(``_sum_grid``, per _CHUNK elements) with CPython's complex product
written out on float64 parts; any other grid loops the one-point kernel.
The crossover, measured for the rows of the l=2, eps1=0.45, nu=3 seed at
y = z/2 on ``default_z_grid(n)`` (2-core x86-64, numpy 2.4, Python 3.11;
medians of 41 interleaved calls, one-point loop vs one pass):

    rows x points    4 x 4    2 x 16   4 x 8    2 x 24   4 x 12   4 x 16   4 x 200
    loop, ms         0.20     0.39     0.39     0.58     0.54     0.68     8.1
    one pass, ms     0.40     0.46     0.43     0.44     0.43     0.44     2.2
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "ParameterPoleError",
    "NoConvergenceError",
    "GammaPoleError",
    "parameter_pole",
    "kummer_1f1",
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
BATCH_MIN_SIZE = 48  # rows x points from which kummer_1f1 sums a grid in one pass
_BLOCK = 24  # terms per block of _sum_grid after the first, and the least cap
_BLOCK_BUDGET = 4096  # terms x elements of a block longer than _BLOCK terms
_CHUNK = 4096  # elements per _sum_grid pass (points per PerpSolution pass): arrays stay small


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


def _row_terms(a: complex, b: complex) -> int | None:
    """n where a = -n ends the series of 1F1(a, b), else None; raises where no term is summed."""
    if parameter_pole(a, b):
        raise ParameterPoleError(f"1F1 lower parameter b={b} is a non-positive integer")
    n = _as_nonpositive_int(a)
    if n is not None and n > MAX_TERMS:  # the cap holds for terminating rows too
        raise NoConvergenceError(f"a={a} gives a terminating series past {MAX_TERMS} terms")
    return n


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


def kummer_1f1(a, b, x):
    """Confluent hypergeometric function 1F1(a, b; x) for complex arguments.

    For Re(x) < 0 the Kummer transformation
    1F1(a,b;x) = e^x 1F1(b-a, b; -x) moves the evaluation to the
    cancellation-free side before the Taylor series is summed.

    Scalar a, b and x give a complex. Otherwise a and b hold one parameter
    row each (a sequence or a column) and x is a grid of points: the result
    is the (row, point) array of 1F1(a[r], b[r]; x[i]), each element with
    the bits of its scalar call, and a failing grid raises the error the
    scalar calls, made point by point and row by row, would raise first.
    Real b rows at real points 0 < x < inf are summed in one pass (above).

    Raises ParameterPoleError where ``parameter_pole(a, b)``.
    """
    if np.ndim(a) == np.ndim(b) == np.ndim(x) == 0:
        return _kummer_point(complex(a), complex(b), complex(x))
    a_rows = [complex(v) for v in np.ravel(a).tolist()]
    b_rows = [complex(v) for v in np.ravel(b).tolist()]
    if len(a_rows) != len(b_rows):
        raise ValueError(f"{len(a_rows)} rows of a but {len(b_rows)} of b")
    xs = np.ravel(np.asarray(x, dtype=complex))
    if (len(a_rows) * len(xs) >= BATCH_MIN_SIZE and not any(b.imag for b in b_rows)
            and np.all((xs.imag == 0) & (xs.real > 0) & (xs.real < math.inf))):
        return _kummer_grid(a_rows, b_rows, xs.real)
    sums = [[_kummer_point(a, b, x) for a, b in zip(a_rows, b_rows)] for x in xs.tolist()]
    return np.array(sums, dtype=complex).reshape(len(xs), len(a_rows)).T.copy()


def _kummer_point(a: complex, b: complex, x: complex) -> complex:
    """1F1(a, b; x) at one point, on Python complex scalars."""
    na = _row_terms(a, b)
    if na is None and x.real < 0.0:  # a terminating series needs no reflection
        return cmath.exp(x) * _kummer_point(b - a, b, -x)
    return _kahan_sum_terms(1.0 + 0.0j, lambda k: (a + k) * x / ((b + k) * (k + 1)), na)


def _kummer_grid(a_rows: list, b_rows: list, ys: np.ndarray) -> np.ndarray:
    """kummer_1f1 of complex a and real b rows at real points 0 < y < inf, in passes of _CHUNK.

    Element e = i * nrow + r is row r at point i, so the smallest failing
    element is the one the scalar calls meet first; a row that fails before
    its first term (_row_terms) fails at its first point.
    """
    nrow, errors, n_rows = len(a_rows), {}, []
    for r, (a, b) in enumerate(zip(a_rows, b_rows)):
        try:
            na = _row_terms(a, b)
        except (ParameterPoleError, NoConvergenceError) as exc:
            errors[r], na = exc, 0
        n_rows.append(-1 if na is None else na)  # terms of a terminating row; -1: to convergence
    n_rows, a, b = np.array(n_rows), np.array(a_rows), np.array(b_rows).real
    row, y = np.tile(np.arange(nrow), len(ys)), np.repeat(ys, nrow)
    sums = np.ones(len(y), dtype=complex)
    for i in range(0, len(y), _CHUNK):  # bounded memory
        sums[i:i + _CHUNK], failed = _sum_grid(a, b, n_rows, row[i:i + _CHUNK], y[i:i + _CHUNK])
        errors.update((i + j, exc) for j, exc in failed.items())
    if errors:
        raise errors[min(errors)]
    return sums.reshape(len(ys), nrow).T.copy()


def _sum_grid(a: np.ndarray, b: np.ndarray, n_terms: np.ndarray, row: np.ndarray,
              y: np.ndarray) -> tuple[np.ndarray, dict]:
    """Series of rows (a, b) at elements (row[e], y[e]) with ``_kahan_sum_terms``' bits.

    Row r sums exactly n_terms[r] >= 0 terms, or with -1 until two
    consecutive terms are small. Every complex operation is CPython's, on
    float64 real and imaginary parts: numpy's complex multiply may fuse
    multiply-adds. For real b and y, CPython's ratio
    (a + k) y / ((b + k)(k + 1)) is ((a.real + k) y / d, (a.imag + 0.0) y / d)
    with d = (b + k)(k + 1), but for the sign of a zero part (no sum keeps
    it) and a part past the double range (the term is NaN either way).
    Each block of terms takes its ratios in one pass and then the terms and
    Kahan steps term by term; each element's stop is read off the block,
    its sum taken there, and finished elements drop out. Returns the sums
    and the first error each failing element's scalar loop would raise.
    """
    sums, errors = np.ones(len(y), dtype=complex), {}
    live = np.flatnonzero(n_terms[row] != 0)
    row, y = row[live], y[live]
    # complex values as (real, imaginary) float rows: term, total, compensation
    term = np.zeros((2, 1, len(live)))
    term[0] = 1.0
    total, comp = term.copy(), np.zeros_like(term)
    prev_small = np.zeros(len(live), dtype=bool)  # the last term of the previous block was small
    k0 = 0
    # block lengths only set the pace (each element stops at its own term):
    # the first runs to where e^max(y)'s series stops, the later ones _BLOCK terms
    nk = _terms_of_exp(float(y.max())) if len(live) else 0
    with np.errstate(all="ignore"):  # a finished or failing element's later terms are dropped
        while len(live):
            conv = n_terms[row] < 0
            last = np.where(conv, MAX_TERMS, n_terms[row]) - 1  # the last k each element may take
            nk = min(nk, max(_BLOCK, _BLOCK_BUDGET // len(live)), int(last.max()) - k0 + 1)
            k = np.arange(k0, k0 + nk, dtype=float)[:, None]
            d = ((b + k) * (k + 1.0))[:, row]
            q = np.empty((nk, 2, len(live)))
            np.divide((a.real + k)[:, row] * y, d, out=q[:, 0])
            np.divide((a.imag + 0.0)[row] * y, d, out=q[:, 1])
            # t q = (tr qr - ti qi, tr qi + ti qr) from one product (tr, ti) x ((qr, qi), (qi, qr))
            q = np.stack([q, q[:, ::-1]], axis=1)
            terms = np.empty((nk, 2, 1, len(live)))
            totals = np.empty_like(terms)
            p, dt = np.empty((2, 2, len(live))), np.empty_like(term)
            (rr, ri), (ii, ir) = p  # tr qr, tr qi; ti qi, ti qr
            for t, t_re, t_im, s, qj in zip(terms, terms[:, 0, 0], terms[:, 1, 0], totals, q):
                np.multiply(term, qj, out=p)
                np.subtract(rr, ii, out=t_re)
                np.add(ri, ir, out=t_im)
                np.subtract(t, comp, out=dt)  # Kahan: dt = t - comp, s = total + dt,
                np.add(total, dt, out=s)  # comp = (s - total) - dt
                comp = np.subtract(s, total)
                np.subtract(comp, dt, out=comp)
                term, total = t, s
            terms, totals = terms[:, :, 0], totals[:, :, 0]
            at = np.hypot(totals[:, 0], totals[:, 1])
            aterm = np.hypot(terms[:, 0], terms[:, 1])
            small = aterm <= SERIES_TOL * np.maximum(at, 1e-300)  # NaN kept, as in the loop
            stop = small.copy()  # the second small term in a row
            stop[0] &= prev_small
            stop[1:] &= small[:-1]
            if k0 + nk > last.min():  # some element takes its last term in this block
                stop = np.where(conv, stop & (k <= last), k == last)
            elif not conv.all():
                stop &= conv
            stopped = stop.any(axis=0)
            j_stop = stop.argmax(axis=0)
            failed = ~stopped & conv & (last < k0 + nk)  # no stop by MAX_TERMS
            if not (at.max() < math.inf and aterm.max() < math.inf) or failed.any():
                # abs() raises OverflowError on finite parts of an infinite modulus
                overflow = conv & (((at == math.inf) & np.isfinite(totals).all(axis=1))
                                   | ((aterm == math.inf) & np.isfinite(terms).all(axis=1)))
                j_last = np.where(stopped, j_stop, np.minimum(nk - 1, last - k0))
                for e in np.flatnonzero(overflow.any(axis=0) | failed).tolist():
                    if overflow[:, e].any() and overflow[:, e].argmax() <= j_last[e]:
                        errors[int(live[e])] = OverflowError("absolute value too large")
                    elif failed[e]:
                        errors[int(live[e])] = NoConvergenceError(
                            f"series did not converge within {MAX_TERMS} terms "
                            f"(last |term|={float(aterm[j_last[e], e]):.3e})")
                    else:
                        continue
                    stopped[e] = True
            if stopped.any():
                done = np.flatnonzero(stopped)
                sums.real[live[done]] = totals[j_stop[done], 0, done]
                sums.imag[live[done]] = totals[j_stop[done], 1, done]
                keep = np.flatnonzero(~stopped)
                live, row, y = live[keep], row[keep], y[keep]
                term, total, comp = term[..., keep], total[..., keep], comp[..., keep]
                small = small[:, keep]
            prev_small = small[-1]
            k0 += nk
            nk = _BLOCK
    return sums, errors


def _terms_of_exp(r: float) -> int:
    """Terms of e^r's series up to its stop, plus two: the first block's length."""
    term, total, k = 1.0, 1.0, 0
    while term > SERIES_TOL * total and k < MAX_TERMS:
        k += 1
        term *= r / k
        total += term
    return k + 2


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
