"""Derivative jets and truncated Taylor series.

A jet ``f`` holds ``f[n] = f^(n)(x)`` at a point, its Taylor series
``c[n] = f^(n)(x) / n!``; on a grid of points, one row per point.
Potentials hand out jets (``deriv_jet(xs, order)``), and so do solutions
(``jet_values(xs, order)``), because the ODE closure runs on them
(``oscillator.closure_jet``, over a whole grid). Everything built from
solutions (Wronskians, ratio states, superpotentials, operator images) is
a series composed with the ``series_*`` helpers, and every state hands out
its series through ``taylor(xs, order)``; the conversions mark that boundary.
Differentiation stays exact, so failures in identity checks point at
formulas, not discretization.

The ``series_*`` helpers work along the last axis and loop over the
coefficients, one elementwise operation each over the leading axes
(operands have the same number of axes): a single series runs on numpy
scalars and a grid of series on arrays. ``series_mul`` adds the products
onto an exact +0 in np.dot's order, so the clongdouble series LU has
np.dot's bits (tests/test_susy.py pins them). Elsewhere an array may
round in the last bit unlike numpy scalars (numpy's complex128 array
kernel fuses multiply-adds); outputs are held to the pools' own rounding
noise (tests/pool_envelope.py), not to bits.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "factorials",
    "taylor_from_jet",
    "jet_from_taylor",
    "series_mul",
    "series_div",
    "series_diff",
]

_FACT_CACHE: dict[int, np.ndarray] = {}


def factorials(n: int) -> np.ndarray:
    """[0!, 1!, ..., n!] as float64 (exact through 22!, ample here)."""
    row = _FACT_CACHE.get(n)
    if row is None:
        row = np.ones(n + 1)
        for k in range(2, n + 1):
            row[k] = row[k - 1] * k
        _FACT_CACHE[n] = row
    return row


def taylor_from_jet(f: np.ndarray) -> np.ndarray:
    """Derivative values -> Taylor coefficients c_n = f^(n)/n!.

    High-order composition (Wronskian determinants, long operator chains)
    is done on Taylor coefficients: their magnitudes track the function's
    own analytic scale instead of growing factorially, which keeps the
    cancellations benign.
    """
    f = np.asarray(f)
    return f / factorials(f.shape[-1] - 1)


def jet_from_taylor(c: np.ndarray) -> np.ndarray:
    """Taylor coefficients -> derivative values."""
    c = np.asarray(c)
    return c * factorials(c.shape[-1] - 1)


def series_mul(a, b, order: int | None = None) -> np.ndarray:
    """Cauchy product along the last axis: c_n = +0 + a_0 b_n + ... + a_n b_0."""
    a, b = np.asarray(a), np.asarray(b)
    if order is None:
        order = min(a.shape[-1], b.shape[-1]) - 1
    if a.ndim != b.ndim:  # .T puts the coefficient axis first only when these agree
        raise ValueError(f"series of {a.ndim} and {b.ndim} axes")
    ac, bc = a.T, b.T
    cols = []
    for n in range(order + 1):
        acc = 0
        for j in range(n + 1):
            acc = acc + ac[j] * bc[n - j]
        cols.append(acc)
    return np.array(cols).T


def series_div(a, b, order: int | None = None) -> np.ndarray:
    """Series quotient a/b along the last axis (b[..., 0] must be nonzero)."""
    a, b = np.asarray(a), np.asarray(b)
    if order is None:
        order = min(a.shape[-1], b.shape[-1]) - 1
    if a.ndim != b.ndim:  # .T puts the coefficient axis first only when these agree
        raise ValueError(f"series of {a.ndim} and {b.ndim} axes")
    ac, bc = a.T, b.T
    cols = []
    for n in range(order + 1):
        acc = ac[n]
        for j in range(n):
            acc = acc - cols[j] * bc[n - j]
        cols.append(acc / bc[0])
    return np.array(cols).T


def series_diff(a) -> np.ndarray:
    """Taylor coefficients of the derivative along the last axis: (n+1) c_{n+1}."""
    ac = np.asarray(a).T
    return np.array([ac[n] * n for n in range(1, len(ac))]).T
