"""Derivative jets and truncated Taylor series.

A jet ``f`` holds ``f[n] = f^(n)(x)`` at a fixed point, its Taylor series
``c[n] = f^(n)(x) / n!``. Potentials hand out jets, and so do solutions
(``jet_values``), because the ODE closure runs on them (``binom`` feeds
its Leibniz sum). Everything built from solutions (Wronskians, ratio
states, superpotentials, operator images) is a series composed with the
``series_*`` helpers, and every state hands out its series through
``taylor(x, order)``; the two conversions mark that boundary.
Differentiation stays exact, so failures in identity checks point at
formulas, not discretization.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "binom",
    "factorials",
    "taylor_from_jet",
    "jet_from_taylor",
    "series_mul",
    "series_div",
    "series_diff",
]

_BINOM_CACHE: dict[int, np.ndarray] = {}
_FACT_CACHE: dict[int, np.ndarray] = {}


def binom(n: int) -> np.ndarray:
    """Row n of Pascal's triangle as float64 (exact up to n ~ 50)."""
    row = _BINOM_CACHE.get(n)
    if row is None:
        row = np.ones(n + 1)
        for k in range(1, n):
            row[k] = row[k - 1] * (n - k + 1) / k
        _BINOM_CACHE[n] = row
    return row


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
    return np.asarray(f) / factorials(len(f) - 1)


def jet_from_taylor(c: np.ndarray) -> np.ndarray:
    """Taylor coefficients -> derivative values."""
    return np.asarray(c) * factorials(len(c) - 1)


def series_mul(a: np.ndarray, b: np.ndarray, order: int | None = None) -> np.ndarray:
    """Cauchy product of truncated Taylor series."""
    if order is None:
        order = min(len(a), len(b)) - 1
    out = np.empty(order + 1, dtype=a.dtype)
    for n in range(order + 1):
        out[n] = np.dot(a[: n + 1], b[n::-1])
    return out


def series_div(a: np.ndarray, b: np.ndarray, order: int | None = None) -> np.ndarray:
    """Series quotient a/b (b[0] must be nonzero)."""
    if order is None:
        order = min(len(a), len(b)) - 1
    out = np.empty(order + 1, dtype=np.result_type(a.dtype, b.dtype))
    for n in range(order + 1):
        acc = a[n]
        for j in range(n):
            acc = acc - out[j] * b[n - j]
        out[n] = acc / b[0]
    return out


def series_diff(a: np.ndarray) -> np.ndarray:
    """Taylor coefficients of the derivative: (n+1) c_{n+1}."""
    n = len(a) - 1
    return a[1:] * np.arange(1, n + 1)
