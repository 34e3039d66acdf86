"""Independent high-precision oracles, test-only routes and finite differences.

The mpmath oracles deliberately avoid the library's own code paths: the
confluent series is summed directly in 50-digit arithmetic, and
derivatives of the closed-form seed branches are assembled by the product
rule from contiguous relations, so the residual checks falsify the
ODE-closure jets rather than restate them. The Leibniz jet calculus
(``jet_mul``, ``jet_div``, ``jet_log_deriv``), the row multi-index
Wronskian (``term_maps``, ``leibniz_wronskian_jet``), ``g_route_b`` and
the exact-complex alpha route ``pv_params_exact`` are second routes that
the tests hold the library's series arithmetic, series-LU Wronskian, g and
``params_from_energies`` against.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def mp_hyp1f1(a, b, x, max_terms=300):
    """Direct Taylor summation of 1F1 in 50-digit arithmetic."""
    a, b, x = mp.mpc(a), mp.mpc(b), mp.mpc(x)
    term = mp.mpc(1)
    total = mp.mpc(1)
    for k in range(max_terms):
        term = term * (a + k) * x / ((b + k) * (k + 1))
        total += term
        if abs(term) < mp.mpf(10) ** (-45) * max(abs(total), 1):
            break
    return total


def mp_bessel_i(mu, x, max_terms=300):
    """Ascending modified-Bessel series in 50-digit arithmetic."""
    mu, x = mp.mpf(mu), mp.mpc(x)
    half = x / 2
    term = half**mu / mp.gamma(mu + 1)
    total = term
    q = half * half
    for k in range(max_terms):
        term = term * q / ((k + 1) * (mu + k + 1))
        total += term
        if abs(term) < mp.mpf(10) ** (-45) * max(abs(total), 1):
            break
    return total


def mp_pv_residual(w, z, a, b, c, d=Fraction(-1, 8)):
    """Normalized PV defect of a closed-form w at z, in 50 digits.

    w maps an mpf to an mpf or mpc; the exact Fraction parameters enter
    |w'' - RHS| / max(|w''|, |RHS|, 1) with
    RHS = (1/(2w) + 1/(w-1)) w'^2 - w'/z + (w-1)^2/z^2 (a w + b/w)
          + c w/z + d w (w+1)/(w-1),
    the library's normalization; w' and w'' come from mp.diff.
    """
    with mp.workdps(50):
        a, b, c, d = (mp.mpf(p.numerator) / p.denominator for p in (a, b, c, d))
        z = mp.mpf(z)
        w0, w1, w2 = w(z), mp.diff(w, z, 1), mp.diff(w, z, 2)
        rhs = ((1 / (2 * w0) + 1 / (w0 - 1)) * w1 * w1 - w1 / z
               + (w0 - 1) ** 2 / (z * z) * (a * w0 + b / w0) + c * w0 / z
               + d * w0 * (w0 + 1) / (w0 - 1))
        return abs(w2 - rhs) / max(abs(w2), abs(rhs), 1)


def default_x_grid(n=400, lo=1e-2, hi=8.0):
    """Geometric scan grid resolving both the centrifugal region and the tail."""
    return np.geomspace(lo, hi, n)


def fd4_first(f, x, h):
    """Fourth-order central first derivative."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def fd_schrodinger_residual(sol, x):
    """|-u''/2 + (V0 - E) u| / max(|u|, |u''|) at x, u'' by fd4_first of u'.

    u'' comes from the solution's own u' at nearby points, never from its
    ODE closure, so a (u, u') that solves no equation at E shows.
    """
    u = sol.value_and_derivative(x)[0]
    d2u = fd4_first(lambda t: sol.value_and_derivative(t)[1], x, 3e-4 * min(x, 1.0))
    res = -0.5 * d2u + (sol.potential(x) - sol.energy) * u
    return abs(res) / max(abs(u), abs(d2u), 1e-300)


def fd4_second(f, x, h):
    """Fourth-order central second derivative."""
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x) + 16 * f(x + h)
            - f(x + 2 * h)) / (12 * h * h)


def seed_branch_jet2(ell, eps, x):
    """(value, u', u'') of the two seed branches by direct differentiation.

    Uses d/dy 1F1(a,b;y) = (a/b) 1F1(a+1,b+1;y) twice plus the product
    rule on the closed-form prefactors; no Schrodinger closure involved.
    """
    ell, eps, x = mp.mpf(ell), mp.mpc(eps), mp.mpf(x)
    y = x * x / 2
    out = []
    for branch in (1, 2):
        if branch == 1:
            a = (1 - 2 * ell - 4 * eps) / 4
            b = (1 - 2 * ell) / 2
            p = -ell
        else:
            a = (3 + 2 * ell - 4 * eps) / 4
            b = (3 + 2 * ell) / 2
            p = ell + 1
        m0 = mp_hyp1f1(a, b, y)
        m1 = a / b * mp_hyp1f1(a + 1, b + 1, y)
        m2 = a * (a + 1) / (b * (b + 1)) * mp_hyp1f1(a + 2, b + 2, y)
        scale = mp.mpf(2) ** (-ell - mp.mpf(1) / 2) if branch == 2 else mp.mpf(1)
        pref = scale * x**p * mp.exp(-x * x / 4)
        dlog = p / x - x / 2
        u = pref * m0
        du = pref * (dlog * m0 + x * m1)
        # d2: differentiate du = pref*(dlog*m0 + x*m1)
        dpref = pref * dlog
        ddlog = -p / (x * x) - mp.mpf(1) / 2
        d2 = (dpref * (dlog * m0 + x * m1)
              + pref * (ddlog * m0 + dlog * x * m1 + m1 + x * x * m2))
        out.append((u, du, d2))
    return out


def derivs(series):
    """Derivative values f^(n) = n! c_n from Taylor coefficients c_n."""
    return np.asarray(series) * np.array([math.factorial(n) for n in range(len(series))])


def jet_mul(f, g, order=None):
    """Jet of f*g: (fg)^(n) = sum_k C(n,k) f^(k) g^(n-k)."""
    if order is None:
        order = min(len(f), len(g)) - 1
    out = np.empty(order + 1, dtype=complex)
    for n in range(order + 1):
        out[n] = sum(math.comb(n, k) * f[k] * g[n - k] for k in range(n + 1))
    return out


def jet_div(f, g, order=None):
    """Jet of f/g (g[0] must be nonzero)."""
    if order is None:
        order = min(len(f), len(g)) - 1
    out = np.empty(order + 1, dtype=complex)
    for n in range(order + 1):
        acc = f[n] - sum(math.comb(n, k) * out[k] * g[n - k] for k in range(n))
        out[n] = acc / g[0]
    return out


def jet_log_deriv(f, order=None):
    """Jet of (ln f)' = f'/f."""
    if order is None:
        order = len(f) - 2
    return jet_div(f[1:], f, order)


def term_maps(m, order):
    """Row multi-index expansions of W^(0..order) for an m-stack.

    W^(n) = sum over maps[n] of coeff * det(rows of the derivative matrix
    [u_c^(r)]); differentiating a determinant bumps one row index at a
    time, and a bump onto the next row's index gives a vanishing term.
    """
    maps = [{tuple(range(m)): 1}]
    for _ in range(order):
        nxt = {}
        for rows, coeff in maps[-1].items():
            for i in range(m):
                bumped = rows[i] + 1
                if i + 1 < m and bumped == rows[i + 1]:
                    continue
                new = rows[:i] + (bumped,) + rows[i + 1:]
                nxt[new] = nxt.get(new, 0) + coeff
        maps.append(nxt)
    return maps


def leibniz_wronskian_jet(cols, order):
    """W^(0..order) from the derivative jets of the columns (each through
    m - 1 + order), one LU determinant per row set of term_maps."""
    mat = np.column_stack(cols).astype(complex)
    return np.array([sum(coeff * np.linalg.det(mat[list(rows), :])
                         for rows, coeff in terms.items())
                     for terms in term_maps(len(cols), order)])


def g_route_b(spec, chain, x):
    """Alternative g: -x + 2(E0-eps1+k-1) F G / W(F,G).

    F = W(u_1..u_{k-1}), G = W(u_1..u_k, x^{l+1} e^{-x^2/4}); agrees with
    the library's g_from_quartet because only logarithmic derivatives enter.
    """
    from susypv.oscillator import e0, physical_eigenfunction
    from susypv.painleve import PoleError
    from susypv.susy import WronskianStack

    phi = physical_eigenfunction(1, 0, spec.ell)
    fj = WronskianStack(chain[:-1]).jet(x, 1)
    gj = WronskianStack(list(chain) + [phi]).jet(x, 1)
    wfg = fj[0] * gj[1] - gj[0] * fj[1]
    if abs(wfg) == 0.0:
        raise PoleError(f"W(F,G) vanishes at x={x}")
    coeff = 2.0 * (e0(spec.ell) - spec.eps1 + spec.k - 1.0)
    return -x + coeff * fj[0] * gj[0] / wfg


# -- exact-complex alpha route ------------------------------------------------
# An exact complex number is a (re, im) pair of Fractions.


def _fc_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _fc_sq(x):
    return (x[0] * x[0] - x[1] * x[1], 2 * x[0] * x[1])


def _fc_scale(x, s):
    return (x[0] * s, x[1] * s)


def pv_params_exact(ell, eps1, k, label="1234"):
    """{'a','b','c','d'} of the k-SUSY quartet as exact (re, im) Fraction pairs.

    The slot energies (eps1 + 1, 1 - E0, eps1 - k + 1, E0), E0 = l/2 + 3/4,
    are taken in the order of `label` (any of the 24), then
    a = a1^2/2, b = -a3^2/2, c = (a2 - a4)/2, d = -1/8 with
    a1 = e1 - e2, a2 = e2 - e3, a3 = e3 - e4, a4 = e4 - e1 + 1.
    """
    ezero = Fraction(ell) / 2 + Fraction(3, 4)
    eps1 = (Fraction(eps1[0]), Fraction(eps1[1]))
    energies = [(eps1[0] + 1, eps1[1]), (1 - ezero, Fraction(0)),
                (eps1[0] - (k - 1), eps1[1]), (ezero, Fraction(0))]
    e = [energies[int(ch) - 1] for ch in label]
    a1, a2, a3 = _fc_sub(e[0], e[1]), _fc_sub(e[1], e[2]), _fc_sub(e[2], e[3])
    a4 = (e[3][0] - e[0][0] + 1, e[3][1] - e[0][1])
    return {
        "a": _fc_scale(_fc_sq(a1), Fraction(1, 2)),
        "b": _fc_scale(_fc_sq(a3), Fraction(-1, 2)),
        "c": _fc_scale(_fc_sub(a2, a4), Fraction(1, 2)),
        "d": (Fraction(-1, 8), Fraction(0)),
    }
