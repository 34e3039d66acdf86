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
``params_from_energies`` against. ``taylor_det_array`` is the series LU
on numpy arrays, which the library's scalar series LU must match bit for
bit. ``mp_w`` rebuilds a spec's w(z) end to end in mpmath (seed chain,
Wronskians, g): the forward-error reference for the library's w.
``closure_jet_scalar`` is the ODE closure on Python complex scalars at
one point, the reference the grid closure must match bit for bit.
``wronskian`` reads W, W' or W'' off a stack's series, for tests that
compare derivative values. ``g_from_quartet`` and ``pv_residual`` are the
certificate's own g and PV residual at one point, with the exceptions the
library's grids carry as masks (``PoleError``,
``EquationSingularityError``), for tests that probe single points.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

mp.mp.dps = 50


class OracleNoConvergence(ArithmeticError):
    """A high-precision series reached its term cap before converging."""


class PoleError(ArithmeticError):
    """g vanished at the requested point (movable pole of w)."""


class EquationSingularityError(ArithmeticError):
    """PV residual requested at w = 0 or w = 1 (the equation's singular locus)."""


def mp_hyp1f1(a, b, x, max_terms=300):
    """Direct Taylor summation of 1F1 in 50-digit arithmetic; raises at the term cap."""
    a, b, x = mp.mpc(a), mp.mpc(b), mp.mpc(x)
    term = mp.mpc(1)
    total = mp.mpc(1)
    for k in range(max_terms):
        term = term * (a + k) * x / ((b + k) * (k + 1))
        total += term
        if abs(term) < mp.mpf(10) ** (-45) * max(abs(total), 1):
            return total
    raise OracleNoConvergence(f"1F1({a}, {b}, {x}) not converged in {max_terms} terms")


def mp_closure_jet(ell, energy, x, u, du, order):
    """Jet [u, u', ..., u^(order)] at x of the solution at `energy` with value u, slope du.

    Closure u'' = 2 (V0 - energy) u with the exact potential derivatives.
    """
    c = mp.mpf(ell) * (ell + 1)
    vals = [u, du]
    vj = [x * x / 8 + c / (2 * x * x), x / 4 - c / x**3, mp.mpf(1) / 4 + 3 * c / x**4]
    fac = mp.mpf(6)
    for j in range(3, order + 1):
        fac *= j + 1
        vj.append(c / 2 * (-1) ** j * fac / x ** (j + 2))
    for n in range(order - 1):
        acc = mp.mpc(0)
        for j in range(n + 1):
            acc += mp.binomial(n, j) * vj[j] * vals[n - j]
        vals.append(2 * acc - 2 * mp.mpc(energy) * vals[n])
    return vals[: order + 1]


def closure_jet_scalar(vjet, u0, u1, energy, order):
    """The closure of oscillator.closure_jet at one point, on Python complex scalars.

    The library's former per-point loop, kept as the reference the grid
    closure must match bit for bit: vjet holds [V, V', ..., V^(order-2)],
    C(n, j) comes from Pascal's multiplicative rule in float64, and each
    sum starts at 0.0 + 0.0j.
    """
    energy = complex(energy)
    vjet = [complex(v) for v in vjet]
    vals = [complex(u0), complex(u1)][: order + 1]
    for n in range(order - 1):
        c = [1.0] * (n + 1)
        for k in range(1, n):
            c[k] = c[k - 1] * (n - k + 1) / k
        acc = 0.0 + 0.0j
        for j in range(n + 1):
            acc += c[j] * vjet[j] * vals[n - j]
        vals.append(2.0 * acc - 2.0 * energy * vals[n])
    return vals


def mp_seed_jet(ell, eps, mixture, x, order):
    """Seed derivative jet built entirely in mpmath."""
    ell = mp.mpf(ell)
    eps = mp.mpc(eps)
    x = mp.mpf(x)
    y = x * x / 2
    u = mp.mpc(0)
    du = mp.mpc(0)
    for mu, branch in zip(mixture, (1, 2)):
        if mu == 0:
            continue
        if branch == 1:
            a = (1 - 2 * ell - 4 * eps) / 4
            b = (1 - 2 * ell) / 2
            pref = x**-ell * mp.exp(-x * x / 4)
            dlog = -ell / x - x / 2
            extra = mp.mpf(0)
        else:
            a = (3 + 2 * ell - 4 * eps) / 4
            b = (3 + 2 * ell) / 2
            pref = x**-ell * mp.exp(-x * x / 4) * y ** (ell + mp.mpf(1) / 2)
            dlog = -ell / x - x / 2
            extra = (2 * ell + 1) / x
        m0 = mp_hyp1f1(a, b, y)
        m1 = a / b * mp_hyp1f1(a + 1, b + 1, y)
        u += mu * pref * m0
        du += mu * (pref * (dlog + extra) * m0 + pref * m1 * x)
    return mp_closure_jet(ell, eps, x, u, du, order)


def mp_b_minus_jet(parent_jet, ell, eps, x, order):
    """b^- image jet of a parent at energy eps: (value, derivative), then closure."""
    x = mp.mpf(x)
    c = mp.mpf(ell) * (ell + 1)
    p = x * x / 4 - c / (x * x) + mp.mpf(1) / 2
    dp = x / 2 + 2 * c / x**3
    u = parent_jet
    v = (u[2] + x * u[1] + p * u[0]) / 2
    dv = (u[3] + u[1] + x * u[2] + p * u[1] + dp * u[0]) / 2
    return mp_closure_jet(ell, mp.mpc(eps) - 1, x, v, dv, order)


def mp_wronskian_jet(jets, order):
    """W^(0..order) by the exact multi-index expansion in mpmath."""
    m = len(jets)
    out = []
    for n, terms in enumerate(term_maps(m, order)):
        acc = mp.mpc(0)
        for rows, coeff in terms.items():
            mat = mp.matrix(m, m)
            for r_i, r in enumerate(rows):
                for c_i in range(m):
                    mat[r_i, c_i] = jets[c_i][r]
            acc += mp.mpf(coeff) * mp.det(mat)
        out.append(acc)
    return out


def mp_w(spec, z):
    """w(z) of a canonical-ordering spec at the working mpmath precision.

    The chain u_1..u_k comes from mp_seed_jet and mp_b_minus_jet, and
    phi = x^{l+1} e^{-x^2/4} (at E0) from its closed form through the
    closure. psi3 = F/D and psi4 = G/D, with F = W(u_1..u_{k-1}),
    G = W(u_1..u_k, phi) and D = W(u_1..u_k); D drops out of
        g = -x - 2(e3 - e4) psi3 psi4 / W(psi3, psi4)
          = -x - 2(e3 - e4) F G / W(F, G),   e3 - e4 = eps1 - (k - 1) - E0,
    and w = 1 + x/g at x = sqrt(z). The spec's double mixture is exact here.
    """
    if spec.ordering != "1234":
        raise ValueError("mp_w follows the canonical ordering 1234 only")
    ell, k = mp.mpf(spec.ell), spec.k
    x = mp.sqrt(mp.mpf(z))
    order = max(k + 1, 3)  # W(F, G) needs G' (jets through k + 1); b^- reads u'''
    chain = [mp_seed_jet(spec.ell, spec.eps1, spec.mixture, x, order)]
    for i in range(1, k):
        chain.append(mp_b_minus_jet(chain[-1], spec.ell, mp.mpc(spec.eps1) - (i - 1), x, order))
    e0 = ell / 2 + mp.mpf(3) / 4
    phi = x ** (ell + 1) * mp.exp(-x * x / 4)
    phi_jet = mp_closure_jet(ell, e0, x, phi, phi * ((ell + 1) / x - x / 2), order)
    f = mp_wronskian_jet(chain[:-1], 1) if k > 1 else [mp.mpf(1), mp.mpf(0)]
    g = mp_wronskian_jet(chain + [phi_jet], 1)
    e34 = mp.mpc(spec.eps1) - (k - 1) - e0
    return complex(1 + x / (-x - 2 * e34 * f[0] * g[0] / (f[0] * g[1] - f[1] * g[0])))


def mp_bessel_i(mu, x, max_terms=300):
    """Ascending modified-Bessel series in 50-digit arithmetic; raises at the term cap."""
    mu, x = mp.mpf(mu), mp.mpc(x)
    half = x / 2
    term = half**mu / mp.gamma(mu + 1)
    total = term
    q = half * half
    for k in range(max_terms):
        term = term * q / ((k + 1) * (mu + k + 1))
        total += term
        if abs(term) < mp.mpf(10) ** (-45) * max(abs(total), 1):
            return total
    raise OracleNoConvergence(f"I_{mu}({x}) not converged in {max_terms} terms")


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
    u = sol.value_and_derivative((x,))[0, 0]
    d2u = fd4_first(lambda t: sol.value_and_derivative((t,))[0, 1], x, 3e-4 * min(x, 1.0))
    res = -0.5 * d2u + (sol.potential.deriv_jet((x,), 0)[0, 0] - sol.energy) * u
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


def wronskian(stack, x, deriv_order=0):
    """W(u_1,...,u_m) or its first/second derivative at x, from the stack's series."""
    if deriv_order not in (0, 1, 2):
        raise ValueError("deriv_order must be 0, 1 or 2")
    return complex(stack.jet((x,), deriv_order)[0, deriv_order]) * math.factorial(deriv_order)


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


def _dot_mul(a, b, order):
    """Cauchy product of complex arrays, one np.dot per coefficient."""
    out = np.empty(order + 1, dtype=a.dtype)
    for n in range(order + 1):
        out[n] = np.dot(a[: n + 1], b[n::-1])
    return out


def _array_div(a, b, order):
    """Series quotient a/b of complex arrays, accumulated in an array."""
    out = np.empty(order + 1, dtype=np.result_type(a.dtype, b.dtype))
    for n in range(order + 1):
        acc = a[n]
        for j in range(n):
            acc = acc - out[j] * b[n - j]
        out[n] = acc / b[0]
    return out


def taylor_det_array(stack, x, order):
    """Series LU of W on clongdouble arrays: the array route that
    ``WronskianStack._taylor_det`` must reproduce bit for bit.

    Same pivots (leading magnitude, then valuation) and the same
    operations, with np.dot for each product coefficient and array
    arithmetic for the row updates.
    """
    m = stack.size
    a = [[None] * m for _ in range(m)]
    for c, s in enumerate(stack.solutions):
        cur = s.taylor((x,), m - 1 + order)[0].astype(np.clongdouble)
        for r in range(m):
            a[r][c] = cur[: order + 1].copy()
            cur = cur[1:] * np.arange(1, len(cur))

    def valuation(series):
        nonzero = np.flatnonzero(series)
        return int(nonzero[0]) if nonzero.size else len(series)

    det = np.zeros(order + 1, dtype=np.clongdouble)
    det[0] = 1.0
    sign = 1.0
    for j in range(m):
        p = max(range(j, m), key=lambda i: abs(a[i][j][0]))
        v = 0
        if a[p][j][0] == 0:
            p = min(range(j, m), key=lambda i: valuation(a[i][j]))
            v = valuation(a[p][j])
            if v > order:
                return np.zeros(order + 1, dtype=np.clongdouble)
        if p != j:
            a[j], a[p] = a[p], a[j]
            sign = -sign
        piv = a[j][j]
        det = _dot_mul(det, piv, order)
        for i in range(j + 1, m):
            if abs(a[i][j][0]) == 0.0 and not a[i][j].any():
                continue
            factor = _array_div(a[i][j][v:], piv[v:], order - v)
            if v:
                factor = np.concatenate([factor, np.zeros(v, dtype=factor.dtype)])
            for c in range(j + 1, m):
                a[i][c] = a[i][c] - _dot_mul(factor, a[j][c], order)
    return sign * det


def g_route_b(spec, chain, x):
    """Alternative g: -x + 2(E0-eps1+k-1) F G / W(F,G).

    F = W(u_1..u_{k-1}), G = W(u_1..u_k, x^{l+1} e^{-x^2/4}); agrees with
    g_from_quartet because only logarithmic derivatives enter.
    """
    from susypv.oscillator import e0, physical_eigenfunction
    from susypv.susy import WronskianStack

    phi = physical_eigenfunction(1, 0, spec.ell)
    fj = WronskianStack(chain[:-1]).jet((x,), 1)[0]
    gj = WronskianStack(list(chain) + [phi]).jet((x,), 1)[0]
    wfg = fj[0] * gj[1] - gj[0] * fj[1]
    if abs(wfg) == 0.0:
        raise PoleError(f"W(F,G) vanishes at x={x}")
    coeff = 2.0 * (e0(spec.ell) - spec.eps1 + spec.k - 1.0)
    return -x + coeff * fj[0] * gj[0] / wfg


def g_from_quartet(quartet, x):
    """(g, g', g'') at one x from the slot-3/4 states: the certificate's g on a grid of one.

    Raises SingularEvaluationError where V_k is singular and PoleError
    where W(psi3, psi4) vanishes (the masks of the library's grid).
    """
    from susypv.painleve import _g_with_errors
    from susypv.susy import raise_if_singular

    xs = (x,)
    with np.errstate(all="ignore"):
        (g, g1, g2), _, singular, pole = _g_with_errors(quartet, xs)
    raise_if_singular(xs, singular)
    if pole[0]:
        raise PoleError(f"W(psi3,psi4) vanishes near x={x}")
    return complex(g[0]), complex(g1[0]), complex(g2[0])


def pv_residual(w, w_z, w_zz, z, params):
    """Normalized defect of the PV equation at one point: the certificate's residual.

    |w'' - RHS| / max(|w''|, |RHS|, 1) with
    RHS = (1/(2w) + 1/(w-1)) w'^2 - w'/z + (w-1)^2/z^2 (a w + b/w)
          + c w/z + d w (w+1)/(w-1).
    Raises EquationSingularityError on the singular locus w = 0 or 1.
    """
    from susypv.painleve import _residual_ext

    cl = np.clongdouble
    res, _, locus = _residual_ext(np.array([w], cl), np.array([w_z], cl), np.array([w_zz], cl),
                                  np.array([z], float), params, 0.0, 0.0, 0.0)
    if locus[0]:
        raise EquationSingularityError(f"w={complex(w)} on the singular locus at z={z}")
    return float(res[0])


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
