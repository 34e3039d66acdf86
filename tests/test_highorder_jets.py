"""Ground-truth validation of high-order jets against 50-digit arithmetic.

The operator chains consume Wronskian-ratio jets up to order ~16; this
rebuilds the same quantities independently in mpmath (closure recursion,
exact Leibniz determinant expansion, series division) and compares.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from susypv.oscillator import SeedSpec, seed_chain
from susypv.susy import WronskianStack

from oracles import derivs, mp_hyp1f1, term_maps  # the combinatorial maps are exact

mp.mp.dps = 50


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
    # closure: u'' = 2 (V - eps) u with exact potential derivatives
    c = ell * (ell + 1)
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
        vals.append(2 * acc - 2 * eps * vals[n])
    return vals[: order + 1]


def mp_b_minus_jet(parent_jet, ell, eps, x, order):
    """b^- image jet, (value, derivative) from the parent then closure."""
    x = mp.mpf(x)
    c = mp.mpf(ell) * (ell + 1)
    p = x * x / 4 - c / (x * x) + mp.mpf(1) / 2
    dp = x / 2 + 2 * c / x**3
    u = parent_jet
    v = (u[2] + x * u[1] + p * u[0]) / 2
    dv = (u[3] + u[1] + x * u[2] + p * u[1] + dp * u[0]) / 2
    vals = [v, dv]
    vj = [x * x / 8 + c / (2 * x * x), x / 4 - c / x**3, mp.mpf(1) / 4 + 3 * c / x**4]
    fac = mp.mpf(6)
    for j in range(3, order + 1):
        fac *= j + 1
        vj.append(c / 2 * (-1) ** j * fac / x ** (j + 2))
    for n in range(order - 1):
        acc = mp.mpc(0)
        for j in range(n + 1):
            acc += mp.binomial(n, j) * vj[j] * vals[n - j]
        vals.append(2 * acc - 2 * (mp.mpc(eps) - 1) * vals[n])
    return vals[: order + 1]


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


@pytest.mark.parametrize("x", [0.8, 1.3, 2.1])
def test_chain_stack_jet_matches_mp(x):
    ell, eps, order = 1.0, -0.4, 12
    spec = SeedSpec.from_nu(ell, eps, 0.8, k=2)
    chain = seed_chain(spec)
    st = WronskianStack(chain)
    got = derivs(st.jet(x, order))

    mix = chain[0].mixture
    u1 = mp_seed_jet(ell, eps, mix, x, order + 1 + 3)
    u2 = mp_b_minus_jet(u1, ell, eps, x, order + 1)
    ref = mp_wronskian_jet([u1, u2], order)
    for n in range(order + 1):
        r = complex(ref[n])
        assert abs(got[n] - r) <= 1e-12 * max(1e-30, abs(r)), (n, got[n], r)


@pytest.mark.parametrize("x", [0.9, 1.7])
def test_ratio_jet_matches_mp(x):
    # psi_n^(2) ratio jet at order 12 against the 50-digit rebuild
    from susypv.oscillator import physical_eigenfunction
    from susypv.susy import PartnerPotential, WronskianRatioState

    ell, eps, order = 1.0, -0.4, 12
    spec = SeedSpec.from_nu(ell, eps, 0.8, k=2)
    chain = seed_chain(spec)
    target = physical_eigenfunction(1, 1, ell)
    state = WronskianRatioState(WronskianStack(chain + [target]),
                                WronskianStack(chain), target.energy,
                                PartnerPotential(chain))
    got = derivs(state.ratio_jet(x, order))

    mix = chain[0].mixture
    u1 = mp_seed_jet(ell, eps, mix, x, order + 2 + 3)
    u2 = mp_b_minus_jet(u1, ell, eps, x, order + 2)
    # target is x^{l+1} e^{-x^2/4} L_1^{l+1/2}(x^2/2); rebuild via closure
    xm = mp.mpf(x)
    lag = mp.mpf(ell) + mp.mpf(3) / 2 - xm * xm / 2
    tv = xm ** (ell + 1) * mp.exp(-xm * xm / 4) * lag
    td = tv * ((ell + 1) / xm - xm / 2) + xm ** (ell + 1) * mp.exp(-xm * xm / 4) * (-xm)
    tjet = [tv, td]
    c = mp.mpf(ell) * (ell + 1)
    vj = [xm * xm / 8 + c / (2 * xm * xm), xm / 4 - c / xm**3,
          mp.mpf(1) / 4 + 3 * c / xm**4]
    fac = mp.mpf(6)
    for j in range(3, order + 3):
        fac *= j + 1
        vj.append(c / 2 * (-1) ** j * fac / xm ** (j + 2))
    en = mp.mpf(1) + mp.mpf(ell) / 2 + mp.mpf(3) / 4
    for n in range(order + 1):
        acc = mp.mpc(0)
        for j in range(n + 1):
            acc += mp.binomial(n, j) * vj[j] * tjet[n - j]
        tjet.append(2 * acc - 2 * en * tjet[n])
    num = mp_wronskian_jet([u1, u2, tjet], order)
    den = mp_wronskian_jet([u1, u2], order)
    # series division in mp (Taylor convention)
    tf = [num[n] / mp.factorial(n) for n in range(order + 1)]
    tg = [den[n] / mp.factorial(n) for n in range(order + 1)]
    ratio = []
    for n in range(order + 1):
        acc = tf[n]
        for j in range(n):
            acc -= ratio[j] * tg[n - j]
        ratio.append(acc / tg[0])
    for n in range(order + 1):
        r = complex(ratio[n] * mp.factorial(n))
        assert abs(got[n] - r) <= 1e-11 * max(1e-30, abs(r)), (n, got[n], r)
