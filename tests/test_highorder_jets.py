"""Ground-truth validation of high-order jets against 50-digit arithmetic.

The operator chains consume Wronskian-ratio jets up to order ~16; this
rebuilds the same quantities independently in mpmath (closure recursion,
exact Leibniz determinant expansion, series division; the 50-digit jets
live in tests/oracles.py) and compares.
"""

import mpmath as mp
import pytest

from susypv.oscillator import SeedSpec, seed_chain
from susypv.susy import WronskianStack

from oracles import derivs, mp_b_minus_jet, mp_seed_jet, mp_wronskian_jet

mp.mp.dps = 50


@pytest.mark.parametrize("x", [0.8, 1.3, 2.1])
def test_chain_stack_jet_matches_mp(x):
    ell, eps, order = 1.0, -0.4, 12
    spec = SeedSpec.from_nu(ell, eps, 0.8, k=2)
    chain = seed_chain(spec)
    st = WronskianStack(chain)
    got = derivs(st.jet((x,), order)[0])

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
    from susypv.susy import PartnerPotential, transformed_state

    ell, eps, order = 1.0, -0.4, 12
    spec = SeedSpec.from_nu(ell, eps, 0.8, k=2)
    chain = seed_chain(spec)
    target = physical_eigenfunction(1, 1, ell)
    state = transformed_state(PartnerPotential(chain), target)
    got = derivs(state.taylor((x,), order)[0])

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
