import math

import numpy as np
import pytest

from susypv.oscillator import (
    NU_INF,
    ClosedFormSolution,
    SeedSpec,
    e0,
    make_seed,
    physical_eigenfunction,
    seed_chain,
)
from susypv.susy import (
    PartnerPotential,
    SingularEvaluationError,
    WronskianStack,
    extremal_quartet,
    radial_oscillator_quartet,
    transformed_state,
    wronskian,
)

from oracles import (
    default_x_grid,
    derivs,
    fd4_first,
    fd4_second,
    fd_schrodinger_residual,
    leibniz_wronskian_jet,
)


def vk_residual(state, potential, energy, x):
    """Schrodinger residual of a ratio state, second derivative taken from
    the Wronskian ratio itself (independent of the ODE closure)."""
    r = derivs(state.taylor(x, 2))
    res = -0.5 * r[2] + (potential(x) - energy) * r[0]
    return abs(res) / max(abs(r[0]), abs(r[2]), 1e-300)


class TestWronskian:
    def test_single_function(self):
        u = make_seed(SeedSpec(1.0, 0.3, (1.0, 0.7), 1, "real-physical"))
        st = WronskianStack([u])
        for x in (0.7, 1.9):
            j = u.jet_values(x, 1)
            assert wronskian(st, x, 0) == j[0]
            assert wronskian(st, x, 1) == j[1]

    def test_duplicate_rows_vanish(self):
        u = make_seed(SeedSpec(1.0, 0.3, (1.0, 0.7), 1, "real-physical"))
        st = WronskianStack([u, u])
        x = 1.3
        scale = st.row_scale(x)
        assert abs(wronskian(st, x, 0)) <= 1e-14 * scale

    def test_hand_determinant_of_growing_pair(self):
        # W(x^{l+1} e^{x^2/4}, x^{-l} e^{x^2/4}) = -(2l+1) e^{x^2/2}
        ell = 1.5
        f = physical_eigenfunction(4, 0, ell)
        g = physical_eigenfunction(3, 0, ell)
        st = WronskianStack([f, g])
        for x in (0.7, 1.5, 3.0):
            ref = -(2 * ell + 1) * math.exp(x * x / 2)
            assert abs(wronskian(st, x, 0) - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_derivatives_vs_finite_differences(self, m):
        chain = seed_chain(SeedSpec.from_nu(2.0, 0.5, 1.0, k=4))[:m]
        st = WronskianStack(chain)
        x0, h = 1.4, 1e-3
        w0 = lambda t: wronskian(st, t, 0)
        fd1 = fd4_first(w0, x0, h)
        fd2 = fd4_second(w0, x0, h)
        assert abs(wronskian(st, x0, 1) - fd1) <= 1e-7 * max(1.0, abs(fd1))
        assert abs(wronskian(st, x0, 2) - fd2) <= 1e-7 * max(1.0, abs(fd2))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_leibniz_route_matches_series_route(self, m):
        chain = seed_chain(SeedSpec.from_nu(1.0, -0.3, 0.9, k=4))[:m]
        st = WronskianStack(chain)
        for x in (0.8, 2.1):
            series = derivs(st.jet(x, 2))
            leib = leibniz_wronskian_jet([u.jet_values(x, m + 1) for u in chain], 2)
            for d in (0, 1, 2):
                assert wronskian(st, x, d) == series[d]
                assert abs(series[d] - leib[d]) <= 1e-9 * max(1.0, abs(leib[d]))

    def test_exact_common_node_matches_leibniz(self):
        # psi_1l(3) = 0 exactly at l = 3, and phi is the solution at
        # E0 - 0.4 with phi(3) = 0, phi'(3) = 1 (only its jet at x = 3
        # enters): each stack meets a column whose leading coefficients all
        # vanish, so the series LU must pivot on valuation (for
        # [psi, phi, chi] and [chi, psi, phi] in a middle column)
        ell, x, order = 3.0, 3.0, 6
        psi = physical_eigenfunction(1, 1, ell)
        phi = ClosedFormSolution(ell, e0(ell) - 0.4, lambda t: (t - 3.0, 1.0))
        chi = physical_eigenfunction(2, 0, ell)
        assert psi.jet_values(x, 0)[0] == 0 and phi.jet_values(x, 0)[0] == 0
        for cols in ([psi], [psi, phi], [psi, phi, chi], [chi, psi, phi]):
            got = derivs(WronskianStack(cols).jet(x, order))
            ref = leibniz_wronskian_jet([u.jet_values(x, len(cols) - 1 + order)
                                         for u in cols], order)
            scale = max(abs(ref))
            assert scale > 0
            assert max(abs(got - ref)) <= 1e-12 * scale, (len(cols), got, ref)

    def test_empty_stack_convention(self):
        st = WronskianStack([])
        assert wronskian(st, 1.0, 0) == 1.0
        assert wronskian(st, 1.0, 1) == 0.0


class TestPartnerPotential:
    def test_empty_chain_is_base_potential(self):
        vp = PartnerPotential([], ell=2.0)
        from susypv.oscillator import RadialPotential

        v0 = RadialPotential(2.0)
        for x in (0.4, 1.3, 3.0):
            assert vp(x) == v0(x)

    def test_k1_ground_seed_hand_expansion(self):
        # u = x^{l+1}e^{-x^2/4}: (ln u)'' = -(l+1)/x^2 - 1/2
        ell = 1.0
        vp = PartnerPotential([physical_eigenfunction(1, 0, ell)])
        for x in (0.6, 1.7, 3.2):
            ref = x * x / 8 + ell * (ell + 1) / (2 * x * x) + (ell + 1) / (x * x) + 0.5
            assert abs(vp(x) - ref) <= 1e-10 * abs(ref)

    def test_figure_regime_smooth(self):
        # k=1, l=2, eps=1/2 with the three plotted nu values, all above the
        # bound (~-0.6027): W nodeless, V_1 finite on (0, 8]
        for nu in (-0.59, -0.4, 1.0):
            spec = SeedSpec.from_nu(2.0, 0.5, nu, k=1)
            st = WronskianStack(seed_chain(spec))
            vals = np.array([wronskian(st, float(x), 0).real for x in default_x_grid()])
            assert not np.any(vals[:-1] * vals[1:] < 0), nu
            vp = PartnerPotential(seed_chain(spec))
            for x in np.linspace(0.3, 8.0, 40):
                assert np.isfinite(vp(float(x)).real), (nu, x)

    def test_nodeless_regimes(self):
        # the nu bound guards the first-order transformation; for k >= 2
        # the connected chain needs more headroom (empirically about
        # bound + 2 here), below which W_k picks up a small-x node whose
        # pole the residual grid masks
        from susypv.oscillator import nu_lower_bound

        for k, extra in ((1, 0.05), (1, 0.5), (2, 2.5), (3, 2.5)):
            for ell in (0.0, 2.0):
                eps1 = e0(ell) - 1.3
                spec = SeedSpec.from_nu(ell, eps1, nu_lower_bound(ell, eps1) + extra, k=k)
                st = WronskianStack(seed_chain(spec))
                vals = np.array([wronskian(st, float(x), 0).real
                                 for x in default_x_grid(200)])
                assert not np.any(vals[:-1] * vals[1:] < 0), (k, ell)


class TestTransformedState:
    def test_empty_chain_is_identity(self):
        tgt = physical_eigenfunction(1, 1, 1.0)
        ts = transformed_state(PartnerPotential([], ell=1.0), tgt)
        for x in (0.8, 1.9, 3.2):
            v, d = ts.value_and_derivative(x)
            rv, rd = tgt.value_and_derivative(x)
            assert abs(v - rv) <= 1e-13 * max(1.0, abs(rv))
            assert abs(d - rd) <= 1e-13 * max(1.0, abs(rd))

    def test_k1_hand_wronskian_ratio(self):
        ell = 1.0
        u1 = physical_eigenfunction(1, 0, ell)
        tgt = physical_eigenfunction(2, 0, ell)
        ts = transformed_state(PartnerPotential([u1]), tgt)
        for x in (0.8, 1.3, 2.5):
            ref = -(2 * ell + 1) * math.exp(-x * x / 2) / (x ** (ell + 1)
                                                           * math.exp(-x * x / 4))
            v, _ = ts.value_and_derivative(x)
            assert abs(v - ref) <= 1e-10 * abs(ref)

    def test_intertwining_in_action(self):
        # the transformed state solves the partner equation at the
        # target's energy; second derivative from the ratio itself
        spec = SeedSpec.from_nu(1.0, -0.2, 0.8, k=2)
        chain = seed_chain(spec)
        vk = PartnerPotential(chain)
        rng = np.random.default_rng(9)
        for _ in range(3):
            tgt = physical_eigenfunction(1, int(rng.integers(0, 4)), 1.0)
            ts = transformed_state(vk, tgt)
            for x in (0.7, 1.2, 2.0, 3.1, 4.2):
                assert vk_residual(ts, vk, tgt.energy, x) <= 1e-8


    def test_chain_member_image_is_zero(self):
        # W(u_1..u_k, u_j) has a repeated column, so it vanishes identically
        for k in (1, 3):
            chain = seed_chain(SeedSpec.from_nu(2.0, 0.45, 3.0, k=k))
            vk = PartnerPotential(chain)
            for u in chain:
                assert transformed_state(vk, u).is_zero(), (k, u.energy)

    def test_target_must_share_ell(self):
        for chain in ([], seed_chain(SeedSpec.from_nu(1.0, -0.2, 0.8, k=2))):
            with pytest.raises(ValueError):
                transformed_state(PartnerPotential(chain, ell=1.0),
                                  physical_eigenfunction(1, 0, 2.0))


class TestExtremalQuartet:
    def test_generic_quartet_states_are_not_zero(self):
        for k in (1, 3):
            q = extremal_quartet(SeedSpec.from_nu(2.0, 0.45, 3.0, k=k))
            assert not any(state.is_zero() for state in q.states), k

    def test_k1_energies(self):
        spec = SeedSpec.from_nu(1.0, 0.3, 0.7, k=1)
        q = extremal_quartet(spec)
        assert q.energies == (1.3 + 0j, -0.25 + 0j, 0.3 + 0j, 1.25 + 0j)

    def test_k2_table_energies(self):
        # eps1 = E1: energies (E1+1, -E0+1, E1-1, E0)
        ell = 1.0
        spec = SeedSpec.from_nu(ell, e0(ell) + 1.0, NU_INF, k=2,
                                mode="complex-over-real")
        q = extremal_quartet(spec)
        ez = e0(ell)
        assert q.energies == (ez + 2.0, -ez + 1.0, ez, ez)

    def test_energy_set_bookkeeping(self):
        for k in (1, 2, 3):
            spec = SeedSpec.from_nu(2.0, 0.4, 1.0, k=k)
            q = extremal_quartet(spec)
            ez = e0(2.0)
            expected = sorted((0.4 + 1.0, -ez + 1.0, 0.4 - k + 1.0, ez))
            got = sorted(complex(e).real for e in q.energies)
            assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-12

    def test_states_pass_partner_residual(self):
        spec = SeedSpec.from_nu(1.0, -0.2, 0.8, k=2)
        q = extremal_quartet(spec)
        for state, energy in zip(q.states, q.energies):
            for x in (0.8, 1.4, 2.3):
                assert vk_residual(state, q.potential, energy, x) <= 1e-8

    def test_potential_and_states_share_one_chain_stack(self):
        # V_k and every ratio denominator read one factorization per x
        for k in (1, 3):
            q = extremal_quartet(SeedSpec.from_nu(2.0, 0.45, 3.0, k=k))
            assert all(state.den is q.potential.stack for state in q.states)

    def test_psi3_is_inverse_seed_for_k1(self):
        spec = SeedSpec.from_nu(1.0, 0.3, 0.7, k=1)
        q = extremal_quartet(spec)
        u = make_seed(spec)
        for x in (0.9, 1.7):
            v, _ = q.states[2].value_and_derivative(x)
            assert abs(v * u(x) - 1.0) <= 1e-12


class TestRadialOscillatorQuartet:
    def test_perp_wronskian_is_one(self):
        for ell in (1.0, 1.5, 3.0):
            q = radial_oscillator_quartet(ell)
            psi, perp = q.states[2], q.states[3]
            node = math.sqrt(2 * ell + 3)
            for x in (0.05, 0.5, 1.2, 2.0, node, node + 0.11, 4.0, 6.5, 8.0):
                pv, pd = psi.value_and_derivative(x)
                qv, qd = perp.value_and_derivative(x)
                assert abs(pv * qd - qv * pd - 1.0) <= 1e-9, (ell, x)

    def test_admixture_leaves_wronskian(self):
        q = radial_oscillator_quartet(1.0, perp_admixture=2.5)
        psi, perp = q.states[2], q.states[3]
        for x in (0.9, 2.6, 4.8):
            pv, pd = psi.value_and_derivative(x)
            qv, qd = perp.value_and_derivative(x)
            assert abs(pv * qd - qv * pd - 1.0) <= 1e-9

    def test_perp_is_a_solution(self):
        # u'' by finite differences of u' must satisfy the Schrodinger
        # equation with the stepped u: tightly at a small step, and to 1e-7
        # of max(|u|, |u'|, |u''|) at a step of 1e-3 min(x, 1)
        for ell in (2.0, 1.5, 3.0):
            perp = radial_oscillator_quartet(ell).states[3]
            node = math.sqrt(2 * ell + 3)
            for x in (0.05, 0.8, node, 2.5, 4.2, 8.0):
                assert fd_schrodinger_residual(perp, x) <= 1e-10
                u, du = perp.value_and_derivative(x)
                d2u = fd4_first(lambda t: perp.value_and_derivative(t)[1], x,
                                1e-3 * min(x, 1.0))
                res = -0.5 * d2u + (perp.potential(x) - perp.energy) * u
                assert abs(res) <= 1e-7 * max(abs(u), abs(du), abs(d2u)), (ell, x)

    def test_energies(self):
        ell = 2.0
        q = radial_oscillator_quartet(ell)
        ez = e0(ell)
        assert q.energies == (ez + 0j, 1 - ez + 0j, ez + 1 + 0j, ez + 1 + 0j)
