import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susypv.oscillator import (
    NU_INF,
    BranchDegeneracyError,
    ChainAnnihilationError,
    DomainError,
    RadialPotential,
    SeedSolution,
    SeedSpec,
    SeedSpecError,
    apply_b_minus,
    apply_b_plus,
    e0,
    make_seed,
    mixture_to_nu,
    nu_lower_bound,
    nu_to_mixture,
    physical_eigenfunction,
    seed_chain,
)
from susypv.painleve import solve
from susypv.specialfunctions import gamma

from oracles import (
    default_x_grid,
    fd_schrodinger_residual,
    laddered_scalar,
    radial_deriv_jet_scalar,
    seed_branch_jet2,
    seed_point_scalar,
)
from test_jets import complex_grid, hexes

XS = (0.5, 1.0, 2.0, 5.0)
# l in [-1/2, 50], and every half-odd l there
ELLS = st.one_of(st.floats(-0.5, 50.0), st.integers(0, 50).map(lambda n: n - 0.5))
ENERGIES = st.builds(complex, st.floats(-60, 60), st.floats(-60, 60))  # |eps| <= 100
MUS = st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
MIXTURES = st.one_of(st.tuples(MUS, st.just(0j)), st.tuples(st.just(0j), MUS),
                     st.tuples(MUS, MUS), st.just((0j, 0j)))


def grids(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=50).map(tuple)


class TestMakeSeed:
    def test_branch1_closed_form(self):
        # eps = -l/2 + 1/4 makes the first 1F1 parameter vanish: M = 1 and M' = 0,
        # also at l = 3/2, where the lower parameter is b1 = -1
        for ell in (1.0, 1.5):
            u = SeedSolution(ell, -ell / 2 + 0.25, (1.0, 0.0))
            for x, (v, dv) in zip(XS, u.value_and_derivative(XS)):
                ref = x**-ell * math.exp(-x * x / 4)
                assert abs(v - ref) < 1e-14 * abs(ref)
                assert abs(dv - (-ell / x - x / 2) * ref) < 1e-14 * abs((-ell / x - x / 2) * ref)

    def test_branch2_ground_state_shape(self):
        ell = 1.0
        u = SeedSolution(ell, e0(ell), (0.0, 1.0))
        vals = [v / (x ** (ell + 1) * math.exp(-x * x / 4))
                for x, v in zip(XS, u.value_and_derivative(XS)[:, 0])]
        assert max(abs(v - vals[0]) for v in vals) < 1e-13 * abs(vals[0])

    def test_generic_seed_residual_against_independent_derivatives(self):
        ell, eps, mix = 1.0, 0.3, (1.0, 0.7)
        u = make_seed(SeedSpec(ell, eps, mix, 1, "real-physical"))
        for x, jet in zip(XS, u.jet_values(XS, 2)):
            b1, b2 = seed_branch_jet2(ell, eps, x)
            ref = [complex(mix[0] * b1[i] + mix[1] * b2[i]) for i in range(3)]
            scale = max(abs(ref[0]), abs(ref[2]))
            assert abs(jet[0] - ref[0]) <= 1e-12 * scale
            assert abs(jet[1] - ref[1]) <= 1e-12 * scale
            # closure u'' agrees with the directly differentiated branches
            assert abs(jet[2] - ref[2]) <= 1e-10 * scale

    def test_schrodinger_residual(self):
        u = make_seed(SeedSpec(1.0, 0.3, (1.0, 0.7), 1, "real-physical"))
        for x in XS:
            assert fd_schrodinger_residual(u, x) <= 1e-10

    def test_half_odd_ell_mixed_branches_rejected(self):
        with pytest.raises(BranchDegeneracyError):
            SeedSolution(0.5, 0.1, (1.0, 0.5))
        # a single branch is fine
        SeedSolution(0.5, 0.0, (0.0, 1.0))

    def test_domain(self):
        u = SeedSolution(1.0, 0.3, (1.0, 0.0))
        with pytest.raises(DomainError):
            u.value_and_derivative((-1.0,))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, x):
        # NaN and inf fail the domain check before anything is evaluated there
        seed = SeedSolution(1.0, 0.3, (1.0, 0.7))
        for evaluate in (lambda: seed.value_and_derivative((1.0, x)),
                         lambda: seed.jet_values((x,), 3),
                         lambda: apply_b_minus(seed).value_and_derivative((x,)),
                         lambda: physical_eigenfunction(1, 0, 1.0).value_and_derivative((x,)),
                         lambda: seed.potential.deriv_jet((x,), 2)):
            with pytest.raises(DomainError):
                evaluate()

    def test_mixture_linearity(self):
        ua = SeedSolution(1.0, 0.3, (1.0, 0.7))
        ub = SeedSolution(1.0, 0.3, (0.5, 0.0))
        uc = SeedSolution(1.0, 0.3, (1.5, 0.7))
        for ja, jb, jc in zip(*(s.jet_values(XS, 1) for s in (ua, ub, uc))):
            assert abs(ja[0] + jb[0] - jc[0]) <= 1e-12 * max(1.0, abs(jc[0]))
            assert abs(ja[1] + jb[1] - jc[1]) <= 1e-12 * max(1.0, abs(jc[1]))


class TestNuMapping:
    def test_zero(self):
        assert nu_to_mixture(0.0, 2.0, 0.5) == (1.0, 0.0)

    def test_infinity_token(self):
        assert nu_to_mixture(NU_INF, 2.0, 0.5) == (0.0, 1.0)

    def test_gamma_ratio(self):
        mu1, mu2 = nu_to_mixture(1.0, 2.0, 0.5)
        ref = gamma(1.25) / gamma(3.5)
        assert mu1 == 1.0
        assert abs(mu2 - ref) < 1e-14 * abs(ref)

    def test_round_trip(self):
        for nu in (0.3, -0.4, 2.5 + 1.0j):
            mix = nu_to_mixture(nu, 1.0, -0.2)
            back = mixture_to_nu(mix, 1.0, -0.2)
            assert abs(back - nu) < 1e-12


class TestNuLowerBound:
    def test_figure_regime(self):
        # the l=2, eps=1/2 bound sits just below the smallest nu used in
        # the reference plots (-0.59)
        b = nu_lower_bound(2.0, 0.5)
        assert -0.61 < b < -0.59

    def test_figure_regime_l1(self):
        # same anchor for l=1, eps=1: plots use nu >= 0.905
        b = nu_lower_bound(1.0, 1.0)
        assert 0.90 < b < 0.905

    def test_reciprocal_gamma_zero(self):
        # (1-2l-4eps)/4 a non-positive integer makes the bound 0:
        # l=1, eps=3/4 puts it at -1 while the numerator gamma stays regular
        assert nu_lower_bound(1.0, 0.75) == 0.0

    def test_violation_produces_a_node(self):
        ell, eps = 2.0, 0.5
        b = nu_lower_bound(ell, eps)
        u = SeedSolution(ell, eps, nu_to_mixture(b - 0.1, ell, eps))
        vals = u.value_and_derivative(tuple(default_x_grid().tolist()))[:, 0].real
        assert np.any(vals[:-1] * vals[1:] < 0), "expected a sign change"
        # and just above the bound: nodeless
        u2 = SeedSolution(ell, eps, nu_to_mixture(b + 0.05, ell, eps))
        vals2 = u2.value_and_derivative(tuple(default_x_grid().tolist()))[:, 0].real
        assert not np.any(vals2[:-1] * vals2[1:] < 0)

    def test_make_seed_rejects_below_bound(self):
        ell, eps = 2.0, 0.5
        b = nu_lower_bound(ell, eps)
        with pytest.raises(SeedSpecError):
            make_seed(SeedSpec.from_nu(ell, eps, b - 0.1))


class TestLadder:
    def test_annihilates_ground(self):
        ground = physical_eigenfunction(1, 0, 1.0)
        lowered = apply_b_minus(ground)
        xs = (0.6, 1.1, 1.9, 3.0, 4.4)
        for (v, dv), jet in zip(lowered.value_and_derivative(xs), ground.jet_values(xs, 2)):
            assert abs(v) + abs(dv) <= 1e-14 * max(map(abs, jet))

    @pytest.mark.parametrize("ell", [0.0, 1.3, 1.5, 2.5, 3.0])
    def test_members_are_pochhammer_mixtures(self, ell):
        # b^- maps branch j at E to a_j(E) branch j at E - 1 (DLMF 13.3), so
        # u_{i+1} = mu1 (a1)_i branch1 + mu2 (a2)_i branch2 at eps1 - i; at
        # half-odd l a terminating branch 1 stays in its branch
        if abs((ell - 0.5) - round(ell - 0.5)) < 1e-12:
            seeds = [(1.1, (0.0, 1.0)), (-0.8 + 0.4j, (0.0, 0.5j))] + [
                ((1 - 2 * ell) / 4 + n, (1.0, 0.0)) for n in range(round(ell - 0.5))]
        else:
            seeds = [(0.37, (1.0, 0.6)), (-0.8 + 0.4j, (0.3, -1.1j)),
                     ((1 - 2 * ell) / 4 + 2, (1.0, 0.0)), ((3 + 2 * ell) / 4 + 1, (1.0, 0.6))]
        for eps, mix in seeds:
            a = ((1 - 2 * ell - 4 * eps) / 4, (3 + 2 * ell - 4 * eps) / 4)
            coeffs, member = mix, SeedSolution(ell, eps, mix)
            for i in range(1, 6):
                parent, member = member, apply_b_minus(member)
                coeffs = tuple(c * (aj + i - 1) for c, aj in zip(coeffs, a))
                ref = SeedSolution(ell, eps - i, coeffs)
                xs = (0.7, 1.4, 2.6)
                for x, got, want, jet in zip(xs, member.value_and_derivative(xs),
                                             ref.value_and_derivative(xs),
                                             parent.jet_values(xs, 2)):
                    scale = abs(want[0]) + abs(want[1]) or max(map(abs, jet))
                    assert abs(got[0] - want[0]) + abs(got[1] - want[1]) <= 1e-11 * scale, \
                        (eps, mix, i, x)
                if coeffs == (0, 0):
                    break  # annihilated: later members are b^- of rounding dust

    def test_lowered_energy_residual(self):
        u = make_seed(SeedSpec(1.0, 0.3, (1.0, 0.7), 1, "real-physical"))
        v = apply_b_minus(u)
        assert v.energy == u.energy - 1.0
        for x in XS:
            assert fd_schrodinger_residual(v, x) <= 1e-9

    def test_raise_lower_eigenvalue(self):
        # b+ b- on psi_{n=1, l=0} multiplies by n(n + 2 E0 - 1) = 3/2
        p1 = physical_eigenfunction(1, 1, 0.0)
        w = apply_b_plus(apply_b_minus(p1))
        xs = (0.8, 1.5, 2.5)
        for wv, pv in zip(w.value_and_derivative(xs)[:, 0], p1.value_and_derivative(xs)[:, 0]):
            assert abs(wv / pv - 1.5) <= 1e-9

    def test_ladder_polynomial_identity(self):
        # b+ b- u = (eps - E0)(eps + E0 - 1) u for 5 generic seeds
        # (the operator-applied H version lives in the operators suite)
        ell = 1.0
        rng = np.random.default_rng(5)
        ez = e0(ell)
        for _ in range(5):
            eps = rng.uniform(-2.0, 0.4)
            u = SeedSolution(ell, eps, (1.0, rng.uniform(-0.5, 0.5)))
            w = apply_b_plus(apply_b_minus(u))
            lam = (eps - ez) * (eps + ez - 1.0)
            xs = (0.9, 1.7)
            for j, (got, _) in zip(u.jet_values(xs, 2), w.value_and_derivative(xs)):
                scale = max(abs(j[0]), abs(j[2]), abs(got))
                assert abs(got - lam * j[0]) <= 1e-8 * scale

    @pytest.mark.parametrize("member", ["seed", "b-"])
    def test_longer_jet_extends_cached_one_bit_for_bit(self, member):
        # a longer request extends the cached (u, u') through the closure;
        # the closure entries do not depend on the order asked for
        def build():
            u = make_seed(SeedSpec.from_nu(2.0, 0.45, 3.0))
            return u if member == "seed" else apply_b_minus(u)

        warm, fresh = build(), build()
        xs = (0.3, 1.7, 4.2)
        warm.jet_values(xs, 2)
        assert np.array_equal(warm.jet_values(xs, 8), fresh.jet_values(xs, 8))


class TestSeedChain:
    def test_k1(self):
        spec = SeedSpec(1.0, 0.3, (1.0, 0.7), 1, "real-physical")
        assert len(seed_chain(spec)) == 1

    def test_k3_energies_and_residuals(self):
        spec = SeedSpec.from_nu(2.0, 0.5, 1.0, k=3)
        ch = seed_chain(spec)
        assert [c.energy for c in ch] == [0.5, -0.5, -1.5]
        for c in ch:
            for x in XS:
                assert fd_schrodinger_residual(c, x) <= 1e-9

    def test_chain_annihilation(self):
        # b^- takes x^{l+1} e^{-x^2/4}, branch 2 at E0, to zero: u_2 vanishes
        SeedSpec.from_nu(1.0, e0(1.0), NU_INF, k=1, mode="complex-over-real")
        with pytest.raises(ChainAnnihilationError):
            SeedSpec.from_nu(1.0, e0(1.0), NU_INF, k=2, mode="complex-over-real")


LATTICE_ELLS = (0.0, 0.5, 1.0, 1.5, 2.0)


def _annihilation_lattice(ell):
    """(eps1, nu, k, raised) for every spec at this l that passes the other rules.

    eps1 runs over the ladders E0 + m and -E0 + 1 + m (m = 0..5), where the
    1F1 parameters a_j are multiples of 1/2; raised says whether SeedSpec
    raised ChainAnnihilationError.
    """
    out = []
    for eps in [e0(ell) + m for m in range(6)] + [-e0(ell) + 1 + m for m in range(6)]:
        for nu in (0.0, 1.0, NU_INF):
            for k in (2, 4, 6, 8):
                try:
                    SeedSpec.from_nu(ell, eps, nu, k=k, mode="complex-over-real")
                except ChainAnnihilationError:
                    out.append((eps, nu, k, True))
                except ValueError:
                    continue  # outside the domain for another reason
                else:
                    out.append((eps, nu, k, False))
    return out


class TestChainAnnihilationRule:
    @pytest.mark.parametrize("ell", LATTICE_ELLS)
    def test_raised_exactly_where_a_member_vanishes(self, ell):
        # u_{i+1} has branch coefficients mu_j (a_j)_i; on the lattice a_j is a
        # multiple of 1/2, so the rising factorials are exact in floats
        for eps, nu, k, raised in _annihilation_lattice(ell):
            a = ((1 - 2 * ell - 4 * eps) / 4, (3 + 2 * ell - 4 * eps) / 4)
            mix = nu_to_mixture(nu, ell, eps)
            zero = any(all(mu * math.prod(aj + m for m in range(i)) == 0
                           for mu, aj in zip(mix, a)) for i in range(k))
            assert raised == zero, (eps, nu, k)

    def test_lattice_counts(self):
        # 388 lattice specs pass the other rules and 150 name a zero member
        # (a sampled zero test found 117 of those)
        cases = [c for ell in LATTICE_ELLS for c in _annihilation_lattice(ell)]
        assert (len(cases), sum(c[-1] for c in cases)) == (388, 150)


class TestPhysicalEigenfunctions:
    def test_family1_n0(self):
        ell = 1.0
        s = physical_eigenfunction(1, 0, ell)
        for x, v in zip((0.7, 1.9), s.value_and_derivative((0.7, 1.9))[:, 0]):
            ref = x ** (ell + 1) * math.exp(-x * x / 4)
            assert abs(v - ref) < 1e-13 * abs(ref)

    @pytest.mark.parametrize("family", [1, 2, 3, 4])
    def test_residuals_all_families(self, family):
        s = physical_eigenfunction(family, 2, 1.0)
        for x in (0.5, 1.0, 2.0, 3.0, 5.0):
            assert fd_schrodinger_residual(s, x) <= 1e-10

    def test_growing_families_energies(self):
        # the growing pair: x^{l+1}e^{+x^2/4} sits at -E0, x^{-l}e^{+x^2/4}
        # at E0 - 1 (the published display swaps them; the residual check
        # pins the correct assignment)
        ell = 1.0
        f4 = physical_eigenfunction(4, 0, ell)
        f3 = physical_eigenfunction(3, 0, ell)
        assert f4.energy == -e0(ell)
        assert f3.energy == e0(ell) - 1.0
        x = 1.3
        v4, v3 = (f.value_and_derivative((x,))[0, 0] for f in (f4, f3))
        assert abs(v4 - x ** (ell + 1) * math.exp(x * x / 4)) < 1e-12 * abs(v4)
        assert abs(v3 - x**-ell * math.exp(x * x / 4)) < 1e-12 * abs(v3)


class TestSpecValidation:
    def test_real_physical_requires_real_eps(self):
        with pytest.raises(SeedSpecError):
            SeedSpec(1.0, 0.3 + 0.2j, (1.0, 0.0), 1, "real-physical")

    def test_real_physical_requires_eps_below_e0(self):
        with pytest.raises(SeedSpecError):
            SeedSpec(1.0, 2.0, (1.0, 0.0), 1, "real-physical")

    def test_k_positive(self):
        with pytest.raises(SeedSpecError):
            SeedSpec(1.0, 0.3, (1.0, 0.0), 0, "real-physical")

    # each of these built the spec and failed only once a seed was evaluated
    # (or never, with a false verdict); the domain now rejects them at once
    @pytest.mark.parametrize("build", [
        lambda: SeedSpec.from_nu(1.0, -0.4, 0.8, k=2.5),
        lambda: SeedSpec.from_nu(2.0, 0.45, 3.0, k=9),
        lambda: SeedSpec.from_nu(1.5, 0.1 + 1j, 0.0),
        lambda: SeedSpec.from_nu(0.5, 0.2, 0.0, mode="complex-over-real"),
        lambda: SeedSpec.from_nu(2.5, 0.3 + 0.5j, 0.0, k=2),
        lambda: SeedSpec.from_nu(0.5, 0.0, 0.0, mode="complex-over-real"),
        lambda: SeedSpec.from_lambda_kappa(1.0, 0.0, 1e308, 1e308),
        lambda: SeedSpec.from_nu(1.0, 3e4, 1.0),
        lambda: SeedSpec.from_nu(1.0, 3e4j, 1.0),
        lambda: SeedSpec.from_nu(1000.0, 0.0, NU_INF),
        lambda: SeedSpec.from_nu(1.0, -0.4, 0.8, ordering="1111"),
        lambda: SeedSpec.from_nu(2.0, 0.5, nu_lower_bound(2.0, 0.5) - 0.1),
    ], ids=["k-fractional", "k-above-cap", "half-odd-branch1-pole-complex-eps",
            "half-odd-branch1-pole-b0", "half-odd-branch1-pole-k2",
            "half-odd-branch1-pole-a0-b0", "mixture-norm-overflow", "eps-large",
            "eps-imaginary-large", "ell-large", "ordering-not-a-permutation",
            "nu-below-bound"])
    def test_out_of_domain_rejected_at_construction(self, build):
        with pytest.raises(SeedSpecError):
            build()

    def test_half_odd_branch1_inside_domain(self):
        # b1 = -2 with a1 = -1: the 1F1 series terminates before its pole
        spec = SeedSpec.from_nu(2.5, 0.0, 0.0, mode="complex-over-real")
        assert fd_schrodinger_residual(make_seed(spec), 1.3) <= 1e-10

    def test_energy_bookkeeping_residual_at_reported_energy(self):
        spec = SeedSpec.from_nu(1.0, -0.2, 0.5)
        u = make_seed(spec)
        for x in (0.6, 1.2, 2.4):
            assert fd_schrodinger_residual(u, x) <= 1e-9


class TestGridMatchesScalarLoops:
    """The grid expressions have the bits of the former per-point loops (tests/oracles.py)."""

    @settings(max_examples=100, deadline=None)
    @given(ELLS, st.data())
    def test_seed(self, ell, data):
        # a complex energy, or the one where a1 = 0 or a2 = 0 (M = 1, M' = 0)
        eps = data.draw(st.one_of(ENERGIES, st.sampled_from([(1 - 2 * ell) / 4, (3 + 2 * ell) / 4])))
        mixture = data.draw(MIXTURES)
        try:
            seed = SeedSolution(ell, eps, mixture)
        except SeedSpecError:  # half-odd l with both branches, or branch 1 at a pole
            assume(False)
        xs = data.draw(grids(0.01, 10.0))
        want = [seed_point_scalar(ell, eps, mixture, x) for x in xs]
        assert hexes(seed.value_and_derivative(xs).ravel()) == hexes(np.ravel(want))

    @staticmethod
    def assert_ladder_matches(ell, raise_energy, xs, jets):
        """b-/+ of a parent with the given 3-jets, on the grid and point by point."""
        class Parent:
            def jet_values(self, xs, order):
                return jets[:, : order + 1]

        parent = Parent()
        parent.ell, parent.energy, parent.potential = ell, 0j, None
        ladder = (apply_b_plus if raise_energy else apply_b_minus)(parent)
        with np.errstate(all="ignore"):  # drawn parts overflow and meet inf * 0
            got = ladder.value_and_derivative(xs)
            want = laddered_scalar(ell, -1.0 if raise_energy else 1.0, xs, jets)
        assert hexes(got.ravel()) == hexes(want.ravel())
        return got

    @settings(max_examples=100, deadline=None)
    @given(ELLS, st.booleans(), st.data())
    def test_ladder(self, ell, raise_energy, data):
        xs = data.draw(grids(1e-30, 1e30))
        self.assert_ladder_matches(ell, raise_energy, xs, complex_grid(data.draw, (len(xs), 4)))

    def test_ladder_underflow_to_zero(self):
        # p u0 at x = 0.1 underflows to a zero whose sign numpy's own product
        # can get wrong (it fuses multiply-adds); on scalars the real part of b+ u is +0
        jets = np.array([[-0.7j, 5e-324 - 0j, -5e-324 - 0.7j, -5e-324 + 0.3j]])
        got = self.assert_ladder_matches(-0.5, True, (0.1,), jets)
        assert got[0, 0].real.hex() == "0x0.0p+0"

    @settings(max_examples=100, deadline=None)
    @given(ELLS, st.integers(0, 40), grids(1e-7, 1e7))
    def test_potential(self, ell, order, xs):
        # V0^(j) overflows to inf for large j at small x, quietly in both
        got = RadialPotential(ell).deriv_jet(xs, order)
        assert got.dtype == np.float64 and got.shape == (len(xs), order + 1)
        assert hexes(got.ravel()) == hexes(radial_deriv_jet_scalar(ell, xs, order).ravel())

    def test_potential_where_the_power_underflows(self):
        # x^6 underflows to 0 at x = 1e-100: the scalar loop raised ZeroDivisionError,
        # the grid gives V0^(4) = inf, and nan at l = 0, where the numerator is 0 too
        assert RadialPotential(2.0).deriv_jet((1e-100,), 4)[0, 4] == math.inf
        assert math.isnan(RadialPotential(0.0).deriv_jet((1e-100,), 4)[0, 4])
        with pytest.raises(ZeroDivisionError):
            radial_deriv_jet_scalar(2.0, (1e-100,), 4)


class TestOneDomainCheckPerGrid:
    BAD = (0.0, -1.0, math.nan, math.inf)

    @pytest.mark.parametrize("shift", range(len(BAD)))
    def test_first_bad_point_is_named(self, shift):
        bad = self.BAD[shift:] + self.BAD[:shift]
        xs = (0.4, 1.7) + bad
        seed = SeedSolution(1.0, 0.3, (1.0, 0.7))
        pv = solve(SeedSpec.from_nu(2.0, 0.45, 3.0))
        for name, evaluate in (("x", lambda: seed.jet_values(xs, 3)),
                               ("x", lambda: seed.potential.deriv_jet(xs, 2)),
                               ("z", lambda: pv.w_grid(xs))):
            with pytest.raises(DomainError) as info:
                evaluate()
            assert str(info.value) == f"evaluated at {name}={bad[0]}: not a finite {name} > 0"
