import collections
import math

import numpy as np
import pytest

from susypv.jets import series_diff, series_div, series_mul, taylor_from_jet
from susypv.oscillator import (
    RadialPotential,
    SeedSpec,
    apply_b_minus,
    apply_b_plus,
    e0,
    make_seed,
    physical_eigenfunction,
)
from susypv.operators import (
    Atom,
    OperatorChain,
    SusyLadder,
    check_commutator,
    check_factorization,
    check_intertwining,
    check_ladder_polynomial,
    check_new_level_annihilation,
    check_number_operator,
    check_shift_identities,
    atom_a,
    atom_b,
    atom_h,
    atom_susy,
    default_test_seeds,
    natural_eigenvalue,
    reduced_quartic,
    run_all_checks,
)
from susypv.susy import WronskianStack

SPEC1 = SeedSpec.from_nu(1.0, -0.4, 0.8, k=1)
SPEC2 = SeedSpec.from_nu(1.0, -0.4, 0.8, k=2)
SPEC3 = SeedSpec.from_nu(1.0, -0.4, 0.8, k=3)


class TestAtoms:
    def test_empty_chain_is_identity(self):
        f = make_seed(SPEC1)
        chain = OperatorChain([])
        xs = (0.9, 1.8)
        assert np.array_equal(chain(f, xs), f.jet_values(xs, 0)[:, 0])

    def test_b_minus_annihilates_ground(self):
        ground = physical_eigenfunction(1, 0, 1.0)
        chain = OperatorChain([atom_b(1.0, -1)])
        xs = (0.8, 1.6)
        for v, jet in zip(chain(ground, xs), ground.jet_values(xs, 2)):
            assert abs(v) <= 1e-12 * max(abs(jet))

    @pytest.mark.parametrize("ell", [0.0, 1.0, 3.0])
    def test_b_atom_matches_laddered_solution(self, ell):
        # the (value, derivative) entry that AtomImage consumes
        u = default_test_seeds(ell)[0]
        for sign, ladder in ((-1, apply_b_minus), (+1, apply_b_plus)):
            chain = OperatorChain([atom_b(ell, sign)])
            image = ladder(u)
            xs = (0.7, 1.3, 2.4, 4.0)
            for got, ref, jet in zip(chain.apply_jet(u, xs, 1), image.value_and_derivative(xs),
                                     u.jet_values(xs, 3)):
                scale = max(abs(jet))
                assert max(abs(got[0] - ref[0]), abs(got[1] - ref[1])) <= 1e-13 * scale

    def test_first_order_atom_annihilates_own_seed(self):
        ladder = SusyLadder(SPEC1)
        u1 = ladder.chain[0]
        chain = OperatorChain([ladder.atom_susy(1, +1)])
        xs = (0.8, 1.4, 2.2)
        for v, jet in zip(chain(u1, xs), u1.jet_values(xs, 1)):
            assert abs(v) <= 1e-10 * max(abs(jet))

    def test_atom_a_matches_closed_form(self):
        # a_eta^- = (d/dx - eta/x + x/2)/sqrt(2) on a seed
        f = make_seed(SPEC1)
        eta = 1.7
        chain = OperatorChain([atom_a(eta, -1)])
        xs = (0.9, 2.1)
        for x, j, v in zip(xs, f.jet_values(xs, 1), chain(f, xs)):
            ref = (j[1] + (-eta / x + x / 2) * j[0]) / math.sqrt(2)
            assert abs(v - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_hamiltonian_atom(self):
        f = make_seed(SPEC1)
        h = OperatorChain([atom_h(f.potential, shift=f.energy)])
        xs = (0.7, 1.9)
        for v, jet in zip(h(f, xs), f.jet_values(xs, 2)):
            assert abs(v) <= 1e-12 * max(abs(jet))  # (H - eps) u = 0


# The closed forms and apply bodies of the per-operator atom classes that
# `Atom` replaced, kept as the oracle for its constructors.
def _s_jet(eta, x, n):
    """Taylor series of -eta/x + x/2 at x: -eta (-1)^j / x^(j+1), plus x/2."""
    out = -eta * (-1.0 / x) ** np.arange(n + 1) / x + 0j
    out[0] += 0.5 * x
    if n >= 1:
        out[1] += 0.5
    return out


def _p_jet(ell, sign, x, n):
    """Taylor series of x^2/4 - l(l+1)/x^2 -/+ 1/2 at x: -l(l+1)(j+1)(-1)^j/x^(j+2) + ..."""
    c = ell * (ell + 1.0)
    j = np.arange(n + 1)
    out = -c * (j + 1) * (-1.0 / x) ** j / (x * x) + 0j
    out[0] += 0.25 * x * x + (-0.5 if sign > 0 else 0.5)
    if n >= 1:
        out[1] += 0.5 * x
    if n >= 2:
        out[2] += 0.25
    return out


def _first_order_ref(series, w, sign, n_out):
    d = -1.0 if sign > 0 else 1.0
    return (d * np.array(series_diff(series)[: n_out + 1])
            + series_mul(series, w, n_out)) / math.sqrt(2)


def _w_jet_ref(hi, lo, x, n):
    whi = hi.jet((x,), n + 1)[0]
    out = series_div(series_diff(whi), whi, n)
    if lo.size:
        wlo = lo.jet((x,), n + 1)[0]
        out = out - series_div(series_diff(wlo), wlo, n)
    return out


def _b_ref(ell, sign, series, x, n_out):
    s = -1.0 if sign > 0 else 1.0
    d1 = np.array(series_diff(series))
    x_d1 = x * d1[: n_out + 1]
    x_d1[1:] += d1[:n_out]  # (x0 + t) f'
    p = _p_jet(ell, sign, x, n_out)
    return 0.5 * (series_diff(d1)[: n_out + 1] + s * x_d1 + series_mul(series, p, n_out))


def _h_ref(potential, shift, series, x, n_out):
    v = taylor_from_jet(potential.deriv_jet((x,), n_out)[0])
    return (-0.5 * np.array(series_diff(series_diff(series))[: n_out + 1])
            + series_mul(series, v, n_out) - shift * series[: n_out + 1])


class TestAtomOracles:
    XS = (0.3, 1.3, 4.0)
    N_OUT = 6

    def _assert_matches(self, atom, ref, ell):
        # relative to the summands: near x = 0 the image's coefficients are
        # sums of terms far larger than themselves, so each is held to its
        # own sum of moduli (the atom with every coefficient and every
        # series entry replaced by its modulus)
        moduli = Atom(lambda xs, n: tuple(np.abs(c) for c in atom.coeffs(xs, n)),
                      atom.order, atom.div)
        u = default_test_seeds(ell)[1]
        series = u.taylor(self.XS, self.N_OUT + atom.order)
        got = atom.apply(series, self.XS, self.N_OUT)
        scale = moduli.apply(np.abs(series), self.XS, self.N_OUT).real
        assert got.shape == (len(self.XS), self.N_OUT + 1)
        for x, f, g, sc in zip(self.XS, series, got, scale):
            assert np.all(np.abs(g - ref(f, x)) <= 1e-14 * sc), x

    @pytest.mark.parametrize("ell", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_atom_a(self, ell, sign):
        for eta in (ell, -(ell + 1.0), 1.7):
            self._assert_matches(
                atom_a(eta, sign),
                lambda f, x: _first_order_ref(f, _s_jet(eta, x, self.N_OUT), sign, self.N_OUT),
                ell)

    @pytest.mark.parametrize("ell", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_atom_b(self, ell, sign):
        self._assert_matches(atom_b(ell, sign),
                             lambda f, x: _b_ref(ell, sign, f, x, self.N_OUT), ell)

    @pytest.mark.parametrize("shift", [0.0, -1.0, 0.35 - 0.2j])
    def test_atom_h(self, shift):
        # a shift on every coefficient of V, not on its constant term only,
        # shows first at output order 1
        ladder = SusyLadder(SPEC2)
        for pot in (RadialPotential(1.0), ladder.potentials[1], ladder.potentials[2]):
            self._assert_matches(atom_h(pot, shift),
                                 lambda f, x: _h_ref(pot, shift, f, x, self.N_OUT), 1.0)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_atom_susy(self, sign):
        ladder = SusyLadder(SPEC2)
        for j in (1, 2):
            hi, lo = ladder.potentials[j].stack, ladder.potentials[j - 1].stack
            self._assert_matches(
                atom_susy(hi, lo, sign),
                lambda f, x: _first_order_ref(f, _w_jet_ref(hi, lo, x, self.N_OUT), sign,
                                              self.N_OUT),
                1.0)


class TestIntertwining:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_passes(self, k):
        r = check_intertwining(SusyLadder(SeedSpec.from_nu(1.0, -0.4, 0.8, k=k)))
        assert r.passed, r.line()

    def test_corrupted_superpotential_fails(self, shift_superpotential):
        r = check_intertwining(SusyLadder(SPEC1))
        assert not r.passed
        assert r.max_error > 1e-4


class TestAlgebraChecks:
    def test_commutator(self):
        for ell in (0.0, 1.0, 3.0):
            assert check_commutator(ell).passed

    def test_factorization(self):
        for k in (1, 2, 3):
            ladder = SusyLadder(SeedSpec.from_nu(1.0, -0.4, 0.8, k=k))
            assert check_factorization(ladder).passed

    def test_shift_identities(self):
        for ell in (0.0, 1.0, 3.0):
            assert check_shift_identities(ell).passed

    def test_ladder_polynomial(self):
        for ell in (0.0, 2.0):
            assert check_ladder_polynomial(ell).passed


class TestNumberOperator:
    def test_k1_frozen_eigenvalue(self):
        # k=1, l=0, eps1=0, n=1: (3/2)(7/4)(3/4) = 63/32
        spec = SeedSpec.from_nu(0.0, 0.0, 1.0, k=1)
        r = check_number_operator(SusyLadder(spec), 1)
        assert r.passed, r.line()
        assert abs(r.details["eigenvalue"] - 63.0 / 32.0) < 1e-14

    def test_ground_annihilated(self):
        spec = SeedSpec.from_nu(0.0, 0.0, 1.0, k=1)
        r = check_number_operator(SusyLadder(spec), 0)
        assert r.passed
        assert natural_eigenvalue(spec, 0) == 0.0

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reduction_quartic(self, k, n):
        spec = SeedSpec.from_nu(1.0, -0.4, 0.8, k=k)
        r = check_number_operator(SusyLadder(spec), n)
        assert r.passed, r.line()
        assert r.details["quartic_error"] <= 1e-6
        # the quartic itself matches the closed expression
        ez = e0(1.0)
        eps_k = spec.eps1 - (k - 1)
        expected = n * (n + 2 * ez - 1) * (n + ez - spec.eps1 - 1) * (n + ez - eps_k)
        assert abs(r.details["quartic"] - expected) < 1e-12

    def test_new_level_states_annihilated(self):
        for k in (1, 2, 3):
            ladder = SusyLadder(SeedSpec.from_nu(1.0, -0.4, 0.8, k=k))
            r = check_new_level_annihilation(ladder)
            assert r.passed, r.line()


class TestLadderStacks:
    def test_each_chain_prefix_factored_once_per_x(self, monkeypatch):
        # the atoms and ratio states share the stack of each V_j
        seen = collections.Counter()
        taylor_det = WronskianStack._taylor_det

        def counted(self, x, order):
            seen[(tuple(map(id, self.solutions)), x)] += 1
            return taylor_det(self, x, order)

        monkeypatch.setattr(WronskianStack, "_taylor_det", counted)
        for check in (check_intertwining, check_new_level_annihilation):
            seen.clear()
            assert check(SusyLadder(SPEC3)).passed
            assert max(seen.values()) == 1, check.__name__


    def test_checks_of_a_spec_share_one_ladder(self, monkeypatch):
        # determinants keyed by content, not identity: a ladder per check
        # would factor the same chain prefix at the same x in each check
        # (up to 6 times); one ladder per spec leaves at most a recompute
        # at a higher order than the cached series
        seen = collections.Counter()
        taylor_det = WronskianStack._taylor_det

        def counted(self, x, order):
            members = tuple((type(s).__name__, s.ell, s.energy, getattr(s, "mixture", None))
                            for s in self.solutions)
            seen[(members, x)] += 1
            return taylor_det(self, x, order)

        monkeypatch.setattr(WronskianStack, "_taylor_det", counted)
        assert all(r.passed for r in run_all_checks())
        assert max(seen.values()) <= 2


class TestSuite:
    def test_default_suite_passes(self):
        reports = run_all_checks()
        assert reports
        for r in reports:
            assert r.passed, r.line()

    def test_deterministic_test_functions(self):
        a = default_test_seeds(1.0)
        b = default_test_seeds(1.0)
        assert [s.energy for s in a] == [s.energy for s in b]
        assert [s.mixture for s in a] == [s.mixture for s in b]
