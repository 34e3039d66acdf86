import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from susypv import oscillator, specialfunctions
from susypv.oscillator import (
    NU_INF,
    DomainError,
    SeedSolution,
    SeedSpec,
    _LadderedSolution,
    e0,
    nu_lower_bound,
    physical_eigenfunction,
    seed_chain,
)
from susypv.painleve import (
    CANONICAL_ORDERINGS,
    DegenerateOutputError,
    GridSample,
    PVParams,
    classify_degenerate,
    default_z_grid,
    normalize_ordering,
    params_from_energies,
    permute_quartet,
    pv_params,
    solution_from_quartet,
    solve,
    w_gap,
)
from susypv.susy import (
    ExtremalQuartet,
    RadialPotential,
    WronskianStack,
    extremal_quartet,
    quartet_energies,
    radial_oscillator_quartet,
)

from oracles import (
    EquationSingularityError,
    fd4_first,
    fd4_second,
    g_from_quartet,
    g_route_b,
    pv_params_exact,
    pv_residual,
)


class TestGFromQuartet:
    def test_oscillator_growing_pair(self):
        # slots 3/4 = (x^{l+1} e^{x^2/4}, x^{-l} e^{x^2/4}): h = x, g = -2x
        ell = 1.0
        f = physical_eigenfunction(4, 0, ell)
        g = physical_eigenfunction(3, 0, ell)
        q = ExtremalQuartet((f, g, f, g), "1234", RadialPotential(ell))
        for x in (0.9, 2.2):
            g0, g1, g2 = g_from_quartet(q, x)
            assert abs(g0 - (-2.0 * x)) <= 1e-10 * abs(2 * x)
            assert abs(g1 + 2.0) <= 1e-10
            assert abs(g2) <= 1e-10

    def test_derivatives_vs_finite_differences(self):
        spec = SeedSpec.from_nu(1.0, 1.0, 1.0, k=1, mode="complex-over-real")
        q = extremal_quartet(spec)
        x0, h = 1.5, 1e-3
        g0, g1, g2 = g_from_quartet(q, x0)
        gs = lambda t: g_from_quartet(q, t)[0]
        assert abs(g1 - fd4_first(gs, x0, h)) <= 1e-7 * max(1, abs(g1))
        assert abs(g2 - fd4_second(gs, x0, h)) <= 1e-7 * max(1, abs(g2))

    def test_two_route_agreement(self):
        for k in (1, 2, 3):
            spec = SeedSpec.from_nu(1.5, -0.2, NU_INF, k=k)
            chain = seed_chain(spec)
            q = extremal_quartet(spec)
            for x in (0.7, 1.3, 2.6):
                ga = g_from_quartet(q, x)[0]
                gb = g_route_b(spec, chain, x)
                assert abs(ga - gb) <= 1e-9 * max(1.0, abs(ga)), (k, x)


def paper_closed_form(ell, eps1, k) -> PVParams:
    """The paper's closed forms for the canonical ordering of the k-SUSY quartet."""
    a = (4.0 * eps1 + 2.0 * ell + 3.0) ** 2 / 32.0
    b = -((4.0 * eps1 - 4.0 * k - 2.0 * ell + 1.0) ** 2) / 32.0
    c = (2.0 * k - 2.0 * ell - 3.0) / 4.0
    return PVParams(a, b, c, -0.125)


class TestParams:
    def test_d_always(self):
        spec = SeedSpec.from_nu(1.0, 0.3, 0.7, k=1)
        q = extremal_quartet(spec)
        for lab in CANONICAL_ORDERINGS:
            assert pv_params(permute_quartet(q, lab)).d == -0.125

    def test_alpha_vs_closed_form_exact_rationals(self):
        for k in (1, 2, 3, 4):
            for ell in (F(0), F(1), F(5, 2)):
                for eps in (F(-1, 2), F(1, 4)):
                    p = pv_params_exact(ell, (eps, F(0)), k, "1234")
                    a_cf = F(
                        (4 * eps + 2 * ell + 3) ** 2, 32)
                    b_cf = -F((4 * eps - 4 * k - 2 * ell + 1) ** 2, 32)
                    c_cf = F(2 * k - 2 * ell - 3, 4)
                    assert p["a"][0] == a_cf and p["a"][1] == 0
                    assert p["b"][0] == b_cf
                    assert p["c"][0] == c_cf
                    assert p["d"][0] == F(-1, 8)

    def test_quartet_energies_give_closed_forms_exactly(self):
        for k in (1, 2, 3, 4):
            for ell in (F(0), F(1), F(5, 2)):
                for eps in (F(-1, 2), F(1, 4)):
                    p = params_from_energies(*quartet_energies(ell, eps, k))
                    assert p.a == F((4 * eps + 2 * ell + 3) ** 2, 32)
                    assert p.b == -F((4 * eps - 4 * k - 2 * ell + 1) ** 2, 32)
                    assert p.c == F(2 * k - 2 * ell - 3, 4)
                    assert p.d == F(-1, 8)

    def test_alpha_vs_closed_form_floats(self):
        spec = SeedSpec.from_nu(2.0, 0.4, 1.0, k=2)
        q = extremal_quartet(spec)
        got = pv_params(q)
        ref = paper_closed_form(2.0, 0.4, 2)
        for name in "abcd":
            assert abs(getattr(got, name) - getattr(ref, name)) <= 1e-13

    def test_fraction_alpha_route_matches_exact_oracle(self):
        # exact on Fractions, for all 24 labels (the library permutes by the
        # normalized label, the oracle by the label itself)
        for ell, eps, k in ((F(0), F(-1, 2), 1), (F(5, 2), F(3, 4), 3), (F(1), F(7, 4), 4)):
            ez = ell / 2 + F(3, 4)
            energies = [eps + 1, 1 - ez, eps - (k - 1), ez]
            for label in map("".join, itertools.permutations("1234")):
                slots = [energies[int(ch) - 1] for ch in normalize_ordering(label)]
                got = params_from_energies(*slots)
                want = pv_params_exact(ell, (eps, F(0)), k, label)
                for name in "abcd":
                    value = getattr(got, name)
                    assert isinstance(value, F), (label, name)
                    assert (value, F(0)) == want[name], (ell, eps, k, label, name)

    def test_k1_table_row_1234(self):
        # k=1, eps=E0: 8a = (2l+3)^2, 8b = 0, 4c = -2l-1
        ell = F(3)
        ez = ell / 2 + F(3, 4)
        p = pv_params_exact(ell, (ez, F(0)), 1, "1234")
        assert 8 * p["a"][0] == (2 * ell + 3) ** 2
        assert p["b"][0] == 0
        assert 4 * p["c"][0] == -2 * ell - 1

    def test_k2_table_row_1234(self):
        ell = F(1)
        e1 = ell / 2 + F(3, 4) + 1
        p = pv_params_exact(ell, (e1, F(0)), 2, "1234")
        assert 8 * p["a"][0] == (2 * ell + 5) ** 2
        assert p["b"][0] == 0
        assert 4 * p["c"][0] == -2 * ell + 1

    def test_permutation_row_3412_general(self):
        ell, eps, k = F(2), F(-1, 4), 3
        p = pv_params_exact(ell, (eps, F(0)), k, "3412")
        assert 32 * p["a"][0] == (2 * ell - 4 * eps + 4 * k - 1) ** 2
        assert 32 * p["b"][0] == -((2 * ell + 4 * eps + 3) ** 2)
        assert 4 * p["c"][0] == 2 * ell - 2 * k - 1


class TestPermute:
    def test_identity(self):
        spec = SeedSpec.from_nu(1.0, 0.3, 0.7, k=1)
        q = extremal_quartet(spec)
        p = permute_quartet(q, "1234")
        assert p.states == q.states and p.energies == q.energies

    def test_normalization(self):
        assert normalize_ordering("2134") == "1234"
        assert normalize_ordering("4132") == "1423"
        assert normalize_ordering("1243") == "1234"

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            normalize_ordering("1235")
        with pytest.raises(ValueError):
            normalize_ordering("1134")

    def test_exchange_symmetry(self):
        # 2134 must give the same params and pointwise-identical w as 1234
        spec = SeedSpec.from_nu(1.0, 1.0, 1.0, k=1, mode="complex-over-real")
        q = extremal_quartet(spec)
        s_a = solution_from_quartet(q, "1234")
        s_b = solution_from_quartet(q, "2134")
        for name in "abcd":
            assert getattr(s_a.params, name) == getattr(s_b.params, name)
        for z in (0.5, 2.0, 9.0):
            wa, wb = s_a.w_eval(z), s_b.w_eval(z)
            assert abs(wa.w - wb.w) <= 1e-12 * max(1.0, abs(wa.w))


class TestPVResidual:
    def test_fabricated_rhs_gives_zero(self):
        params = PVParams(0.3, -0.2, 0.1, -0.125)
        w, wz, z = 0.7 + 0.2j, 0.1 - 0.3j, 2.0
        rhs = ((0.5 / w + 1.0 / (w - 1.0)) * wz * wz - wz / z
               + (w - 1.0) ** 2 / (z * z) * (params.a * w + params.b / w)
               + params.c * w / z + params.d * w * (w + 1.0) / (w - 1.0))
        assert pv_residual(w, wz, rhs, z, params) <= 1e-15

    def test_equation_singularity(self):
        params = PVParams(0.3, -0.2, 0.1, -0.125)
        with pytest.raises(EquationSingularityError):
            pv_residual(1.0 + 1e-12j, 0.1, 0.1, 2.0, params)

    def test_known_rational_solution(self):
        # w = 1 + z/(2l+1-z) with the k=1, eps=E0 ordering-1423 parameters
        ell = 1.0
        params = params_from_energies(e0(ell) + 1.0, e0(ell), 1.0 - e0(ell), e0(ell))
        for z in np.linspace(0.2, 18.0, 40):
            if abs(z - (2 * ell + 1)) < 0.3:
                continue
            w = 1.0 + z / (2 * ell + 1.0 - z)
            wz = (2 * ell + 1.0) / (2 * ell + 1.0 - z) ** 2
            wzz = 2.0 * (2 * ell + 1.0) / (2 * ell + 1.0 - z) ** 3
            assert pv_residual(w, wz, wzz, float(z), params) <= 1e-12

    def test_matches_certificate_residual(self):
        # one PV right-hand side: the public residual of a certified
        # sample is the residual the certificate recorded
        sol = solve(SeedSpec.from_nu(1.0, 1.0, 1.0, k=1, mode="complex-over-real"))
        z = 2.3
        s = sol.w_eval(z)
        assert s.flag == "ok"
        assert abs(pv_residual(s.w, s.w_z, s.w_zz, z, sol.params) - s.residual) <= 1e-14


class TestClassify:
    def test_table1_degenerates(self):
        ell = 1.0
        spec = SeedSpec.from_nu(ell, e0(ell), NU_INF, k=1, mode="complex-over-real")
        q = extremal_quartet(spec)
        assert classify_degenerate(permute_quartet(q, "1234")) == "w==1"
        assert classify_degenerate(permute_quartet(q, "3412")) == "w==inf"
        assert classify_degenerate(permute_quartet(q, "1423")) == "generic"

    def test_radial_oscillator_0_shift(self):
        q = radial_oscillator_quartet(1.0)
        assert classify_degenerate(permute_quartet(q, "1234")) == "w==0-shift"

    def test_table2_3412_infinite(self):
        ell = 1.0
        spec = SeedSpec.from_nu(ell, e0(ell) + 1.0, NU_INF, k=2,
                                mode="complex-over-real")
        q = extremal_quartet(spec)
        assert classify_degenerate(permute_quartet(q, "3412")) == "w==inf"


class TestWEval:
    def test_half_for_growing_pair(self):
        ell = 1.0
        f = physical_eigenfunction(4, 0, ell)
        g = physical_eigenfunction(3, 0, ell)
        q = ExtremalQuartet((f, g, f, g), "1234", RadialPotential(ell))
        sol = solution_from_quartet(q, "1234")
        # w = 1 + x/(-2x) = 1/2 for all z; constant, hence degenerate
        assert sol.classification == "w==const"

    def test_pole_flagging_no_nan(self):
        # near-bound nu at k=2 leaves a node of W_2 inside the window, so
        # w picks up a pole there; it must be flagged, never NaN
        ell = 0.0
        eps = e0(ell) - 1.3
        nb = nu_lower_bound(ell, eps)
        spec = SeedSpec.from_nu(ell, eps, nb + 0.2, k=2)
        sol = solve(spec)
        saw_pole = False
        for z in default_z_grid(300):
            s = sol.w_eval(float(z))
            if s.flag != "ok":
                saw_pole = True
                assert s.residual is None
            else:
                assert np.isfinite(s.residual)
                assert np.isfinite(s.w.real) and np.isfinite(s.w.imag)
        assert saw_pole

    def test_grid_sample_invariant(self):
        spec = SeedSpec.from_nu(1.0, 1.0, 1.0, k=1, mode="complex-over-real")
        sol = solve(spec)
        for z in (0.3, 1.0, 5.0):
            s = sol.w_eval(z)
            assert (s.residual is not None) == (s.flag == "ok")


def _ok_samples(ws, flags=None):
    """GridSamples at z = 1, 2, ... holding ws, flagged ok unless flags says otherwise."""
    flags = flags or ["ok"] * len(ws)
    return [GridSample(float(z), complex(w), 0.0 if f == "ok" else None, f)
            for z, (w, f) in enumerate(zip(ws, flags), start=1)]


class TestWGap:
    def test_each_form_exception_skips_its_point(self):
        def form(z):
            for at, exc in ((1.0, ZeroDivisionError), (2.0, OverflowError), (3.0, ValueError)):
                if z == at:
                    raise exc("printed form undefined here")
            return 2.5 if z == 4.0 else 2.0

        # three of six points left is half, not fewer
        assert w_gap(_ok_samples([2.0] * 6), form) == pytest.approx(0.2)

    def test_none_below_half_coverage(self):
        def form(z):
            if z <= 2.0:
                raise ZeroDivisionError
            return 2.0

        # two skipped points and two masked ones leave two of six samples
        flags = ["ok", "ok", "pole", "pole", "ok", "ok"]
        assert w_gap(_ok_samples([2.0] * 6, flags), form) is None
        assert w_gap(_ok_samples([2.0] * 6), form) == 0.0
        assert w_gap([], form) is None

    def test_error_relative_to_printed_value(self):
        # |form| < 1: the absolute gap; |form| > 1: relative to the printed value
        assert w_gap(_ok_samples([0.5]), lambda z: 0.25) == pytest.approx(0.25)
        assert w_gap(_ok_samples([30.0]), lambda z: 20.0) == pytest.approx(0.5)


class TestKOneClosedRoute:
    def test_w_from_seed_logderivative(self):
        # independent k=1 route: w(z) = 1 + 2 z u / (2 sqrt(z) u' - (z+2l+2) u)
        # evaluated straight from the seed, no Wronskians involved
        from susypv.oscillator import make_seed

        for ell, eps, nu in ((1.0, 1.0, 1.0), (2.0, 0.4, 0.8), (0.0, -0.55, 2.0)):
            spec = SeedSpec.from_nu(ell, eps, nu, k=1, mode="complex-over-real")
            u = make_seed(spec)
            sol = solve(spec)
            for z in (0.4, 1.7, 6.0, 15.0):
                x = math.sqrt(z)
                uv, ud = u.value_and_derivative((x,))[0]
                ref = 1.0 + 2 * z * uv / (2 * x * ud - (z + 2 * ell + 2) * uv)
                s = sol.w_eval(z)
                if s.flag != "ok":
                    continue
                assert abs(s.w - ref) <= 1e-10 * max(1.0, abs(ref)), (ell, z)


class TestNonFinitePoints:
    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_domain_error_before_evaluation(self, z):
        # NaN and inf fail the domain check before any 1F1 is summed
        sol = solve(SeedSpec.from_nu(1.0, 1.0, 1.0, k=1, mode="complex-over-real"))
        with pytest.raises(DomainError):
            sol.w_eval(z)
        with pytest.raises(DomainError):
            sol.residual_certificate([1.0, z])


class TestWDerivatives:
    def test_w_z_and_w_zz_vs_finite_differences(self):
        sol = solve(SeedSpec.from_nu(1.0, 1.0, 1.0, k=1, mode="complex-over-real"))
        z0, h = 2.3, 1e-4
        wfun = lambda z: sol.w_eval(z).w
        s = sol.w_eval(z0)
        assert abs(s.w_z - fd4_first(wfun, z0, h)) <= 1e-8 * max(1.0, abs(s.w_z))
        assert abs(s.w_zz - fd4_second(wfun, z0, h)) <= 1e-6 * max(1.0, abs(s.w_zz))


class TestConcurrency:
    def test_concurrent_evaluations_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        sol = solve(SeedSpec.from_nu(2.0, 0.2, 1.5, k=2))
        zs = [float(z) for z in np.geomspace(0.2, 15.0, 40)]
        serial = [sol.w_eval(z).w for z in zs]
        sol2 = solve(SeedSpec.from_nu(2.0, 0.2, 1.5, k=2))
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda z: sol2.w_eval(z).w, zs))
        assert all(abs(a - b) <= 1e-12 * max(1.0, abs(a))
                   for a, b in zip(serial, parallel))


class TestCallBudget:
    # each seed and ladder member is evaluated once per grid, and each
    # stack is factored once per grid
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {}

        def count(cls, name):
            inner = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[cls] = calls.get(cls, 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        count(SeedSolution, "value_and_derivative")
        count(_LadderedSolution, "value_and_derivative")
        count(WronskianStack, "_taylor_det")
        kummer = specialfunctions.kummer_1f1

        def kummer_1f1(*args):
            calls["kummer_1f1"] = calls.get("kummer_1f1", 0) + 1
            return kummer(*args)

        for module in (specialfunctions, oscillator):  # every name the library calls it by
            monkeypatch.setattr(module, "kummer_1f1", kummer_1f1)
        return calls

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_certificate_call_counts(self, k, calls):
        # one grid; three stacks: the chain (for V_k and both slot
        # denominators) and the two slot numerators (psi3's is the empty
        # stack at k = 1, a 0 x 0 series LU that returns 1)
        sol = solve(SeedSpec.from_nu(2.0, 0.45, 3.0, k=k))
        calls.clear()
        sol.residual_certificate()
        assert calls.get(SeedSolution, 0) == 1
        assert calls.get("kummer_1f1", 0) == 1  # every 1F1 row of the seed on the whole grid
        assert calls.get(_LadderedSolution, 0) == k - 1
        assert calls.get(WronskianStack, 0) == 3

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_construction_call_counts(self, k, calls):
        # two grids: is_zero's four probes (slot numerators 3 and 4) and
        # classify_degenerate's window (the chain and both slot numerators)
        solve(SeedSpec.from_nu(2.0, 0.45, 3.0, k=k))
        assert calls.get(SeedSolution, 0) == 2
        assert calls.get(_LadderedSolution, 0) == 2 * (k - 1)
        assert calls.get(WronskianStack, 0) == 5

    def test_verify_factorization_count(self, calls):
        # each check evaluates its three sample points as one grid, and the
        # checks on one l share its test seeds: 4 values of l x 3 seeds and
        # the seeds of the 3 ladders, each evaluated once
        from susypv.operators import default_test_seeds, run_all_checks

        default_test_seeds.cache_clear()
        run_all_checks()
        assert calls.get(WronskianStack, 0) == 23
        assert calls.get(SeedSolution, 0) == 15


class TestSolve:
    def test_figure_regime_pole_free(self):
        # l=1, eps1=1, nu=1, k=1: bounded and pole-free on the window
        sol = solve(SeedSpec.from_nu(1.0, 1.0, 1.0, k=1))
        max_res, samples = sol.residual_certificate(default_z_grid(200, 0.1, 10.0))
        assert max_res <= 1e-8
        assert all(s.flag == "ok" for s in samples)
        assert max(abs(s.w) for s in samples) < 50.0

    def test_complex_mixture_regime(self):
        sol = solve(SeedSpec.from_lambda_kappa(3.0, 0.0, 0.0, 100.0, k=1))
        max_res, samples = sol.residual_certificate()
        assert max_res <= 1e-8
        assert any(abs(s.w.imag) > 1e-6 for s in samples if s.flag == "ok")
        for name in "abc":
            assert abs(getattr(sol.params, name).imag) < 1e-12

    def test_degenerate_raises(self):
        spec = SeedSpec.from_nu(1.0, e0(1.0), NU_INF, k=1, mode="complex-over-real")
        with pytest.raises(DegenerateOutputError):
            solve(spec)
        sol = solve(spec, allow_degenerate=True)
        assert sol.classification == "w==1"

    def test_alpha_route_closed_form_guard(self):
        sol = solve(SeedSpec.from_nu(2.0, 0.2, 1.5, k=3))
        ref = paper_closed_form(2.0, 0.2, 3)
        for name in "abcd":
            assert abs(getattr(sol.params, name) - getattr(ref, name)) <= 1e-12

    def test_alpha_route_guard_sees_a_shifted_energy(self, monkeypatch):
        def shifted(ell, eps1, k):
            e1, e2, ek, ez = quartet_energies(ell, eps1, k)
            return e1, e2, ek + 1e-6, ez

        monkeypatch.setattr("susypv.painleve.quartet_energies", shifted)
        with pytest.raises(AssertionError, match="alpha-route"):
            solve(SeedSpec.from_nu(2.0, 0.2, 1.5, k=3))

    def test_boundary_ell_values(self):
        # l = -1/2 (degenerate branches: single-branch seed) and the
        # interval (-1/2, 0) are allowed; no self-adjoint-extension
        # modeling, just residual-certified transcendents
        for ell in (-0.5, -0.25):
            spec = SeedSpec(ell, e0(ell) - 1.1, (1.0, 0.0), 1, "complex-over-real")
            sol = solve(spec)
            max_res, _ = sol.residual_certificate(default_z_grid(60))
            assert max_res <= 1e-8, ell
