"""Acceptance suite: one test (or parametrized clause) per criterion.

Each criterion runs at its stated tolerance and prints a PASS/FAIL line.
Clauses that compare against the paper's printed tables keep the printed
values verbatim (``susypv.tables`` and ``_PRINTED_COMPLEX`` below). Nine
printed entries are not consistent PV data. ``ERRATA`` lists each with
its corrected entry and the evidence, and its clause asserts both facts:
the printed entry fails a check that does not use the library (a
50-digit PV residual from ``oracles.mp_pv_residual``, or exact rational
arithmetic), and the corrected entry holds, for that check and for the
machinery. Every printed entry outside ``ERRATA`` must match the
machinery verbatim.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np
import pytest

from susypv.hierarchies import crosscheck, detect
from susypv.operators import (
    SusyLadder,
    check_commutator,
    check_factorization,
    check_intertwining,
    check_ladder_polynomial,
    check_new_level_annihilation,
    check_number_operator,
    check_shift_identities,
)
from susypv.oscillator import NU_INF, SeedSpec, e0, nu_lower_bound
from susypv.painleve import CANONICAL_ORDERINGS, default_z_grid, solve
from susypv.specialfunctions import bessel_i, gamma, kummer_1f1, laguerre_l
from susypv.tables import (
    PERMUTATION_PARAMS,
    ksusy_exact_params,
    reproduce_table,
    table_param_entries,
    table_w_cells,
)

from oracles import mp_bessel_i, mp_hyp1f1, mp_pv_residual, pv_params_exact


def _e(x) -> str:
    return "n/a" if x is None else f"{x:.1e}"


def _line(criterion: str, passed: bool, detail: str) -> str:
    tag = "PASS" if passed else "FAIL"
    msg = f"[{criterion}] {tag} {detail}"
    print(msg)
    return msg


# -- criterion 1: residual certificate over the regression matrix -----------


def test_criterion_1_residual_certificate():
    t0 = time.time()
    worst = 0.0
    worst_case = None
    for k in (1, 2, 3):
        for ell in (0.0, 1.0, 2.0, 5.0):
            eps1 = e0(ell) - 1.3
            nb = nu_lower_bound(ell, eps1)
            for dn in (0.2, 1.0, 10.0):
                spec = SeedSpec.from_nu(ell, eps1, nb + dn, k=k)
                sol = solve(spec)
                assert sol.classification == "generic"
                max_res, _ = sol.residual_certificate(default_z_grid(200, 0.1, 20.0))
                if max_res > worst:
                    worst, worst_case = max_res, (k, ell, dn)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _line("criterion-1", ok,
          f"36 solves, worst masked-grid residual {worst:.2e} at {worst_case}, "
          f"{elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


# -- errata of the printed tables ---------------------------------------------


@dataclass(frozen=True)
class Erratum:
    """A printed table entry that is not consistent PV data, and its fix."""

    printed: str
    corrected: str
    evidence: str


# Keyed by the clause (test node name) that asserts the erratum. The
# printed values stay verbatim in susypv.tables and _PRINTED_COMPLEX.
ERRATA = {
    "test_criterion_2_closed_form_w_rows[t0-1423]": Erratum(
        printed="w = 1 + z/(2l-1)",
        corrected="w = 1 + (2l+1-z)/2, the 'derived' cell",
        evidence="under the row's own (8a, 8b, 4c) = (4, -(2l+3)^2, 2l-1) the "
                 "printed cell leaves a 50-digit PV residual of 0.49-1.0 at "
                 "l = 1, 3/2, 2, 3; the corrected cell follows from "
                 "W(psi_2, psi_3) = e^{-x^2/2}((2l+1)(l+3/2) - (2l+3)x^2/2) and "
                 "leaves <= 1e-49"),
    "test_criterion_2_closed_form_w_rows[t0-2413]": Erratum(
        printed="w = 1 + (1-2l-z)/2",
        corrected="w = 1 - z/(2l+3), the 'derived' cell",
        evidence="under the row's own (8a, 8b, 4c) = ((2l+3)^2, -4, -2l-3) the "
                 "printed cell leaves a 50-digit PV residual of 1.0 at "
                 "l = 1, 3/2, 2, 3; the corrected cell follows from "
                 "W(psi_1, psi_3) = -x^{2l+3} e^{-x^2/2} and leaves <= 1e-49"),
    "test_criterion_2_closed_form_w_rows[t1-2413]": Erratum(
        printed="w = 1 + z P3(z)/Q4(z), table_w_cells('t1', l)['2413']['paper']",
        corrected="w = 2/(z-2l-1), the 'derived' cell",
        evidence="under the row's own (8a, 8b, 4c) = ((2l+1)^2, -4, -2l-5) the "
                 "printed cell leaves a 50-digit PV residual of 0.4-1.0 at "
                 "l = 1, 2, 3, 5 (it holds only at l = 0); the corrected cell "
                 "leaves ~1e-50"),
    "test_criterion_2_closed_form_w_rows[t1-3412]": Erratum(
        printed="w = 1 + z(8l^3 + 4l^2 - 2l(2 + 5z^2) - 15z^2)/(16l(2l^2 + l - 1))",
        corrected="w == inf",
        evidence="the printed cell leaves a PV residual of 1.3-2.0 at l = 1, 2, "
                 "3, 5 under (0, -(2l+3)^2, 2l-3); w == inf is a formal PV "
                 "solution exactly when a = 0, and this row prints 8a = 0; "
                 "Tables 0 and 2 print w == inf for their 3412 rows, which have "
                 "the same a = 0. Nothing else in the repo settles this entry"),
    "test_criterion_2_closed_form_w_rows[t2-1423]": Erratum(
        printed="w = 4(z-2l-3)/(z^2 - 2(2l+1)z + 4l^2 + 8l + 3)",
        corrected="w = (2l+1)(2l+3-z)/(z^2 - 2(2l+1)z + 4l(l+2) + 3), the "
                  "'derived' cell",
        evidence="the two printed k=2 cells are interchanged: this row's printed "
                 "cell is the corrected 2413 entry and leaves a PV residual of "
                 "1.0-1.1 under (16, -(2l+1)^2, 2l+3) at l = 1, 2, 3, 5"),
    "test_criterion_2_closed_form_w_rows[t2-2413]": Erratum(
        printed="w = (2l+1)(2l+3-z)/(z^2 - 2(2l+1)z + 4l(l-2) + 3)",
        corrected="w = 4(z-2l-3)/(z^2 - 2(2l+1)z + 4l^2 + 8l + 3), the "
                  "'derived' cell",
        evidence="interchanged with the printed 1423 cell, and its denominator "
                 "reads 4l(l-2) for 4l(l+2); it leaves a PV residual of 0.97-1.4 "
                 "under ((2l+1)^2, -16, -2l-7) at l = 1, 2, 3, 5"),
    "test_criterion_2_permutation_table_exact[2314]": Erratum(
        printed="4c = -2l-2k-1",
        corrected="4c = -2l-2k-3",
        evidence="the printed 4c is +2 off the alpha route at every sample and "
                 "contradicts the paper's own Table 1 (k=1: -2l-5) and Table 2 "
                 "(k=2: -2l-7); 32a and 32b agree verbatim"),
    "test_criterion_3_complex_parameter_values[a]": Erratum(
        printed="a = (13/4 + 33i/4)^2/2 = -115/4 + 429i/16",
        corrected="a = (eps1 + E0)^2/2 = -1767/32 + 143i/4",
        evidence="the printed b = 1911/32 + 55i/4 is -(E0 - eps1)^2/2, ordering "
                 "1234 at l = 3, eps1 = 1+11i, which gives the corrected a; an "
                 "exact search at eps1 = 1+11i over l in {0, 1/2, ..., 8}, "
                 "k <= 6 and the six orderings never gives the printed a"),
    "test_criterion_3_complex_parameter_values[c]": Erratum(
        printed="c = 49/4 = (-7/2)^2",
        corrected="c = (1 - 2E0)/2 = -7/4",
        evidence="ordering 1234 at l = 3, eps1 = 1+11i gives the printed b and "
                 "the corrected c; the same exact search never gives the "
                 "printed c"),
}


# -- criterion 2: table reproduction -----------------------------------------

_W_ROWS = [("t0", "1423"), ("t0", "2413"),
           ("t1", "1423"), ("t1", "2413"), ("t1", "3412"),
           ("t2", "1423"), ("t2", "2413")]

_ORACLE_Z = ("0.77", "1.93", "3.31", "7.13", "13.07")


def _oracle_residual(form, which, label, ell):
    """Worst 50-digit PV residual of a w cell under its row's printed
    (8a, 8b, 4c), over _ORACLE_Z."""
    e8a, e8b, e4c = table_param_entries(which, F(ell))[label]
    return float(max(mp_pv_residual(form, z, e8a / 8, e8b / 8, e4c / 4)
                     for z in _ORACLE_Z))


@pytest.mark.parametrize("which,label", _W_ROWS, ids=[f"{w}-{l}" for w, l in _W_ROWS])
def test_criterion_2_closed_form_w_rows(which, label, request):
    """Printed w(z) cells vs machinery at 50 points and vs the PV oracle.

    A row outside ERRATA must satisfy PV under its printed parameters
    (oracle residual <= 1e-30) and match the machinery to <= 1e-9. A row
    in ERRATA must fail the oracle (>= 1e-2) while its corrected entry
    holds: the derived cell satisfies PV (<= 1e-25) and the machinery
    matches it (<= 1e-9) with residual <= 1e-8, or, for the w == inf
    correction, the row prints 8a = 0 and the machinery classifies w == inf.
    """
    erratum = ERRATA.get(request.node.name)
    failures, details = [], []
    for ell in (1, 2):
        rep = reproduce_table(which, float(ell), n_points=50)
        row = {r.label: r for r in rep.rows}[label]
        cell = table_w_cells(which, float(ell))[label]
        printed_res = _oracle_residual(cell["paper"], which, label, ell)
        if erratum is None:
            details.append(f"l={ell}: printed cell oracle residual {printed_res:.1e}, "
                           f"machinery error {_e(row.w_error_paper)}")
            if printed_res > 1e-30 or row.w_status != "matched":
                failures.append(details[-1])
        elif erratum.corrected == "w == inf":
            e8a = table_param_entries(which, F(ell))[label][0]
            details.append(f"l={ell}: printed cell oracle residual {printed_res:.2f}, "
                           f"printed 8a = {e8a}, machinery {row.classification}")
            if printed_res < 1e-2 or e8a != 0 or row.classification != "w==inf":
                failures.append(details[-1])
        else:
            derived_res = _oracle_residual(cell["derived"], which, label, ell)
            details.append(f"l={ell}: printed cell oracle residual {printed_res:.2f}, "
                           f"corrected cell oracle residual {derived_res:.1e}, "
                           f"machinery error vs corrected {_e(row.w_error_derived)}, "
                           f"machinery residual {_e(row.machinery_residual)}")
            if (printed_res < 1e-2 or derived_res > 1e-25
                    or row.w_error_derived is None or row.w_error_derived > 1e-9
                    or row.machinery_residual is None
                    or row.machinery_residual > 1e-8):
                failures.append(details[-1])
    ok = not failures
    what = "printed cell" if erratum is None else f"erratum -> {erratum.corrected}"
    _line("criterion-2-w", ok, f"{which} row {label} {what}: " + " | ".join(details))
    why = ("printed cell not reproduced" if erratum is None else
           f"erratum does not hold ({erratum.printed} -> {erratum.corrected}; "
           f"{erratum.evidence})")
    assert ok, f"{which} row {label}: {why}; {' | '.join(failures)}"


def test_criterion_2_k_table_params_exact():
    for which in ("t0", "t1", "t2"):
        for ell in (F(0), F(1), F(2), F(5)):
            rep = reproduce_table(which, float(ell), n_points=8)
            for row in rep.rows:
                assert row.params_exact, (which, ell, row.label)
    _line("criterion-2-params", True, "Tables 0-2: all 8a/8b/4c entries exact "
                                      "as rationals at l in {0,1,2,5}")


_PERM_LABELS = ["1234", "1324", "1423", "2314", "2413", "3412"]


@pytest.mark.parametrize("label", _PERM_LABELS)
def test_criterion_2_permutation_table_exact(label, request):
    """Six-permutation table vs the alpha route, exactly as rationals.

    For the 2314 erratum the printed 4c must sit exactly +2 off the
    corrected -2l-2k-3, which must equal the alpha route and the Table-1
    (k=1) and Table-2 (k=2) entries; 32a and 32b stay verbatim.
    """
    erratum = ERRATA.get(request.node.name)

    def corrected(ell, k):
        return -2 * ell - 2 * k - 3

    bad = []
    for ell in (F(0), F(1), F(5, 2), F(5)):
        for eps in (F(-1, 2), F(0), F(3, 4)):
            for k in (1, 2, 3, 4):
                pub = PERMUTATION_PARAMS(label, ell, eps, k)
                got = ksusy_exact_params(label, ell, eps, k)
                want = pub
                if erratum is not None:
                    want = (pub[0], pub[1], corrected(ell, k))
                    if pub[2] - want[2] != 2:
                        bad.append(f"printed 4c {pub[2]} is not the corrected 4c + 2 "
                                   f"at l={ell}, eps={eps}, k={k}")
                if tuple(got) != tuple(want):
                    bad.append(f"alpha route {got} != {want} at l={ell}, eps={eps}, k={k}")
        if erratum is not None:
            # Tables 1 and 2 are the k=1, eps1=E0 and k=2, eps1=E0+1 cases
            ez = ell / 2 + F(3, 4)
            for which, k in (("t1", 1), ("t2", 2)):
                e8a, e8b, e4c = table_param_entries(which, ell)[label]
                pub = PERMUTATION_PARAMS(label, ell, ez + k - 1, k)
                if (pub[0], pub[1], corrected(ell, k)) != (4 * e8a, 4 * e8b, e4c):
                    bad.append(f"corrected entry differs from Table {which} at l={ell}")
    ok = not bad
    detail = f"row {label}"
    if erratum is not None:
        detail += (f" erratum {erratum.printed} -> {erratum.corrected}: printed off "
                   f"by +2, alpha route error 0, Table 1/2 agree")
    _line("criterion-2-permutation-table", ok,
          detail if ok else f"row {label} -- " + "; ".join(bad[:3]))
    why = "" if erratum is None else f"erratum does not hold ({erratum.evidence}); "
    assert ok, f"six-permutation table row {label}: {why}" + "; ".join(bad[:3])


def test_criterion_2_residual_certified_rows():
    for ell in (1.0, 2.0):
        rep = reproduce_table("t0", ell, n_points=50)
        rows = {r.label: r for r in rep.rows}
        for lab in ("1324", "2314"):
            assert rows[lab].w_status == "residual-certified"
            assert rows[lab].machinery_residual <= 1e-8
    _line("criterion-2-residual-rows", True,
          "Table-0 incomplete-gamma rows residual-certified (<= 1e-8)")


# -- criterion 3: complex regimes ---------------------------------------------


def test_criterion_3_complex_mixture_regimes():
    cases = [
        ("l=3 eps=0 kappa=100", SeedSpec.from_lambda_kappa(3.0, 0.0, 0.0, 100.0)),
        ("l=2 eps=2 kappa=G(-1/4)/G(7/4)",
         SeedSpec.from_lambda_kappa(2.0, 2.0, 0.0, (gamma(-0.25) / gamma(1.75)).real)),
    ]
    for name, spec in cases:
        sol = solve(spec)
        max_res, _ = sol.residual_certificate()
        assert max_res <= 1e-8, name
        # real parameters, equal to the closed forms
        ez, eps = e0(spec.ell), complex(spec.eps1)
        assert abs(sol.params.a - (eps + ez) ** 2 / 2) <= 1e-12
        assert abs(sol.params.b + (ez - eps) ** 2 / 2) <= 1e-12
        assert abs(sol.params.c - (1 - 2 * ez) / 2) <= 1e-12
        assert abs(sol.params.a.imag) <= 1e-12
    _line("criterion-3-mixtures", True,
          "complex-mixture regimes: residual <= 1e-8, real parameters exact")


def _complex_eps_solution():
    spec = SeedSpec.from_nu(3.0, 1 + 11j, 100j, k=1)
    return solve(spec)


def test_criterion_3_complex_eps_residual():
    sol = _complex_eps_solution()
    max_res, _ = sol.residual_certificate()
    _line("criterion-3-residual", max_res <= 1e-8,
          f"l=3 eps1=1+11i: residual {max_res:.2e}")
    assert max_res <= 1e-8


_PRINTED_COMPLEX = {
    "a": complex(-115 / 4, 429 / 16),
    "b": complex(1911 / 32, 55 / 4),
    "c": complex(49 / 4, 0),
}


@pytest.mark.parametrize("name", ["a", "b", "c"])
def test_criterion_3_complex_parameter_values(name, request):
    """Printed complex parameters at l=3, eps1=1+11i vs the machinery.

    For an erratum the machinery must equal the corrected closed form to
    1e-12, and no quartet ordering at l=3, k=1 may give the printed value
    in exact arithmetic.
    """
    sol = _complex_eps_solution()
    got = complex(getattr(sol.params, name))
    printed = _PRINTED_COMPLEX[name]
    erratum = ERRATA.get(request.node.name)
    if erratum is None:
        ok = abs(got - printed) <= 1e-12 * max(1.0, abs(printed))
        _line("criterion-3-params", ok,
              f"{name}: machinery {got:.6g}, printed {printed:.6g}")
        assert ok, f"printed {name}={printed} is not reproduced (machinery gives {got})"
        return
    ez, eps = e0(3.0), 1 + 11j
    want = {"a": (eps + ez) ** 2 / 2, "c": (1 - 2 * ez) / 2}[name]
    err = abs(got - want)
    exact_printed = (F(printed.real), F(printed.imag))
    hits = [lab for lab in CANONICAL_ORDERINGS
            if pv_params_exact(F(3), (F(1), F(11)), 1, lab)[name] == exact_printed]
    ok = err <= 1e-12 * max(1.0, abs(want)) and not hits
    _line("criterion-3-params", ok,
          f"{name}: erratum {erratum.printed} -> {erratum.corrected}; machinery "
          f"{got:.6g}, error vs corrected {err:.1e}; orderings giving the printed "
          f"value: {hits or 'none'}")
    assert ok, (f"{name}: erratum does not hold ({erratum.evidence}); machinery "
                f"{got}, error vs corrected {err:.1e}; orderings at l=3, k=1 giving "
                f"the printed {printed}: {hits or 'none'}")


# -- criterion 4: operator-identity suite -------------------------------------


def test_criterion_4_operator_identities():
    worst = 0.0
    for k in (1, 2, 3):
        ladder = SusyLadder(SeedSpec.from_nu(1.0, -0.4, 0.8, k=k))
        for rep in (check_intertwining(ladder), check_factorization(ladder),
                    check_new_level_annihilation(ladder)):
            assert rep.passed, rep.line()
            worst = max(worst, rep.max_error)
    for ell in (0.0, 1.0, 3.0):
        for rep in (check_commutator(ell), check_shift_identities(ell),
                    check_ladder_polynomial(ell)):
            assert rep.passed, rep.line()
            worst = max(worst, rep.max_error)
    for n in (0, 1, 2):
        rep = check_number_operator(SusyLadder(SeedSpec.from_nu(0.0, -0.55, 1.0, k=1)), n)
        assert rep.passed, rep.line()
        worst = max(worst, rep.max_error)
    _line("criterion-4-identities", True,
          f"intertwining/commutator/factorization/number-operator all <= 1e-6 "
          f"(worst {worst:.2e})")


def test_criterion_4_reduction_quartic():
    worst = 0.0
    for k in (2, 3):
        spec = SeedSpec.from_nu(1.0, -0.4, 0.8, k=k)
        for n in (1, 2, 3, 4):
            rep = check_number_operator(SusyLadder(spec), n)
            assert rep.passed, rep.line()
            worst = max(worst, rep.details["quartic_error"])
    _line("criterion-4-quartic", True,
          f"measured L+L- eigenvalue / P^2 equals the reduced quartic for "
          f"k=2,3 at n=1..4 (worst {worst:.2e})")


# -- criterion 5: special-function oracles ------------------------------------


def test_criterion_5_special_function_oracles():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        a = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        b = complex(rng.uniform(0.4, 4), rng.uniform(-1, 1))
        x = complex(rng.uniform(-9, 9), rng.uniform(-4, 4))
        ref = complex(mp_hyp1f1(a, b, x))
        worst = max(worst, abs(kummer_1f1(a, b, x) - ref) / max(1e-30, abs(ref)))
    assert worst <= 1e-11
    worst_i = 0.0
    for mu, x in ((2.0, 3.7), (0.5, 12.0), (-0.75, 2.0), (4.0, 30.0)):
        ref = complex(mp_bessel_i(mu, x))
        worst_i = max(worst_i, abs(bessel_i(mu, x) - ref) / abs(ref))
    assert worst_i <= 1e-11
    worst_k = 0.0
    for _ in range(50):
        a = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        b = complex(rng.uniform(0.5, 4), rng.uniform(-1, 1))
        x = complex(rng.uniform(-10, 10), rng.uniform(-3, 3))
        d = kummer_1f1(a, b, x) - np.exp(x) * kummer_1f1(b - a, b, -x)
        worst_k = max(worst_k, abs(d) / max(1.0, abs(kummer_1f1(a, b, x))))
    assert worst_k <= 1e-11
    worst_l = 0.0
    for n in range(9):
        alpha = rng.uniform(-0.9, 2.5)
        x = complex(rng.uniform(0, 5), rng.uniform(-2, 2))
        poch = 1.0
        for j in range(n):
            poch *= alpha + 1 + j
        ref = poch / math.factorial(n) * kummer_1f1(-n, alpha + 1.0, x)
        worst_l = max(worst_l, abs(laguerre_l(n, alpha, x) - ref) / max(1.0, abs(ref)))
    assert worst_l <= 1e-11
    _line("criterion-5", True,
          f"1F1 vs oracle {worst:.1e}; I_mu vs oracle {worst_i:.1e}; "
          f"Kummer transform {worst_k:.1e}; Laguerre identity {worst_l:.1e}")


# -- criterion 6: hierarchy cross-checks --------------------------------------


def test_criterion_6_hierarchies():
    notes = []
    # polynomial and exponential must match the machinery
    rep = crosscheck(SeedSpec.from_nu(2.0, 0.75, 0.0))
    assert rep.matched_forms and rep.matched_forms[0].error <= 1e-9
    notes.append(f"polynomial matched ({rep.matched_forms[0].convention}, "
                 f"{rep.matched_forms[0].error:.1e})")
    rep = crosscheck(SeedSpec.from_nu(0.5, 0.0, NU_INF, mode="complex-over-real"))
    matched = [f for f in rep.matched_forms]
    assert matched and min(f.error for f in matched) <= 1e-9
    assert rep.machinery_residual <= 1e-8
    notes.append(f"exponential form {matched[0].form} matched "
                 f"({matched[0].error:.1e}); form 0 recorded unmatched")
    # hermite / laguerre / bessel: matched with recorded convention, or
    # recorded loudly with the machinery output residual-certified
    for name, spec in (
        ("hermite", SeedSpec.from_nu(0.0, 1.25, 0.0, mode="complex-over-real")),
        ("laguerre", SeedSpec.from_nu(2.0, 0.25, 0.0)),
        ("bessel", SeedSpec.from_nu(1.0, 0.0, 0.0)),
    ):
        rep = crosscheck(spec)
        assert rep.tag.family == name
        assert rep.machinery_residual <= 1e-8, name
        assert rep.form_results, name
        for fm in rep.form_results:
            assert fm.matched or fm.error is not None  # no silent pass
        got = [f"form{f.form}:{'ok' if f.matched else f'unmatched({f.error:.0e})'}"
               for f in rep.form_results]
        notes.append(f"{name} " + ",".join(got))
    # weber: residual only
    rep = crosscheck(SeedSpec.from_nu(0.0, 0.37, 0.0, mode="complex-over-real"))
    assert rep.tag.family == "weber"
    assert rep.form_results == []
    assert rep.machinery_residual <= 1e-8
    notes.append(f"weber residual-certified ({rep.machinery_residual:.1e})")
    _line("criterion-6", True, "; ".join(notes))
