"""Published closed-form tables and their reproduction from the machinery.

Parameters are compared exactly, as rationals in (l, eps1, k). For the
w(z) columns each row is evaluated three ways where possible: the
machinery quartet output, the published cell, and (for rows where the
published cell is internally inconsistent) an independently derived
closed form that is certified against the PV residual. Rows whose cells
involve the generalized incomplete gamma are certified by residual only
and never matched symbolically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .oscillator import NU_INF, SeedSpec, e0
from .painleve import (CANONICAL_ORDERINGS, CERT_TOL, MATCH_TOL, params_from_energies,
                       solution_from_quartet, w_gap)
from .susy import extremal_quartet, quartet_energies, radial_oscillator_quartet

__all__ = [
    "RowReport",
    "TableReport",
    "PERMUTATION_PARAMS",
    "ksusy_exact_params",
    "quartet_exact_params",
    "table_quartet",
    "table_param_entries",
    "table_w_cells",
    "reproduce_table",
    "params_table_report",
]

F = Fraction
# rational (l, eps1, k) samples of the six-permutation parameter check
_PARAMS_SAMPLES = tuple(itertools.product((F(0), F(1), F(2), F(5, 2), F(5)),
                                          (F(-1, 2), F(0), F(3, 4), F(7, 4)), (1, 2, 3, 4)))


# -- exact parameter formulas -------------------------------------------------

def PERMUTATION_PARAMS(label: str, ell: F, eps: F, k: int) -> tuple[F, F, F]:
    """(32a, 32b, 4c) of the six-permutation parameter table (rational eps)."""
    ell, eps = F(ell), F(eps)
    table = {
        "1234": ((2 * ell + 4 * eps + 3) ** 2,
                 -((-2 * ell + 4 * eps - 4 * k + 1) ** 2),
                 -2 * ell + 2 * k - 3),
        "1324": (F(16) * k * k, -4 * (2 * ell + 1) ** 2, 4 * eps - 2 * k),
        "1423": ((-2 * ell + 4 * eps + 1) ** 2,
                 -((2 * ell + 4 * eps - 4 * k + 3) ** 2),
                 2 * ell + 2 * k - 1),
        "2314": ((2 * ell + 4 * eps - 4 * k + 3) ** 2,
                 -((2 * ell - 4 * eps - 1) ** 2),
                 -2 * ell - 2 * k - 1),
        "2413": (4 * (2 * ell + 1) ** 2, -F(16) * k * k, -4 * eps + 2 * k - 4),
        "3412": ((2 * ell - 4 * eps + 4 * k - 1) ** 2,
                 -((2 * ell + 4 * eps + 3) ** 2),
                 2 * ell - 2 * k - 1),
    }
    return table[label]


def ksusy_exact_params(label: str, ell: F, eps: F, k: int) -> tuple[F, F, F]:
    """(32a, 32b, 4c) from the alpha route, exact, for the k-SUSY quartet."""
    a8, b8, c4 = quartet_exact_params(label, quartet_energies(F(ell), F(eps), k))
    return (4 * a8, 4 * b8, c4)


def quartet_exact_params(label: str, energies: list[F] | tuple[F, ...]) -> tuple[F, F, F]:
    """(8a, 8b, 4c) from explicit rational slot energies (alpha route)."""
    p = params_from_energies(*[energies[int(ch) - 1] for ch in label])
    return (8 * p.a, 8 * p.b, 4 * p.c)


# -- table definitions --------------------------------------------------------

def table_param_entries(which: str, ell: F) -> dict[str, tuple[F, F, F]]:
    """Published (8a, 8b, 4c) entries of Tables 0/1/2 as rationals in l."""
    ell = F(ell)
    if which == "t0":
        return {
            "1234": ((2 * ell + 1) ** 2, F(0), -2 * ell - 7),
            "1324": (F(4), -((2 * ell + 3) ** 2), 2 * ell - 1),
            "1423": (F(4), -((2 * ell + 3) ** 2), 2 * ell - 1),
            "2314": ((2 * ell + 3) ** 2, F(-4), -2 * ell - 3),
            "2413": ((2 * ell + 3) ** 2, F(-4), -2 * ell - 3),
            "3412": (F(0), -((2 * ell + 1) ** 2), 2 * ell + 3),
        }
    if which == "t1":
        return {
            "1234": ((2 * ell + 3) ** 2, F(0), -2 * ell - 1),
            "1324": (F(4), -((2 * ell + 1) ** 2), 2 * ell + 1),
            "1423": (F(4), -((2 * ell + 1) ** 2), 2 * ell + 1),
            "2314": ((2 * ell + 1) ** 2, F(-4), -2 * ell - 5),
            "2413": ((2 * ell + 1) ** 2, F(-4), -2 * ell - 5),
            "3412": (F(0), -((2 * ell + 3) ** 2), 2 * ell - 3),
        }
    if which == "t2":
        return {
            "1234": ((2 * ell + 5) ** 2, F(0), -2 * ell + 1),
            "1324": (F(16), -((2 * ell + 1) ** 2), 2 * ell + 3),
            "1423": (F(16), -((2 * ell + 1) ** 2), 2 * ell + 3),
            "2314": ((2 * ell + 1) ** 2, F(-16), -2 * ell - 7),
            "2413": ((2 * ell + 1) ** 2, F(-16), -2 * ell - 7),
            "3412": (F(0), -((2 * ell + 5) ** 2), 2 * ell - 5),
        }
    raise ValueError(f"unknown table {which!r}")


def table_quartet(which: str, ell: float):
    """Quartet generating a table, plus its exact slot energies."""
    ez = F(1, 2) * F(ell) + F(3, 4)
    if which == "t0":
        return radial_oscillator_quartet(float(ell)), [ez, 1 - ez, ez + 1, ez + 1]
    if which in ("t1", "t2"):  # the k-SUSY seed at eps1 = E0 + k - 1, nu = inf
        k = int(which[1])
        spec = SeedSpec.from_nu(float(ell), e0(float(ell)) + (k - 1), NU_INF, k=k,
                                mode="complex-over-real")
        return extremal_quartet(spec), list(quartet_energies(F(ell), ez + k - 1, k))
    raise ValueError(f"unknown table {which!r}")


def table_w_cells(which: str, ell: float) -> dict[str, dict]:
    """w(z) column data: published cell and, where it differs, the
    independently derived machinery closed form (PV-residual certified)."""
    L = float(ell)
    if which == "t0":
        return {
            "1234": {"kind": "degenerate", "note": "w == 0"},
            "1324": {"kind": "residual-only",
                     "note": "incomplete-gamma cell; admixture-dependent"},
            "1423": {"kind": "closed", "paper": lambda z: 1.0 + z / (2 * L - 1),
                     "derived": lambda z: 1.0 + (2 * L + 1 - z) / 2.0},
            "2314": {"kind": "residual-only",
                     "note": "incomplete-gamma cell; admixture-dependent"},
            "2413": {"kind": "closed", "paper": lambda z: 1.0 + (1 - 2 * L - z) / 2.0,
                     "derived": lambda z: 1.0 - z / (2 * L + 3)},
            "3412": {"kind": "degenerate", "note": "w == inf"},
        }
    if which == "t1":
        def t1_2413_paper(z):
            num = z * (8 * L**3 - 4 * L**2 * (z - 1) - 2 * L * (5 * z * z + 2 * z + 2)
                       + 5 * (z - 3) * z * z)
            den = (-8 * L**3 * (z - 4) + 4 * L**2 * (z * z - 3 * z + 4)
                   + 2 * L * (5 * z**3 + 2 * z * z - 2 * z - 8) - 5 * (z - 1) * z**3)
            return 1.0 + num / den

        def t1_3412_paper(z):
            num = z * (8 * L**3 + 4 * L**2 - 2 * L * (2 + 5 * z * z) - 15 * z * z)
            den = 16 * L * (2 * L * L + L - 1)
            return 1.0 + num / den

        return {
            "1234": {"kind": "degenerate", "note": "w == 1"},
            "1324": {"kind": "degenerate", "note": "w == 1"},
            "1423": {"kind": "closed",
                     "paper": lambda z: 1.0 + z / (2 * L - z + 1), "derived": None},
            "2314": {"kind": "degenerate", "note": "w == 1"},
            "2413": {"kind": "closed", "paper": t1_2413_paper,
                     "derived": lambda z: 2.0 / (z - 2 * L - 1)},
            "3412": {"kind": "closed", "paper": t1_3412_paper, "derived": None},
        }
    if which == "t2":
        def d2(z):
            return z * z - 2 * z * (2 * L + 1) + (2 * L + 1) * (2 * L + 3)

        return {
            "1234": {"kind": "degenerate", "note": "w == 1"},
            "1324": {"kind": "degenerate", "note": "w == 1"},
            "1423": {"kind": "closed",
                     "paper": lambda z: 4 * (z - 2 * L - 3) / (z * z - 2 * z * (2 * L + 1)
                                                               + 4 * L * L + 8 * L + 3),
                     "derived": lambda z: (2 * L + 1) * (2 * L + 3 - z) / d2(z)},
            "2314": {"kind": "degenerate", "note": "w == 1"},
            "2413": {"kind": "closed",
                     "paper": lambda z: (-z + 2 * L + 3) * (2 * L + 1)
                     / (z * z - 2 * z * (2 * L + 1) + 4 * L * (L - 2) + 3),
                     "derived": lambda z: 4 * (z - 2 * L - 3) / d2(z)},
            "3412": {"kind": "degenerate", "note": "w == inf"},
        }
    raise ValueError(f"unknown table {which!r}")


# -- reproduction reports -----------------------------------------------------

@dataclass
class RowReport:
    label: str
    params_exact: bool
    w_status: str  # matched | mismatch | residual-certified | degenerate
    w_error_paper: float | None = None
    w_error_derived: float | None = None
    machinery_residual: float | None = None
    classification: str = ""
    note: str = ""

    def ok(self) -> bool:
        return self.params_exact and self.w_status in ("matched", "residual-certified",
                                                       "degenerate")


@dataclass
class TableReport:
    which: str
    ell: float
    rows: list[RowReport] = field(default_factory=list)


def reproduce_table(which: str, ell: float, n_points: int = 50) -> TableReport:
    """Recompute one table from the machinery and grade every row."""
    quartet, exact_energies = table_quartet(which, ell)
    params_published = table_param_entries(which, F(ell))
    cells = table_w_cells(which, ell)
    zs = np.geomspace(0.4, 18.0, n_points)
    report = TableReport(which, ell)
    for label in CANONICAL_ORDERINGS:
        pub = params_published[label]
        got = quartet_exact_params(label, exact_energies)
        params_ok = tuple(got) == tuple(pub)
        sol = solution_from_quartet(quartet, label)
        cell = cells[label]
        row = RowReport(label, params_ok, "", classification=sol.classification,
                        note=cell.get("note", ""))
        if sol.classification != "generic":
            row.w_status = "degenerate" if cell["kind"] != "closed" else "mismatch"
            report.rows.append(row)
            continue
        mr, samples = sol.residual_certificate(zs)
        row.machinery_residual = mr
        if cell["kind"] == "residual-only":
            row.w_status = "residual-certified" if mr <= CERT_TOL else "mismatch"
        elif cell["kind"] == "degenerate":
            row.w_status = "mismatch"  # table says degenerate, machinery generic
        else:
            row.w_error_paper = w_gap(samples, cell["paper"])
            if cell.get("derived") is not None:
                row.w_error_derived = w_gap(samples, cell["derived"])
            err = row.w_error_paper
            row.w_status = "matched" if (err is not None and err <= MATCH_TOL) else "mismatch"
        report.rows.append(row)
    return report


def params_table_report() -> list[tuple]:
    """Exact check of the six-permutation table over rational samples.

    Returns [(label, ok, n_samples)]; ok means the published 32a/32b/4c
    agree exactly with the alpha route at every sampled (l, eps1, k).
    """
    out = []
    for label in CANONICAL_ORDERINGS:
        ok = all(tuple(PERMUTATION_PARAMS(label, *p)) == tuple(ksusy_exact_params(label, *p))
                 for p in _PARAMS_SAMPLES)
        out.append((label, ok, len(_PARAMS_SAMPLES)))
    return out
