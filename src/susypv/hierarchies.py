"""Special parameter regimes where the transcendents collapse to named functions.

detect() classifies a first-order spec by the (eps1, nu, ell) patterns;
closed_form_w() evaluates the published closed forms verbatim. Because
those formulas are written with an ambiguous argument convention, the
crosscheck evaluates each form under both candidate conventions
(argument z as printed, and argument sqrt(z)) against every ordering of
the machinery quartet, and reports which combination matches. Mismatches
are recorded explicitly; nothing passes silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .oscillator import NU_INF, SeedSpec, mixture_to_nu
from .painleve import CANONICAL_ORDERINGS, solution_from_quartet
from .specialfunctions import GammaPoleError, bessel_i, hermite_h, laguerre_l
from .susy import extremal_quartet

__all__ = [
    "HierarchyTag",
    "HierarchyReport",
    "FormMatch",
    "detect",
    "closed_form_w",
    "convention_sqrt",
    "crosscheck",
]

_TOL = 1e-12
_ZS = np.linspace(0.5, 10.0, 25)  # z samples of the crosscheck
_MATCH_TOL = 1e-9  # relative w error at which a printed form counts as matched


@dataclass(frozen=True)
class HierarchyTag:
    family: str  # laguerre|hermite|weber|bessel|exponential|polynomial|transcendent
    condition: dict


@dataclass
class FormMatch:
    form: int
    convention: str | None
    ordering: str | None
    error: float
    matched: bool


@dataclass
class HierarchyReport:
    tag: HierarchyTag
    machinery_residual: float
    residual_ordering: str
    form_results: list[FormMatch] = field(default_factory=list)

    @property
    def matched_forms(self) -> list[FormMatch]:
        return [f for f in self.form_results if f.matched]


def _is_int(x: float) -> int | None:
    n = round(x)
    if abs(x - n) < _TOL:
        return int(n)
    return None


def detect(spec: SeedSpec) -> HierarchyTag:
    """First matching family tag; 'transcendent' when no condition fires.

    All published closed forms are first-order, so k != 1 is always
    transcendent. The check order (exponential, polynomial, hermite,
    laguerre, bessel, weber) puts the more reduced families first: at
    l = 0 the weber condition fires for every real eps1 with nu = 0, and
    the hermite/laguerre conditions overlap.
    """
    if spec.k != 1 or abs(complex(spec.eps1).imag) > _TOL:
        return HierarchyTag("transcendent", {})
    eps = complex(spec.eps1).real
    ell = spec.ell
    try:
        nu = mixture_to_nu(spec.mixture, ell, spec.eps1)
    except GammaPoleError:  # nu does not exist at this eps1, so no family fires
        return HierarchyTag("transcendent", {})
    if nu == NU_INF:
        nu_kind = "inf"
    elif abs(complex(nu)) < _TOL:
        nu_kind = "0"
    else:
        return HierarchyTag("transcendent", {})

    if nu_kind == "inf" and abs(ell - 0.5) < _TOL and abs(eps) < _TOL:
        return HierarchyTag("exponential", {"nu": "inf", "ell": ell})
    if nu_kind == "0" and abs(eps - (0.5 * ell - 0.25)) < _TOL:
        return HierarchyTag("polynomial", {"nu": "0", "branch": 1, "ell": ell})
    if nu_kind == "inf" and abs(eps - (-0.5 * ell - 0.75)) < _TOL:
        return HierarchyTag("polynomial", {"nu": "inf", "branch": 2, "ell": ell})
    if abs(ell) < _TOL:
        n = _is_int(eps - 0.25) if nu_kind == "0" else _is_int(eps - 0.75)
        if n is not None and n >= 0:
            return HierarchyTag("hermite", {"nu": nu_kind, "n": n})
    n = _is_int(eps + 0.5 * ell - 0.25) if nu_kind == "0" else _is_int(eps - 0.5 * ell - 0.75)
    if n is not None and n >= 0:
        return HierarchyTag("laguerre", {"nu": nu_kind, "n": n, "ell": ell})
    if abs(eps) < _TOL:
        if nu_kind == "0":
            mus = (-(2.0 * ell + 1.0) / 4.0, -(2.0 * ell + 3.0) / 4.0)
        else:
            mus = ((2.0 * ell + 1.0) / 4.0, (2.0 * ell - 1.0) / 4.0)
        return HierarchyTag("bessel", {"nu": nu_kind, "mus": mus, "ell": ell})
    if abs(ell) < _TOL and nu_kind == "0":
        return HierarchyTag("weber", {"mu": (4.0 * eps - 1.0) / 2.0})
    return HierarchyTag("transcendent", {})


def closed_form_w(tag: HierarchyTag, z: float, form: int = 0) -> complex:
    """Published closed form, evaluated verbatim in the printed variable."""
    fams = _closed_forms(tag)
    if fams is None:
        raise ValueError(f"no closed form available for family {tag.family!r}")
    if not 0 <= form < len(fams):
        raise ValueError(f"family {tag.family!r} has forms 0..{len(fams) - 1}")
    return fams[form](z)


def _closed_forms(tag: HierarchyTag):
    fam = tag.family
    if fam == "polynomial":
        ell = tag.condition["ell"]

        def poly(z, ell=ell):
            return 1.0 - z**1.5 / (2.0 * ell + 1.0)

        return [poly]
    if fam == "exponential":
        def e1(z):
            return 1.0 + (math.exp(0.5 * z * z) - 1.0) / z**0.5

        def e2(z):
            return 1.0 - 0.5 * z**1.5 + z**3.5 / (2.0 * z * z + 4.0 - 4.0 * math.exp(0.5 * z * z))

        return [e1, e2]
    if fam == "hermite":
        n = tag.condition["n"]

        def h_a(z, n=n):
            h2n = hermite_h(2 * n, z)
            h2n1 = hermite_h(2 * n - 1, z) if n >= 1 else 0.0
            return 1.0 - z**1.5 * h2n / ((z * z + 1.0) * h2n - 4.0 * n * z * h2n1)

        def h_b(z, n=n):
            h2n = hermite_h(2 * n, z)
            h2n1 = hermite_h(2 * n - 1, z) if n >= 1 else 0.0
            return 1.0 + z**0.5 * h2n / (4.0 * n * h2n1 - z * h2n)

        return [h_a, h_b]
    if fam == "laguerre":
        ell = tag.condition["ell"]
        alpha = -(2.0 * ell + 1.0) / 2.0

        def l_a(z):
            return 1.0 - z**-0.5

        def l_b(z, alpha=alpha):
            lag = laguerre_l(1, alpha, 0.5 * z * z)
            return 1.0 - z**1.5 * lag / (2.0 * lag - 2.0 * alpha - 1.0)

        return [l_a, l_b]
    if fam == "bessel":
        mus = tag.condition["mus"]
        forms = []
        for mu in mus:
            def b_a(z, mu=mu):
                i0 = bessel_i(mu, 0.25 * z * z)
                i1 = bessel_i(mu + 1.0, 0.25 * z * z)
                return 1.0 - 2.0 * z**1.5 * i0 / ((z * z - 8.0 * mu) * i0 - z * z * i1)

            def b_b(z, mu=mu):
                i0 = bessel_i(mu, 0.25 * z * z)
                i1 = bessel_i(mu + 1.0, 0.25 * z * z)
                return 1.0 + 2.0 * i0 / (z**0.5 * (i1 - i0))

            forms.extend([b_a, b_b])
        return forms
    return None


def convention_sqrt(form) -> callable:
    """The sqrt(z) reading of a printed form: 1 + z^(1/4) (w_p(sqrt z) - 1)."""
    return lambda z: 1.0 + z**0.25 * (form(math.sqrt(z)) - 1.0)


def crosscheck(spec: SeedSpec) -> HierarchyReport:
    """Certify a hierarchy spec and resolve the argument convention.

    (i) the machinery output passes the PV residual (the certificate);
    (ii) every printed closed form is compared pointwise against every
    non-degenerate quartet ordering under both argument conventions; the
    best (convention, ordering) is recorded, matched or not.
    """
    tag = detect(spec)
    quartet = extremal_quartet(spec)
    machinery = {}
    best_res = math.inf
    best_lab = ""
    for lab in CANONICAL_ORDERINGS:
        sol = solution_from_quartet(quartet, lab)
        if sol.classification != "generic":
            continue
        res, samples = sol.residual_certificate(_ZS)
        machinery[lab] = [s.w if s.flag == "ok" else None for s in samples]
        if res < best_res:
            best_res, best_lab = res, lab
    report = HierarchyReport(tag, best_res, best_lab)
    forms = _closed_forms(tag)
    if forms is None:
        return report
    for idx, form in enumerate(forms):
        candidates = []
        for conv_name, fn in (("printed", form), ("sqrt", convention_sqrt(form))):
            closed = []
            for z in _ZS:
                try:
                    closed.append(complex(fn(float(z))))
                except (ZeroDivisionError, OverflowError, ValueError):
                    closed.append(None)
            for lab, vals in machinery.items():
                errs = [abs(cv - mv) / max(1.0, abs(mv))
                        for cv, mv in zip(closed, vals)
                        if cv is not None and mv is not None]
                if len(errs) >= len(_ZS) // 2:
                    candidates.append((max(errs), conv_name, lab))
        if not candidates:
            report.form_results.append(FormMatch(idx, None, None, math.inf, False))
            continue
        err, conv_name, lab = min(candidates)
        report.form_results.append(FormMatch(idx, conv_name, lab, err, err <= _MATCH_TOL))
    return report
