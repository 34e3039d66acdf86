"""From extremal quartets to certified Painleve V transcendents.

The pipeline: pick the two states in slots 3 and 4 of the (possibly
permuted) quartet, form
    h = (ln W(psi_3, psi_4))',   g = -x - h,   w(z) = 1 + sqrt(z)/g(sqrt(z)),
and read the parameters off the slot energies,
    a = a1^2/2, b = -a3^2/2, c = (a2-a4)/2, d = -1/8,
    a1 = e1-e2, a2 = e2-e3, a3 = e3-e4, a4 = e4-e1+1.
Because both slot states solve the same Schrodinger equation, the
Wronskian obeys W' = 2(e3-e4) psi_3 psi_4, so g and two z-derivatives of w
are available analytically; the PV residual then certifies every output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .oscillator import SeedSpec, check_ordering, check_positive
from .susy import ExtremalQuartet, SingularEvaluationError, extremal_quartet

__all__ = [
    "EquationSingularityError",
    "DegenerateOutputError",
    "PoleError",
    "CANONICAL_ORDERINGS",
    "PVParams",
    "GridSample",
    "PVSolution",
    "normalize_ordering",
    "permute_quartet",
    "params_from_energies",
    "pv_params",
    "pv_params_closed_form",
    "g_from_quartet",
    "pv_residual",
    "classify_degenerate",
    "solution_from_quartet",
    "solve",
    "default_z_grid",
]

CANONICAL_ORDERINGS = ("1234", "1324", "1423", "2314", "2413", "3412")

_POLE_TOL = 1e-10
_SING_TOL = 1e-10
_CLASSIFY_SAMPLES = 12  # points of the geometric window classify_degenerate probes


class EquationSingularityError(ArithmeticError):
    """PV residual requested at w = 0 or w = 1 (the equation's singular locus)."""


class DegenerateOutputError(RuntimeError):
    """The requested ordering yields a degenerate w (constant or infinite)."""

    def __init__(self, classification: str, solution=None):
        super().__init__(f"degenerate PV output: {classification}")
        self.classification = classification
        self.solution = solution


class PoleError(ArithmeticError):
    """g vanished at the requested point (movable pole of w)."""


@dataclass(frozen=True)
class PVParams:
    a: complex
    b: complex
    c: complex
    d: complex


@dataclass
class GridSample:
    z: float
    w: complex
    residual: float | None
    flag: str  # ok | pole | degenerate
    w_z: complex | None = None
    w_zz: complex | None = None


def default_z_grid(n: int = 200, lo: float = 0.1, hi: float = 20.0) -> np.ndarray:
    return np.geomspace(lo, hi, n)


def normalize_ordering(label: str) -> str:
    """Map any of the 24 orderings to its canonical representative.

    The solution and parameters are symmetric under swapping slots 1<->2
    and slots 3<->4, so each class is keyed by its sorted slot pairs.
    """
    check_ordering(label)
    head = "".join(sorted(label[:2]))
    tail = "".join(sorted(label[2:]))
    return head + tail


def permute_quartet(quartet: ExtremalQuartet, label: str) -> ExtremalQuartet:
    """Reorder the quartet so slot i holds original state label[i]."""
    label = normalize_ordering(label)
    idx = [int(ch) - 1 for ch in label]
    return ExtremalQuartet(tuple(quartet.states[i] for i in idx), label, quartet.potential)


def params_from_energies(e1, e2, e3, e4) -> PVParams:
    """The alpha route from four slot energies (see the module docstring).

    Fraction(1, 2) keeps it exact on Fractions and becomes 0.5 on complex
    floats. d is -1/8 whatever the energies.
    """
    a1, a2, a3, a4 = e1 - e2, e2 - e3, e3 - e4, e4 - e1 + 1
    half = Fraction(1, 2)
    return PVParams(half * a1 * a1, -half * a3 * a3, half * (a2 - a4), Fraction(-1, 8))


def pv_params(quartet: ExtremalQuartet) -> PVParams:
    """Parameters from the quartet's slot energies (the alpha route).

    For a canonical-order k-SUSY quartet this agrees exactly with the
    closed forms of pv_params_closed_form; callers assert that.
    """
    return params_from_energies(*[complex(e) for e in quartet.energies])


def pv_params_closed_form(ell: float, eps1: complex, k: int) -> PVParams:
    """Closed forms for the canonical ordering of the k-SUSY quartet."""
    a = (4.0 * eps1 + 2.0 * ell + 3.0) ** 2 / 32.0
    b = -((4.0 * eps1 - 4.0 * k - 2.0 * ell + 1.0) ** 2) / 32.0
    c = (2.0 * k - 2.0 * ell - 3.0) / 4.0
    return PVParams(a, b, c, -0.125)


# -- the g function and w ----------------------------------------------------


def g_from_quartet(quartet: ExtremalQuartet, x: float) -> tuple[complex, complex, complex]:
    """(g, g', g'') at x from the slot-3/4 states.

    Abel's identity W' = 2(e3-e4) psi3 psi4 (both states solve the same
    equation) supplies all Wronskian derivatives from values and first
    derivatives alone; any normalization of the states drops out of the
    logarithmic derivative.
    """
    (g, g1, g2), _ = _g_with_errors(quartet, x)
    return g, g1, g2


def _g_with_errors(quartet: ExtremalQuartet, x: float):
    """g, g', g'' in extended precision plus propagated error bounds.

    The log-derivative chain cancels badly near zeros of W(psi3,psi4);
    the returned absolute-error estimates let w_eval mask points where
    the PV residual cannot be resolved at the certificate tolerance.
    """
    s3, s4 = quartet.pair_34()
    e3, e4 = complex(quartet.energies[2]), complex(quartet.energies[3])
    # V_k first: its order-2 chain series then serves both slot denominators
    vd = complex(quartet.potential(x))
    f0d, f1d = s3.value_and_derivative(x)
    g0d, g1d = s4.value_and_derivative(x)
    cl = np.clongdouble
    f0, f1, g0, g1, v = cl(f0d), cl(f1d), cl(g0d), cl(g1d), cl(vd)
    eps_in = 1e-15  # relative accuracy of the double-precision inputs
    omega = f0 * g1 - g0 * f1
    s_omega = float(abs(f0 * g1) + abs(g0 * f1))
    if abs(omega) < 1e-15 * max(s_omega, 1e-300):
        raise PoleError(f"W(psi3,psi4) vanishes near x={x}")
    e_omega = eps_in * s_omega
    delta = cl(2.0) * (cl(e3) - cl(e4))
    om1 = delta * f0 * g0
    om2 = delta * (f1 * g0 + f0 * g1)
    om3 = delta * (cl(2.0) * (cl(2.0) * v - cl(e3) - cl(e4)) * f0 * g0 + cl(2.0) * f1 * g1)
    rel_om = e_omega / abs(omega) + eps_in
    lh = om1 / omega
    lh1m = om2 / omega
    e_lh = abs(lh) * rel_om
    e_lh1m = abs(lh1m) * rel_om
    lh1 = lh1m - lh * lh
    e_lh1 = e_lh1m + 2.0 * abs(lh) * e_lh
    lh2 = om3 / omega - cl(3.0) * lh1m * lh + cl(2.0) * lh * lh * lh
    e_lh2 = (abs(om3 / omega) * rel_om
             + 3.0 * (abs(lh1m) * e_lh + abs(lh) * e_lh1m)
             + 6.0 * abs(lh) ** 2 * e_lh)
    g = -cl(x) - lh
    gp = -cl(1.0) - lh1
    gpp = -lh2
    return (complex(g), complex(gp), complex(gpp)), (e_lh, e_lh1, e_lh2)


def pv_residual(w: complex, w_z: complex, w_zz: complex, z: float, params: PVParams) -> float:
    """Normalized defect of the PV equation at one point.

    |w'' - RHS| / max(|w''|, |RHS|, 1) with
    RHS = (1/(2w) + 1/(w-1)) w'^2 - w'/z + (w-1)^2/z^2 (a w + b/w)
          + c w/z + d w (w+1)/(w-1).
    """
    cl = np.clongdouble
    res, _ = _residual_ext(cl(w), cl(w_z), cl(w_zz), z, params, 0.0, 0.0, 0.0)
    return res


def _residual_ext(w, w_z, w_zz, z: float, params: PVParams,
                  e_w: float, e_wz: float, e_wzz: float) -> tuple[float, float]:
    """Extended-precision residual plus a conditioning floor.

    Inputs are clongdouble scalars; the floor combines the propagated
    input errors with the sensitivities of the PV right-hand side near
    its w = 0 / w = 1 singular locus.
    """
    cl = np.clongdouble
    aw, aw1 = float(abs(w)), float(abs(complex(w) - 1.0))
    if aw < _SING_TOL or aw1 < _SING_TOL:
        raise EquationSingularityError(f"w={complex(w)} on the singular locus at z={z}")
    one = cl(1.0)
    a, b, c, d = cl(complex(params.a)), cl(complex(params.b)), cl(complex(params.c)), cl(complex(params.d))
    zx = cl(z)
    terms = (
        (cl(0.5) / w + one / (w - one)) * w_z * w_z,
        -w_z / zx,
        (w - one) ** 2 / (zx * zx) * (a * w + b / w),
        c * w / zx,
        d * w * (w + one) / (w - one),
    )
    rhs = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
    den = max(float(abs(w_zz)), float(abs(rhs)), 1.0)
    res = float(abs(w_zz - rhs)) / den
    awz = float(abs(w_z))
    aa, ab, ac, ad = abs(complex(params.a)), abs(complex(params.b)), abs(complex(params.c)), 0.125
    sens_wz = 2.0 * awz * (0.5 / aw + 1.0 / aw1) + 1.0 / z
    sens_w = (awz * awz * (0.5 / aw**2 + 1.0 / aw1**2)
              + (2.0 * aw1 * (aa * aw + ab / aw) + aw1**2 * (aa + ab / aw**2)) / (z * z)
              + ac / z
              + ad * ((2.0 * aw + 1.0) / aw1 + aw * (aw + 1.0) / aw1**2))
    term_scale = max(float(abs(t)) for t in terms)
    floor = (e_wzz + sens_w * e_w + sens_wz * e_wz
             + 2e-18 * (term_scale + float(abs(w_zz)))) / den
    return res, floor


@dataclass
class PVSolution:
    """A generated PV transcendent with parameters and provenance."""

    params: PVParams
    quartet: ExtremalQuartet
    ordering: str
    classification: str

    def w_eval(self, z: float) -> GridSample:
        """w(z) and its z-derivatives, with pole masking and residual.

        Points where the certificate cannot be resolved numerically
        (conditioning floor above a quarter of the 1e-8 tolerance) are
        masked as poles rather than reported with meaningless residuals.
        """
        check_positive(z, "z")
        if self.classification != "generic":
            return GridSample(z, math.nan + 0j, None, "degenerate")
        x = math.sqrt(z)
        try:
            (g, g1, g2), (e_g, e_g1, e_g2) = _g_with_errors(self.quartet, x)
        except (PoleError, SingularEvaluationError):
            return GridSample(z, math.inf + 0j, None, "pole")
        if abs(g) < _POLE_TOL * (1.0 + abs(x)):
            return GridSample(z, math.inf + 0j, None, "pole")
        cl = np.clongdouble
        gx, g1x, g2x, xx = cl(g), cl(g1), cl(g2), cl(x)
        wx = cl(1.0) + xx / gx
        num = gx - xx * g1x
        den = cl(2.0) * xx * gx * gx
        w_zx = num / den
        dnum = -xx * g2x
        dden = cl(2.0) * gx * gx + cl(4.0) * xx * gx * g1x
        kx = dnum * den - num * dden
        w_zzx = kx / (den * den) / (cl(2.0) * xx)
        w, w_z, w_zz = complex(wx), complex(w_zx), complex(w_zzx)
        # propagated absolute errors
        ag, ag1 = abs(g), abs(g1)
        e_w = x * e_g / max(ag * ag, 1e-300)
        e_num = e_g + x * e_g1
        e_den = 4.0 * x * ag * e_g
        aden = float(abs(den))
        e_wz = e_num / aden + float(abs(num)) * e_den / aden**2
        e_dnum = x * e_g2
        e_dden = 4.0 * ag * e_g + 4.0 * x * (ag * e_g1 + ag1 * e_g)
        cancel = float(abs(dnum * den) + abs(num * dden))
        e_k = (aden * e_dnum + float(abs(dnum)) * e_den
               + float(abs(num)) * e_dden + float(abs(dden)) * e_num
               + 2e-18 * cancel)
        e_wzz = e_k / (aden * aden * 2.0 * x) + abs(w_zz) * 2.0 * e_den / aden
        try:
            res, floor = _residual_ext(wx, w_zx, w_zzx, z, self.params,
                                       e_w, e_wz, e_wzz)
        except EquationSingularityError:
            return GridSample(z, w, None, "pole", w_z, w_zz)
        if floor > 2.5e-9:
            return GridSample(z, w, None, "pole", w_z, w_zz)
        return GridSample(z, w, res, "ok", w_z, w_zz)

    def residual_certificate(self, zs: np.ndarray | None = None) -> tuple[float, list[GridSample]]:
        """Max masked-grid residual and the samples; inf when nothing is ok."""
        if zs is None:
            zs = default_z_grid()
        samples = [self.w_eval(float(z)) for z in zs]
        oks = [s.residual for s in samples if s.flag == "ok"]
        return (max(oks) if oks else math.inf), samples


def classify_degenerate(quartet: ExtremalQuartet) -> str:
    """generic | w==1 | w==inf | w==0-shift | w==const.

    A zero state in slot 3/4 means W == 0, i.e. g = infinity and w == 1.
    Otherwise constancy and blow-up are detected on a geometric sample of
    the window (constants other than 0 or 1 only arise from quartets with
    coincident extremal data; they are excluded from the residual suite
    like the other degenerate outputs).
    """
    s3, s4 = quartet.pair_34()
    if s3.is_zero() or s4.is_zero():
        return "w==1"
    zs = np.geomspace(0.4, 16.0, _CLASSIFY_SAMPLES)
    ws = []
    n_poles = 0
    for z in zs:
        x = math.sqrt(z)
        try:
            g, _, _ = g_from_quartet(quartet, x)
        except PoleError:
            n_poles += 1
            continue
        if abs(g) < _POLE_TOL * (1.0 + abs(x)):
            n_poles += 1
            continue
        ws.append(1.0 + x / g)
    if n_poles == len(zs):
        return "w==inf"
    ws = np.array(ws)
    mean = ws.mean()
    spread = float(np.max(np.abs(ws - mean)))
    if spread < 1e-9 * max(1.0, abs(mean)):
        if abs(mean) < 1e-9:
            return "w==0-shift"
        if abs(mean - 1.0) < 1e-9:
            return "w==1"
        return "w==const"
    return "generic"


def solution_from_quartet(quartet: ExtremalQuartet, ordering: str = "1234") -> PVSolution:
    q = permute_quartet(quartet, ordering)
    return PVSolution(pv_params(q), q, q.ordering_label, classify_degenerate(q))


def solve(spec: SeedSpec, allow_degenerate: bool = False) -> PVSolution:
    """Full recipe: seed chain -> quartet -> permute -> params/classification.

    The canonical-ordering parameters are cross-checked against the closed
    forms; degenerate outputs raise unless allow_degenerate.
    """
    sol = solution_from_quartet(extremal_quartet(spec), spec.ordering)
    if sol.ordering == "1234":
        ref = pv_params_closed_form(spec.ell, spec.eps1, spec.k)
        for name in "abcd":
            got, want = getattr(sol.params, name), getattr(ref, name)
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                raise AssertionError(
                    f"alpha-route {name}={got} disagrees with closed form {want}")
    if sol.classification != "generic" and not allow_degenerate:
        raise DegenerateOutputError(sol.classification, sol)
    return sol
