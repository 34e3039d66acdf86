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
A certificate evaluates its whole grid in one batched pass
(``PVSolution.w_grid``), with masks for the points it cannot certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .oscillator import SeedSpec, check_ordering, check_positive
from .susy import (ExtremalQuartet, WronskianRatioState, extremal_quartet, quartet_energies,
                   raise_if_singular)

__all__ = [
    "DegenerateOutputError",
    "CANONICAL_ORDERINGS",
    "CERT_TOL",
    "MATCH_TOL",
    "PVParams",
    "GridSample",
    "PVSolution",
    "normalize_ordering",
    "permute_quartet",
    "params_from_energies",
    "pv_params",
    "w_gap",
    "classify_degenerate",
    "solution_from_quartet",
    "solve",
    "default_z_grid",
]

CANONICAL_ORDERINGS = ("1234", "1324", "1423", "2314", "2413", "3412")
CERT_TOL = 1e-8  # PV residual at or below which an output is certified
MATCH_TOL = 1e-9  # w_gap at or below which a printed closed form counts as matched

_POLE_TOL = 1e-10
_SING_TOL = 1e-10
_CLASSIFY_SAMPLES = 12  # points of the geometric window classify_degenerate probes


class DegenerateOutputError(RuntimeError):
    """The requested ordering yields a degenerate w (constant or infinite)."""

    def __init__(self, classification: str):
        super().__init__(f"degenerate PV output: {classification}")
        self.classification = classification


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
    """Parameters from the quartet's slot energies (the alpha route)."""
    return params_from_energies(*[complex(e) for e in quartet.energies])


# -- the g function and w ----------------------------------------------------


def _g_with_errors(quartet: ExtremalQuartet, xs: tuple):
    """g, g', g'' at each x of xs in extended precision, with error bounds.

    Returns the complex arrays (g, g', g''), their propagated absolute
    errors, and two masks: `singular` where V_k is singular and `pole`
    where W(psi3, psi4) vanishes; values there carry no meaning. The
    log-derivative chain cancels badly near zeros of W(psi3, psi4); the
    error estimates let the certificate mask points where the PV residual
    cannot be resolved at the certificate tolerance.
    """
    s3, s4 = quartet.pair_34()
    e3, e4 = complex(quartet.energies[2]), complex(quartet.energies[3])
    # V_k first: its order-2 chain series then serves both slot denominators
    vd = quartet.potential.deriv_jet(xs, 0)[:, 0]
    singular = quartet.potential.singular_at(xs)
    (f0d, f1d), (g0d, g1d) = s3.value_and_derivative(xs).T, s4.value_and_derivative(xs).T
    cl = np.clongdouble
    f0, f1, g0, g1, v = (t.astype(cl) for t in (f0d, f1d, g0d, g1d, vd))
    eps_in = 1e-15  # relative accuracy of the double-precision inputs
    omega = f0 * g1 - g0 * f1
    s_omega = (abs(f0 * g1) + abs(g0 * f1)).astype(float)
    pole = abs(omega) < 1e-15 * np.maximum(s_omega, 1e-300)
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
    g = -np.array(xs, dtype=cl) - lh
    gp = -cl(1.0) - lh1
    gpp = -lh2
    return ((g.astype(complex), gp.astype(complex), gpp.astype(complex)),
            (e_lh, e_lh1, e_lh2), singular, pole)


def _residual_ext(w, w_z, w_zz, z: np.ndarray, params: PVParams, e_w, e_wz, e_wzz):
    """Extended-precision residual, conditioning floor and singular-locus mask.

    w, w_z and w_zz are clongdouble arrays over the points z; the floor
    combines the propagated input errors with the sensitivities of the PV
    right-hand side near its w = 0 / w = 1 singular locus, where the
    returned mask is set.
    """
    cl = np.clongdouble
    wd = w.astype(complex)
    aw, aw1 = abs(w).astype(float), np.hypot(wd.real - 1.0, wd.imag)
    locus = (aw < _SING_TOL) | (aw1 < _SING_TOL)
    one = cl(1.0)
    a, b, c, d = cl(complex(params.a)), cl(complex(params.b)), cl(complex(params.c)), cl(complex(params.d))
    zx = z.astype(cl)
    terms = (
        (cl(0.5) / w + one / (w - one)) * w_z * w_z,
        -w_z / zx,
        (w - one) ** 2 / (zx * zx) * (a * w + b / w),
        c * w / zx,
        d * w * (w + one) / (w - one),
    )
    rhs = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
    a_wzz = abs(w_zz).astype(float)
    den = np.maximum(np.maximum(a_wzz, abs(rhs).astype(float)), 1.0)
    res = abs(w_zz - rhs).astype(float) / den
    awz = abs(w_z).astype(float)
    aa, ab, ac, ad = abs(complex(params.a)), abs(complex(params.b)), abs(complex(params.c)), 0.125
    sens_wz = 2.0 * awz * (0.5 / aw + 1.0 / aw1) + 1.0 / z
    sens_w = (awz * awz * (0.5 / aw**2 + 1.0 / aw1**2)
              + (2.0 * aw1 * (aa * aw + ab / aw) + aw1**2 * (aa + ab / aw**2)) / (z * z)
              + ac / z
              + ad * ((2.0 * aw + 1.0) / aw1 + aw * (aw + 1.0) / aw1**2))
    term_scale = np.maximum.reduce([abs(t).astype(float) for t in terms])
    floor = (e_wzz + sens_w * e_w + sens_wz * e_wz
             + 2e-18 * (term_scale + a_wzz)) / den
    return res, floor, locus


@dataclass
class PVSolution:
    """A generated PV transcendent with parameters and provenance."""

    params: PVParams
    quartet: ExtremalQuartet
    ordering: str
    classification: str

    def w_grid(self, zs) -> list[GridSample]:
        """w(z) and its z-derivatives at every z of zs, with pole masking and residuals.

        One batched pass: each Wronskian stack is factored once for the
        whole grid. Points where the certificate cannot be resolved
        numerically (conditioning floor above CERT_TOL / 4) are masked as
        poles rather than reported with meaningless residuals.
        """
        zs = [float(z) for z in zs]
        z = check_positive(zs, "z")
        if self.classification != "generic":
            return [GridSample(z, math.nan + 0j, None, "degenerate") for z in zs]
        xs = tuple(math.sqrt(z) for z in zs)
        x = np.array(xs)
        cl = np.clongdouble
        with np.errstate(all="ignore"):  # masked points may divide by 0
            (g, g1, g2), (e_g, e_g1, e_g2), singular, pole = _g_with_errors(self.quartet, xs)
            ag, ag1 = np.hypot(g.real, g.imag), np.hypot(g1.real, g1.imag)
            pole |= singular | (ag < _POLE_TOL * (1.0 + x))
            gx, g1x, g2x, xx = g.astype(cl), g1.astype(cl), g2.astype(cl), x.astype(cl)
            wx = cl(1.0) + xx / gx
            num = gx - xx * g1x
            den = cl(2.0) * xx * gx * gx
            w_zx = num / den
            dnum = -xx * g2x
            dden = cl(2.0) * gx * gx + cl(4.0) * xx * gx * g1x
            kx = dnum * den - num * dden
            w_zzx = kx / (den * den) / (cl(2.0) * xx)
            w, w_z, w_zz = wx.astype(complex), w_zx.astype(complex), w_zzx.astype(complex)
            # propagated absolute errors
            e_w = x * e_g / np.maximum(ag * ag, 1e-300)
            e_num = e_g + x * e_g1
            e_den = 4.0 * x * ag * e_g
            aden = abs(den).astype(float)
            a_num = abs(num).astype(float)
            e_wz = e_num / aden + a_num * e_den / aden**2
            e_dnum = x * e_g2
            e_dden = 4.0 * ag * e_g + 4.0 * x * (ag * e_g1 + ag1 * e_g)
            cancel = (abs(dnum * den) + abs(num * dden)).astype(float)
            e_k = (aden * e_dnum + abs(dnum).astype(float) * e_den
                   + a_num * e_dden + abs(dden).astype(float) * e_num
                   + 2e-18 * cancel)
            e_wzz = (e_k / (aden * aden * 2.0 * x)
                     + np.hypot(w_zz.real, w_zz.imag) * 2.0 * e_den / aden)
            res, floor, locus = _residual_ext(wx, w_zx, w_zzx, z, self.params, e_w, e_wz, e_wzz)
        unresolved = locus | (floor > CERT_TOL / 4)
        samples = []
        for i, (zi, wi, wzi, wzzi) in enumerate(zip(zs, w.tolist(), w_z.tolist(), w_zz.tolist())):
            if pole[i]:
                samples.append(GridSample(zi, math.inf + 0j, None, "pole"))
            elif unresolved[i]:
                samples.append(GridSample(zi, wi, None, "pole", wzi, wzzi))
            else:
                samples.append(GridSample(zi, wi, float(res[i]), "ok", wzi, wzzi))
        return samples

    def w_eval(self, z: float) -> GridSample:
        """w(z) and its z-derivatives at one point: w_grid on a grid of one."""
        return self.w_grid((z,))[0]

    def residual_certificate(self, zs: np.ndarray | None = None) -> tuple[float, list[GridSample]]:
        """Max masked-grid residual and the samples; inf when nothing is ok.

        The whole grid goes through w_grid at once (default_z_grid() when
        zs is None).
        """
        if zs is None:
            zs = default_z_grid()
        samples = self.w_grid(zs)
        oks = [s.residual for s in samples if s.flag == "ok"]
        return (max(oks) if oks else math.inf), samples


def w_gap(samples: list[GridSample], form) -> float | None:
    """Worst |w - form(z)| / max(1, |form(z)|) over the certified samples.

    Points where the printed form raises ZeroDivisionError, OverflowError
    or ValueError are skipped; None when fewer than half the samples are
    left.
    """
    errs = []
    for s in (s for s in samples if s.flag == "ok"):
        try:
            ref = form(s.z)
        except (ZeroDivisionError, OverflowError, ValueError):
            continue
        errs.append(abs(s.w - ref) / max(1.0, abs(ref)))
    return max(errs) if errs and 2 * len(errs) >= len(samples) else None


def classify_degenerate(quartet: ExtremalQuartet) -> str:
    """generic | w==1 | w==inf | w==0-shift | w==const.

    A zero state in slot 3/4 means W == 0, i.e. g = infinity and w == 1.
    Only Wronskian ratio states are asked (is_zero, a sampled test): the
    closed-form and perp states of radial_oscillator_quartet are never
    zero. Otherwise constancy and blow-up are detected on a geometric
    sample of the window (constants other than 0 or 1 only arise from
    quartets with coincident extremal data; they are excluded from the
    residual suite like the other degenerate outputs).
    """
    s3, s4 = quartet.pair_34()
    if any(isinstance(s, WronskianRatioState) and s.is_zero() for s in (s3, s4)):
        return "w==1"
    xs = tuple(math.sqrt(z) for z in np.geomspace(0.4, 16.0, _CLASSIFY_SAMPLES))
    with np.errstate(all="ignore"):
        (g, _, _), _, singular, pole = _g_with_errors(quartet, xs)
    raise_if_singular(xs, singular)
    x = np.array(xs)
    keep = ~(pole | (abs(g) < _POLE_TOL * (1.0 + x)))  # w is finite there
    if not keep.any():
        return "w==inf"
    ws = 1.0 + x[keep] / g[keep]
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

    The canonical-ordering parameters are cross-checked against
    quartet_energies; degenerate outputs raise unless allow_degenerate.
    """
    sol = solution_from_quartet(extremal_quartet(spec), spec.ordering)
    if sol.ordering == "1234":
        ref = params_from_energies(*quartet_energies(spec.ell, spec.eps1, spec.k))
        for name in "abcd":
            got, want = getattr(sol.params, name), getattr(ref, name)
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                raise AssertionError(
                    f"alpha-route {name}={got} disagrees with the quartet_energies value {want}")
    if sol.classification != "generic" and not allow_degenerate:
        raise DegenerateOutputError(sol.classification)
    return sol
