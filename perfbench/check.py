"""Output checks that do not trust the library.

``pv_defect`` re-evaluates the Painleve V equation in mpmath at 30
digits from a returned (w, w_z, w_zz) and the returned parameters. It
uses this file's own transcription of the equation, never the library's
``pv_residual`` or ``_residual_ext``, so an error shared by the
certificate and the values it certifies cannot pass unseen.
"""

from __future__ import annotations

import mpmath

from workloads import CERT_TOL

_MP = mpmath.MPContext()
_MP.dps = 30


def pv_defect(z: float, w: complex, w_z: complex, w_zz: complex, params) -> float:
    """|w'' - RHS| / max(|w''|, |RHS|, 1) for
    w'' = (1/(2w) + 1/(w-1)) w'^2 - w'/z + (w-1)^2/z^2 (a w + b/w)
          + c w/z + d w (w+1)/(w-1).
    """
    mp = _MP
    z, w, w1, w2 = mp.mpf(z), mp.mpc(w), mp.mpc(w_z), mp.mpc(w_zz)
    a, b, c, d = (mp.mpc(v) for v in params)
    wm1 = w - 1
    rhs = ((1 / (2 * w) + 1 / wm1) * w1 * w1 - w1 / z
           + wm1 * wm1 / (z * z) * (a * w + b / w) + c * w / z + d * w * (w + 1) / wm1)
    return float(abs(w2 - rhs) / max(abs(w2), abs(rhs), 1))


def worst_defect(points, params) -> float:
    """Largest independent defect over a task's unmasked points."""
    return max((pv_defect(*pt, params) for pt in points), default=0.0)


def check_outcome(out) -> None:
    """Turn a certified task whose values fail the independent check into a failure."""
    if out.outcome != "certified":
        return
    if worst_defect(out.points, out.params) > CERT_TOL:
        out.outcome = "failed:check"


def compare(outcome: str, masked, ref: dict | None) -> bool:
    """True when the outcome class and masked grid indices match the reference."""
    return ref is not None and ref["outcome"] == outcome and list(masked) == ref["masked"]
