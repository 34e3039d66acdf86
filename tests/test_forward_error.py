"""The library's forward error in w against the 50-digit route ``mp_w``.

The residual certificate bounds how well w solves PV, not how far w is
from the exact transcendent of the spec. ``mp_w`` rebuilds w(z) in mpmath
from the spec alone. The probes are the cli reference probes
(``perfbench/reference.json``, read only) of grid specs 189 and 239, the
two where the library's w is furthest from it (FOUND in CHANGES.md:
6.7e-9 and 1.8e-8 while their residuals are near 1e-11).
"""

import json
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from susypv import SeedSpec, solve

from oracles import mp_w

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import pool  # noqa: E402

CLI_ZS = np.geomspace(0.1, 20.0, 200)  # solve's --zmin/--zmax/--points defaults
SPECS = (189, 239)


def _probes():
    """(spec, z) for the reference probes of SPECS."""
    reference = json.loads((PERFBENCH / "reference.json").read_text())["grid"]
    out = []
    for i in SPECS:
        s = pool("grid")[i]
        spec = SeedSpec.from_nu(s.ell, s.eps, s.nu, k=s.k, ordering=s.ordering)
        out += [(spec, float(CLI_ZS[j])) for j, _, _ in reference[str(i)]["w"]]
    return out


def _relative_errors():
    errs = []
    for spec, z in _probes():
        want = mp_w(spec, z)
        errs.append(abs(solve(spec).w_eval(z).w - want) / max(1.0, abs(want)))
    return errs


def test_mp_w_agrees_with_itself_at_60_digits():
    for spec, z in _probes():
        w50 = mp_w(spec, z)
        with mp.workdps(60):
            w60 = mp_w(spec, z)
        assert abs(w50 - w60) <= 1e-15 * max(1.0, abs(w60)), (spec, z)
    spec239, z = _probes()[3]
    assert z == 0.1 and abs(mp_w(spec239, z) - (-0.81107262432225)) < 1e-14


def test_library_w_within_1e7():
    assert max(_relative_errors()) <= 1e-7


@pytest.mark.xfail(strict=True, reason="forward error up to 1.8e-8 (spec 239): ROADMAP items 3, 5, 6")
def test_library_w_within_1e9():
    assert max(_relative_errors()) <= 1e-9
