"""The benchmark's cli reference check, run in-process on the whole grid pool.

The cli workload of ``perfbench/run.py`` runs ``susypv solve`` on grid
pool specs and fails a task (``failed:check``) where a written w probe is
masked or differs from ``perfbench/reference.json`` by more than
1e-9 * max(1, |w|). This test applies that check to all 720 probes (three
per grid spec): each spec is built and solved as ``susypv solve`` does
(``SeedSpec.from_nu`` with the mode inferred, ``solve``, the default
geometric z grid), and w is evaluated at the probe points only, since a
sample depends on its own z alone. It reads the reference and the pool
and changes neither.

The reference carries the library's own error (ROADMAP item 1): grid
specs 189 and 239 are FOUND at 6.7e-9 and 1.8e-8 from a 50-digit w, so a
change of seed-jet or Wronskian arithmetic can move them past the bound
however accurate it is. This test says so before a benchmark run does.
When item 1 re-records the reference from a 50-digit pipeline, those
specs are expected to fail here and are marked.
"""

import json
import sys
from pathlib import Path

import numpy as np

from susypv import SeedSpec, solve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import pool  # noqa: E402

CLI_ZS = np.geomspace(0.1, 20.0, 200)  # solve's --zmin/--zmax/--points defaults


def test_grid_pool_matches_cli_reference():
    reference = json.loads((PERFBENCH / "reference.json").read_text())["grid"]
    specs = pool("grid")
    assert len(reference) == len(specs) == 240
    off, probes = [], 0
    for i, s in enumerate(specs):
        sol = solve(SeedSpec.from_nu(s.ell, s.eps, s.nu, k=s.k, ordering=s.ordering))
        for j, w_re, w_im in reference[str(i)]["w"]:
            want = complex(w_re, w_im)
            sample = sol.w_eval(float(CLI_ZS[j]))
            probes += 1
            diff = abs(sample.w - want)
            if sample.flag != "ok" or diff > 1e-9 * max(1.0, abs(want)):
                off.append((i, j, sample.flag, diff))
    assert probes == 720
    assert not off, off
