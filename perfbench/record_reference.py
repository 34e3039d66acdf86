"""Record the reference digest: the outcome of every pool spec.

    python3 perfbench/record_reference.py

For each workload pool entry it stores the outcome class and the masked
grid indices; for certified grid entries also w at three unmasked
points, which is what the cli workload checks its CSV output against.
The run uses the library under ``src/`` and applies the same
independent residual check as the benchmark. Re-recording is a change
to the benchmark, never part of a change that claims a gain.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from check import check_outcome
from workloads import API_WORKLOADS, pool, pool_digest, run_orderings, run_spec, z_grid

HERE = Path(__file__).resolve().parent
W_PROBES = (0, 100, 199)


def _entry(out, zs=None) -> dict:
    check_outcome(out)
    entry = {"outcome": out.outcome, "masked": list(out.masked)}
    if zs is not None and out.outcome == "certified":
        by_z = {z: w for z, w, _, _ in out.points}
        ok = [i for i in range(len(zs)) if float(zs[i]) in by_z]
        picks = sorted({min(ok, key=lambda i: abs(i - p)) for p in W_PROBES})
        entry["w"] = [[i, by_z[float(zs[i])].real, by_z[float(zs[i])].imag] for i in picks]
    return entry


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    import susypv as sp

    ref: dict = {"pool_digest": {w: pool_digest(w) for w in API_WORKLOADS}}
    for workload in API_WORKLOADS:
        zs = z_grid(workload)
        entries = {}
        for i, spec in enumerate(pool(workload)):
            if workload == "orderings":
                for j, out in enumerate(run_orderings(sp, spec, zs)):
                    entries[f"{i}:{j}"] = _entry(out)
            else:
                entries[str(i)] = _entry(run_spec(sp, spec, zs), zs if workload == "grid" else None)
        ref[workload] = entries
        counts: dict = {}
        for e in entries.values():
            counts[e["outcome"]] = counts.get(e["outcome"], 0) + 1
        print(workload, json.dumps(counts, sort_keys=True), flush=True)
    (HERE / "reference.json").write_text(json.dumps(ref, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
