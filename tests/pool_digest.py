"""Print one sha256 per benchmark pool over everything a solve produces.

Usage: ``python tests/pool_digest.py [grid] [sweep] [orderings]`` (all three
by default). Each pool of ``perfbench/workloads.py`` is run in full through
``run_spec`` (``run_orderings`` for the orderings pool, all six orderings of
each spec), and the digest covers, per task in pool order: the outcome
class, the masked indices, every (z, w, w_z, w_zz) at unmasked points, the
max residual and (a, b, c, d). Floats are written with ``float.hex`` and
-0.0 as 0.0, so equal digests mean bit-identical outputs. The library is
the one under this checkout's ``src/``; run the script in two checkouts to
check that a change claiming bit identity keeps it. A change that moves
arithmetic is judged against the pools' rounding noise instead, by
``tests/pool_envelope.py``. Nothing is written.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import susypv as sp  # noqa: E402
from workloads import API_WORKLOADS, pool, run_orderings, run_spec, z_grid  # noqa: E402


def _num(c) -> str:
    c = complex(c)
    return f"{(c.real + 0.0).hex()},{(c.imag + 0.0).hex()}"


def _encode(out) -> str:
    fields = [out.outcome, " ".join(map(str, out.masked))]
    fields.append("-" if out.max_residual is None else _num(out.max_residual))
    fields.append("-" if out.params is None else " ".join(map(_num, out.params)))
    fields.extend(" ".join(map(_num, p)) for p in out.points or ())
    return "|".join(fields)


def outcomes(workload: str):
    """The Outcome of every task of one pool, in pool order."""
    zs = z_grid(workload)
    for spec in pool(workload):
        yield from run_orderings(sp, spec, zs) if workload == "orderings" else [run_spec(sp, spec, zs)]


def digest(workload: str) -> tuple[int, str]:
    """(number of tasks, sha256) of one pool."""
    h, n = hashlib.sha256(), 0
    for out in outcomes(workload):
        h.update((_encode(out) + "\n").encode())
        n += 1
    return n, h.hexdigest()


if __name__ == "__main__":
    for name in sys.argv[1:] or API_WORKLOADS:
        if name not in API_WORKLOADS:
            sys.exit(f"unknown pool {name!r}; choose from {', '.join(API_WORKLOADS)}")
        n, hexdigest = digest(name)
        print(f"{name} {n} {hexdigest}", flush=True)
