"""One fresh worker process for an API workload (grid, sweep, orderings).

Modes:
  setup  cold ``import susypv`` plus one untimed warm-up task, then exit;
  run    setup, then up to PASSES passes over the run's task list (tracing
         off), fewer when the machine is so slow that another pass would
         take the run past 1.5 x --seconds; a task's time is its fastest run;
  trace  cold ``import susypv.cli``, warm-up, one untraced pass over a list
         sized for --seconds / 2, then the same tasks with every layer wrapped.
The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

from check import check_outcome
from workloads import PASSES, WARMUP, pool, run_orderings, run_spec, task_list, z_grid


def _record(idx: int, k: int, j: int, out) -> dict:
    res = out.max_residual
    return {"i": idx, "task": f"{idx}:{j}" if j >= 0 else str(idx), "k": k,
            "s": out.wall_s, "construct_s": out.construct_s, "cert_s": out.cert_s,
            "outcome": out.outcome, "masked": list(out.masked),
            "max_residual": res if res is None or math.isfinite(res) else "inf"}


def _execute(sp, workload: str, units, zs, tracer=None) -> tuple[list, list]:
    """One pass over units; returns (records, outcomes).

    A unit is one spec, or for orderings one quartet and its six tasks.
    """
    records, outcomes = [], []
    for idx in units:
        spec = pool(workload)[idx]
        base = len(outcomes)
        begin = (lambda j: tracer.begin_task(base + j)) if tracer is not None else None
        if workload == "orderings":
            outs = run_orderings(sp, spec, zs, begin)
        else:
            if begin:
                begin(0)
            outs = [run_spec(sp, spec, zs)]
        for j, out in enumerate(outs):
            records.append(_record(idx, spec.k, j if workload == "orderings" else -1, out))
            outcomes.append(out)
    return records, outcomes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("grid", "sweep", "orderings"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", default=None, help="where trace mode writes its spans")
    args = ap.parse_args()
    workload = args.workload

    t0 = perf_counter()
    if args.mode == "trace":
        import susypv.cli  # noqa: F401  (cli names must exist before wrapping)
    import susypv as sp
    import_s = perf_counter() - t0
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(sp.__file__).resolve().parent.parent != src:
        print(f"susypv imported from {sp.__file__}, not from {src}", file=sys.stderr)
        return 2
    zs = z_grid(workload)
    if workload == "orderings":
        run_orderings(sp, WARMUP, zs)
    else:
        run_spec(sp, WARMUP, zs)
    result = {"import_s": import_s, "setup_s": perf_counter() - t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    passes = PASSES[workload] if args.mode == "run" else 1
    units = task_list(workload, args.seed, args.seconds / (1 if args.mode == "run" else 2), passes)
    t_first = perf_counter()
    records, outcomes = _execute(sp, workload, units, zs)
    made = 1
    while made < passes and (perf_counter() - t_first) * (made + 1) / made <= 1.5 * args.seconds:
        made += 1  # a further pass only while the run stays within 1.5 x --seconds
        for rec, first, rep, out in zip(records, outcomes, *_execute(sp, workload, units, zs)):
            for key in ("s", "construct_s", "cert_s"):
                rec[key] = min(rec[key], rep[key])
            if (out.outcome, out.masked, out.points) != (first.outcome, first.masked, first.points):
                first.outcome = "failed:unstable"  # a repeat gave other values
    result.update(records=records, passes=made,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    checked = list(zip(records, outcomes))
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            t_records, t_outcomes = _execute(sp, workload, units, zs, tracer)
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.dump(args.spans)
        result.update(traced_records=t_records, trace=tracer.summary())
        checked += zip(t_records, t_outcomes)

    for rec, out in checked:  # the independent check runs untimed
        check_outcome(out)
        rec["outcome"] = out.outcome
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
