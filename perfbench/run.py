"""Benchmark: time to a certified Painleve V transcendent, end to end and per layer.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 16 --trace 0

Workloads (why each exists is recorded in BENCHMARK.json):
  grid       k = 1..4, canonical ordering, 200-point certificate, fresh quartet per task
  sweep      k = 1..6, any ordering, 16-point certificate: construction-heavy
  orderings  one quartet per draw, all six orderings share it (the tables path)
  cli        ``python -m susypv.cli solve ... --out <csv>`` child processes on the grid specs

Load is a closed loop with one client: one task at a time, the next
starting when the previous one ends. API workloads run in a fresh worker
process (``worker.py``); cli tasks are single child processes. The seed
fixes the task list and --seconds its length (``workloads.ROUNDS_PER_S``),
so two commits measured with one seed time the same tasks. API workloads
run their list in three passes and time each task as its fastest run.

--trace 0 prints the end-to-end metrics; --trace 1 runs a list sized for
half the time untraced and then traced (``spans.py``), and prints the
per-layer metrics with the tracing overhead. Every output is checked:
certified values by an independent mpmath residual (``check.py``), and
every task's outcome class and masked grid indices against the digest
recorded at the seed commit (``reference.json``). The last line of
stdout is the JSON result; human-readable lines come before it.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 3  # set-up is measured this many times per run; the median is reported
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from check import compare  # noqa: E402
from spans import REPEAT_KEYS  # noqa: E402
from workloads import (CERT_TOL, GRIDS, PASSES, WARMUP, WORKLOADS, documented,  # noqa: E402
                       pool, pool_digest, task_list)

# Outcomes that mean a returned value is wrong, not that a task failed honestly.
WRONG_OUTPUT = ("failed:check", "failed:unstable")
# Layers that some workloads never call (orderings never calls solve, the API
# workloads never run the CLI): their self time would read 0 on every such run,
# so it is printed and kept in --out but left out of the JSON result line.
PRINT_ONLY = ("painleve.solve.self_s", "cli.cmd_solve.self_s", "hierarchies.detect.self_s")
_T0 = perf_counter()


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _remaining() -> float:
    left = DEADLINE_S - (perf_counter() - _T0)
    if left <= 1.0:
        raise BenchError("out of time")
    return left


def _worker(workload: str, seed: int, seconds: float, mode: str, spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=ROOT,
                          timeout=_remaining())
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the cli workload -----------------------------------------------------------


def _cli_outcome(proc, csv_path: Path, ref: dict | None) -> tuple[str, list]:
    """Outcome class and masked indices of one `susypv solve` child."""
    err = proc.stderr
    if "Traceback" in err:
        last = err.strip().splitlines()[-1]
        return f"failed:{last.split(':')[0].rsplit('.', 1)[-1]}", []
    if proc.returncode == 3:
        m = re.search(r"degenerate output: (\S+)", err)
        return f"degenerate:{m.group(1) if m else '?'}", []
    if proc.returncode == 2:
        return "config", []
    if proc.returncode not in (0, 1):
        return f"failed:exit{proc.returncode}", []
    lines = csv_path.read_text().splitlines()
    meta = json.loads(lines[0][2:])
    col = {name: j for j, name in enumerate(lines[1].split(","))}
    rows = [ln.split(",") for ln in lines[2:]]
    flag = col["flag"]
    masked = [i for i, r in enumerate(rows) if r[flag] != "ok"]
    if proc.returncode == 1 or float(meta["max_residual"]) > CERT_TOL:
        return "failed:uncertified", masked
    # independent check of the written values against the reference transcendent
    for i, w_re, w_im in (ref or {}).get("w", []):
        want = complex(w_re, w_im)
        got = complex(float(rows[i][col["w_re"]]), float(rows[i][col["w_im"]]))
        if rows[i][flag] != "ok" or abs(got - want) > 1e-9 * max(1.0, abs(want)):
            return "failed:check", masked
    return "certified", masked


def _cli_task(n: int, idx: int, refs: dict, traced: bool) -> dict:
    spec = pool("cli")[idx]
    tmp = OUT / "cli"
    csv_path = tmp / f"task{n}.csv"
    solve = ["solve", *spec.cli_args(), f"--out={csv_path}"]
    if traced:
        cmd = [sys.executable, str(HERE / "cli_traced.py"), str(tmp / f"task{n}.json"),
               str(tmp / f"spans{n}.npz"), str(n), *solve]
    else:
        cmd = [sys.executable, "-m", "susypv.cli", *solve]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=ROOT,
                          timeout=min(120.0, _remaining()))
    wall = perf_counter() - t0
    outcome, masked = _cli_outcome(proc, csv_path, refs.get(str(idx)))
    csv_path.unlink(missing_ok=True)
    return {"i": idx, "task": str(idx), "k": spec.k, "s": wall, "outcome": outcome,
            "masked": masked}


def _cli_phase(units, refs: dict, traced: bool = False) -> list:
    """Closed loop of cli children over units, one at a time."""
    records = []
    for idx in units:
        records.append(_cli_task(len(records), idx, refs, traced))
    return records


def _run_cli(seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    tmp = OUT / "cli"
    tmp.mkdir(parents=True, exist_ok=True)
    setups = []
    for _ in range(0 if trace else SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "susypv.cli", "solve", *WARMUP.cli_args(),
                               f"--out={tmp / 'warmup.csv'}"],
                              capture_output=True, text=True, env=_env(), cwd=ROOT,
                              timeout=min(120.0, _remaining()))
        setups.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"cli warm-up exited {proc.returncode}: {proc.stderr[-2000:]}")
    units = task_list("cli", seed, seconds / 2 if trace else seconds)
    records = _cli_phase(units, refs)
    result = {"setup_samples": setups, "records": records, "passes": PASSES["cli"],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    if trace:
        t_records = _cli_phase(units, refs, traced=True)
        n = len(t_records)
        summaries = [json.loads((tmp / f"task{i}.json").read_text()) for i in range(n)]
        _merge_spans([tmp / f"spans{i}.npz" for i in range(n)], OUT / "spans-cli.npz")
        for i in range(n):
            (tmp / f"task{i}.json").unlink()
        result.update(traced_records=t_records,
                      trace=_sum_traces([s["trace"] for s in summaries]),
                      import_s=statistics.median(s["import_s"] for s in summaries))
    return result


def _sum_traces(traces: list) -> dict:
    total = json.loads(json.dumps(traces[0]))
    for t in traces[1:]:
        for key in ("calls", "self_s", "incl_s", "repeats"):
            for name, v in t[key].items():
                total[key][name] += v
        for key in ("points", "masked", "spans"):
            total[key] += t[key]
    return total


def _merge_spans(paths: list, dest: Path) -> None:
    parts = [dict(np.load(p)) for p in paths]
    offset, parents = 0, []
    for part in parts:
        par = part["parent"].astype(np.int64)
        parents.append(np.where(par >= 0, par + offset, -1))
        offset += len(par)
    merged = {key: np.concatenate([p[key] for p in parts])
              for key in ("name", "task", "start", "end")}
    np.savez(dest, names=parts[0]["names"], parent=np.concatenate(parents), **merged)
    for p in paths:
        p.unlink()


# -- metrics --------------------------------------------------------------------


def _tail(values: list) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return statistics.median(v), 50.0
    idx = n - 11
    return v[idx], 100.0 * (idx + 1) / n


def _classify(records: list, refs: dict) -> dict:
    attempted = len(records)
    failed = sum(not documented(r["outcome"]) for r in records)
    mismatched = sum(not compare(r["outcome"], r["masked"], refs.get(r["task"]))
                     for r in records)
    outcomes: dict = {}
    for r in records:
        outcomes[r["outcome"]] = outcomes.get(r["outcome"], 0) + 1
    return {"attempted": attempted, "failed": failed, "mismatched": mismatched,
            "outcomes": dict(sorted(outcomes.items()))}


def _rate(records: list) -> float:
    """Documented tasks per second of task wall time, failed tasks' time included."""
    return sum(documented(r["outcome"]) for r in records) / sum(r["s"] for r in records)


def _end_to_end(res: dict, counts: dict) -> tuple[dict, dict]:
    docs = [r["s"] * 1e3 for r in res["records"] if documented(r["outcome"])]
    if not docs:
        raise BenchError("no task reached a documented outcome")
    tail, pct = _tail(docs)
    attempted = counts["attempted"]
    metrics = {
        "task_ms.p50": (statistics.median(docs), "ms"),
        "task_ms.tail": (tail, "ms"),
        "tasks_per_s": (_rate(res["records"]), "1/s"),
        "setup_s": (statistics.median(res["setup_samples"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "documented_frac": (1.0 - counts["failed"] / attempted, "ratio"),
        "match_frac": (1.0 - counts["mismatched"] / attempted, "ratio"),
    }
    notes = {"tail_percentile": pct, "documented_tasks": len(docs),
             "setup_runs": len(res["setup_samples"]), "passes": res["passes"],
             "fail_frac": counts["failed"] / attempted,
             "mismatch_frac": counts["mismatched"] / attempted}
    return metrics, notes


def _per_layer(res: dict) -> dict:
    tr = res["trace"]
    n = max(len(res["traced_records"]), 1)
    out = {}
    for name in tr["calls"]:
        out[f"{name}.calls"] = (tr["calls"][name] / n, "calls/task")
        out[f"{name}.self_s"] = (tr["self_s"][name] / n, "s/task")
    out["cli.import_s"] = (res["import_s"], "s")
    for name, metric in REPEAT_KEYS.items():
        out[metric] = (tr["repeats"][name] / max(tr["calls"][name], 1), "ratio")
    out["painleve.masked_ratio"] = (tr["masked"] / max(tr["points"], 1), "ratio")
    plain, traced = _rate(res["records"]), _rate(res["traced_records"])
    out["trace.untraced_tasks_per_s"] = (plain, "1/s")
    out["trace.traced_tasks_per_s"] = (traced, "1/s")
    out["trace.overhead_tasks_per_s"] = (plain - traced, "1/s")
    return out


def _context(workload: str, seed: int) -> dict:
    why = ""
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        for w in json.loads(bench.read_text()).get("workloads", []):
            if w.get("name") == workload:
                why = w.get("why", "")
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"workload": workload, "seed": seed, "why": why, "nproc": os.cpu_count(),
            "python": platform.python_version(), **versions,
            "points_per_task": GRIDS[workload][2],
            "load": "closed loop, one client, one task at a time"}


def main() -> int:
    ap = argparse.ArgumentParser(description="susypv benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the full record (tasks, trace) here")
    args = ap.parse_args()

    if not (SRC / "susypv" / "__init__.py").is_file():
        print(f"no library source at {SRC / 'susypv'}", file=sys.stderr)
        return 2
    try:
        ref = json.loads((HERE / "reference.json").read_text())
        ref_key = "grid" if args.workload == "cli" else args.workload
        if ref["pool_digest"][ref_key] != pool_digest(ref_key):
            raise BenchError("reference.json was recorded for another spec pool")
        refs = ref[ref_key]
        OUT.mkdir(exist_ok=True)
        if args.workload == "cli":
            res = _run_cli(args.seed, args.seconds, bool(args.trace), refs)
        else:
            spans = OUT / f"spans-{args.workload}.npz" if args.trace else None
            res = _worker(args.workload, args.seed, args.seconds,
                          "trace" if args.trace else "run", spans)
            res["setup_samples"] = [res["setup_s"]]
            if not args.trace:
                for _ in range(SETUP_RUNS - 1):
                    res["setup_samples"].append(
                        _worker(args.workload, args.seed, 0, "setup")["setup_s"])
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    counts = _classify(res["records"], refs)
    wrong = sum(r["outcome"] in WRONG_OUTPUT
                for r in res["records"] + res.get("traced_records", []))
    context = _context(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s: {context['why']}")
    print("context: " + ", ".join(f"{k}={context[k]}" for k in
                                  ("nproc", "python", "numpy", "scipy", "mpmath",
                                   "points_per_task", "load")))
    print(f"tasks: {counts['attempted']} attempted, {counts['failed']} failed, "
          f"{counts['mismatched']} differ from the reference; outcomes {counts['outcomes']}")
    record = {"context": context, "counts": counts, **res}
    if args.trace:
        metrics = _per_layer(res)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<56} {value:.6g} {unit}")
    else:
        metrics, notes = _end_to_end(res, counts)
        record["notes"] = notes
        for name, (value, unit) in metrics.items():
            print(f"  {name:<16} {value:.6g} {unit}")
        print(f"  {'fail_frac':<16} {notes['fail_frac']:.6g} ratio")
        print(f"  {'mismatch_frac':<16} {notes['mismatch_frac']:.6g} ratio")
        print(f"  task_ms.tail is p{notes['tail_percentile']:.1f} of {notes['documented_tasks']} "
              f"documented tasks, each timed as the fastest of {notes['passes']} passes; "
              f"setup_s is the median of {notes['setup_runs']} set-ups")
    if wrong:
        print(f"{wrong} tasks returned values that fail the independent checks")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    result = {k: v for k, v in record["metrics"].items() if k not in PRINT_ONLY}
    print(json.dumps({"correct": wrong == 0, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
