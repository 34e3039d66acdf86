"""Run every workload untraced and traced, write a BENCH_*.json summary and
print the open-items table (import time, CLI k = 1/3, certificate
k = 1..4, per-layer shares).

    python3 perfbench/report.py --seed 1 --seconds 16 --out perfbench/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, documented  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    dest = OUT / f"report-{workload}-{trace}.json"
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                           "--out", str(dest)], cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed: {proc.stderr[-2000:]}")
    print(proc.stdout, end="", flush=True)
    return json.loads(dest.read_text())


def _by_k(records: list, key: str, agg=statistics.median) -> dict:
    ks: dict = {}
    for r in records:
        if documented(r["outcome"]) and r.get(key) is not None:
            ks.setdefault(r["k"], []).append(r[key])
    return {k: agg(v) for k, v in sorted(ks.items())}


def _construct_share(records: list) -> float:
    return sum(r["construct_s"] for r in records) / sum(r["s"] for r in records)


def _span_shares(path: Path, records: list, k: int) -> dict:
    """Self and cumulative time per layer over the traced tasks with this k,
    as shares of those tasks' wall time."""
    sp = np.load(path)
    tasks = [i for i, r in enumerate(records) if r["k"] == k]
    wall = sum(records[i]["s"] for i in tasks)
    names, name, parent = sp["names"], sp["name"], sp["parent"]
    dur = sp["end"] - sp["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    sel = np.isin(sp["task"], tasks)
    outer = ~has_parent | (name[np.maximum(parent, 0)] != name)
    out = {}
    for j, nm in enumerate(names):
        mask = sel & (name == j)
        if mask.any():
            out[str(nm)] = {"self": float((dur - child)[mask].sum() / wall),
                            "cumulative": float(dur[mask & outer].sum() / wall)}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    runs = {w: {t: _run(w, args.seed, args.seconds, t) for t in (0, 1)} for w in WORKLOADS}
    grid, cli = runs["grid"], runs["cli"]
    cert_ms = {k: 1e3 * v for k, v in _by_k(grid[0]["records"], "cert_s").items()}
    worst = _by_k(grid[0]["records"], "max_residual", max)
    cli_s = _by_k(cli[0]["records"], "s")
    shares = _span_shares(OUT / "spans-grid.npz", grid[1]["traced_records"], 3)
    table = [
        ("import susypv.cli, fresh process (cli traced run)",
         f"{cli[1]['metrics']['cli.import_s']['value']:.3f} s"),
        ("set-up: import susypv + one warm-up task (grid)",
         f"{grid[0]['metrics']['setup_s']['value']:.3f} s"),
        ("susypv solve subprocess, k=1 / k=3",
         f"{cli_s.get(1, float('nan')):.3f} s / {cli_s.get(3, float('nan')):.3f} s"),
        ("residual_certificate, 200 pts, k=1..4 (grid medians)",
         " / ".join(f"{cert_ms[k]:.0f}" for k in sorted(cert_ms)) + " ms"),
        ("worst certificate residual, k=1..4",
         " / ".join(f"{worst[k]:.0e}" for k in sorted(worst))),
        ("construction share of task time (spec to classified solution), grid / sweep",
         " / ".join(f"{100 * _construct_share(runs[w][0]['records']):.0f} %"
                    for w in ("grid", "sweep"))),
    ]
    for name in ("susy.WronskianStack.jet", "specialfunctions.kummer_1f1", "jets.series_mul",
                 "oscillator.SchrodingerSolution.jet_values", "painleve.PVSolution.w_eval"):
        if name in shares:
            s = shares[name]
            table.append((f"share of k=3 grid task time: {name}",
                          f"{100 * s['cumulative']:.0f} % cumulative, "
                          f"{100 * s['self']:.0f} % self"))
    for w in WORKLOADS:
        m = runs[w][1]["metrics"]
        plain = m["trace.untraced_tasks_per_s"]["value"]
        traced = m["trace.traced_tasks_per_s"]["value"]
        table.append((f"tracing overhead, {w}",
                      f"{plain:.3g} -> {traced:.3g} tasks/s ({100 * (1 - traced / plain):.0f} %)"))
    width = max(len(a) for a, _ in table)
    print("\n".join(f"{a:<{width}}  {b}" for a, b in table))

    bench = {
        "command": f"python3 perfbench/report.py --seed {args.seed} --seconds {args.seconds:g}",
        "context": {k: v for k, v in grid[0]["context"].items()
                    if k not in ("workload", "why", "points_per_task")},
        "open_items": dict(table),
        "k3_shares": shares,
        "workloads": {w: {"why": runs[w][0]["context"]["why"],
                          "end_to_end": runs[w][0]["metrics"], "notes": runs[w][0]["notes"],
                          "counts": runs[w][0]["counts"], "per_layer": runs[w][1]["metrics"]}
                      for w in WORKLOADS},
    }
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
