"""Judge the benchmark pools' outputs against their own rounding noise.

Usage:
    python tests/pool_envelope.py record PATH    # in the parent checkout
    python tests/pool_envelope.py compare PATH   # in the candidate checkout

Both modes run the three pools of ``perfbench/workloads.py`` through the
library under this checkout's ``src/``, with ``pool_digest.outcomes``.

``record`` runs the pools once plain and once per salt of ``SALTS`` with
every ``kummer_1f1`` value multiplied by (1 ± 2**-52), the sign the parity
of ``hash((a, x, salt))``; a grid call is nudged element by element, with
its row's a and its point's x. Numbers hash alike in every process, so the
nudge and the file are deterministic. It writes a JSON envelope: per task
in pool order, the (class, masked set) pairs seen, plain first, and at each point
unmasked in the plain run the plain w and its spread, the largest
|w_nudged - w| over the nudged runs where that point is unmasked too.

``compare`` runs the pools once, plain, and checks them against an
envelope. It passes when every task with a single pair keeps that class and
masked set, and every w unmasked in both runs is within
max(4·spread, 1e-13·max(1, |w|)) of the recorded one. Tasks with more than
one pair pass with any pair and are listed. It prints the worst ratio of
difference to tolerance with its task and point, and exits 1 on failure.
"""

import contextlib
import json
import sys

import numpy as np

from pool_digest import outcomes, sp
from workloads import API_WORKLOADS, z_grid

SALTS = (1, 2, 3)
ULP = 2.0**-52
REL_FLOOR = 1e-13


@contextlib.contextmanager
def nudged_kummer(salt: int):
    """Every kummer_1f1 value times (1 ± ULP), on both names the library calls.

    A grid call is nudged element by element: element (r, i) as the scalar
    call at (a[r], x[i]) would be, its sign hashed from those Python scalars.
    """
    modules = (sp.specialfunctions, sp.oscillator)
    plain = sp.specialfunctions.kummer_1f1

    def nudge(value: complex, a, x) -> complex:
        return value * (1.0 + ULP * (1 - 2 * (hash((a, x, salt)) & 1)))

    def kummer_1f1(a, b, x):
        value = plain(a, b, x)
        if np.ndim(value) == 0:
            return nudge(value, a, x)
        xs = np.ravel(x).tolist()
        return np.array([[nudge(v, ar, xi) for v, xi in zip(vals, xs)]
                         for vals, ar in zip(value.tolist(), np.ravel(a).tolist())])

    for m in modules:
        m.kummer_1f1 = kummer_1f1
    try:
        yield
    finally:
        for m in modules:
            m.kummer_1f1 = plain


def run_pools() -> dict:
    """One pass: per pool, per task, (class, masked list, {point index: w})."""
    runs = {}
    for name in API_WORKLOADS:
        npts, tasks = len(z_grid(name)), []
        for out in outcomes(name):
            masked = set(out.masked)
            unmasked = (i for i in range(npts) if i not in masked)
            tasks.append((out.outcome, list(out.masked),
                          {i: p[1] for i, p in zip(unmasked, out.points or ())}))
        runs[name] = tasks
    return runs


def envelope(plain: dict, nudged: list[dict]) -> dict:
    """The JSON-ready envelope of a plain pass and its nudged passes."""
    env = {}
    for name, tasks in plain.items():
        env[name] = []
        for t, (cls, masked, ws) in enumerate(tasks):
            pairs, spread = [[cls, masked]], dict.fromkeys(ws, 0.0)
            for run in nudged:
                cls2, masked2, ws2 = run[name][t]
                if [cls2, masked2] not in pairs:
                    pairs.append([cls2, masked2])
                for i in spread.keys() & ws2.keys():
                    spread[i] = max(spread[i], abs(ws2[i] - ws[i]))
            env[name].append({"pairs": pairs,
                              "w": [[i, w.real, w.imag, spread[i]] for i, w in ws.items()]})
    return env


def _pair(pair) -> str:
    cls, masked = pair
    return f"{cls} masked={masked}"


def compare(parent: dict, candidate: dict) -> tuple[bool, list[str]]:
    """(passed, report lines) for a one-pass candidate envelope against the parent's."""
    failures, unstable, checked = [], [], 0
    worst = (0.0, "no point")
    for name, tasks in parent.items():
        got_tasks = candidate[name]
        if len(got_tasks) != len(tasks):
            failures.append(f"{name}: {len(got_tasks)} tasks, the envelope has {len(tasks)}")
            continue
        for t, (env, got) in enumerate(zip(tasks, got_tasks)):
            pair = got["pairs"][0]
            if len(env["pairs"]) > 1:
                unstable.append(f"unstable {name} {t}: {' | '.join(map(_pair, env['pairs']))}"
                                f"; candidate {_pair(pair)}")
            elif pair != env["pairs"][0]:
                failures.append(f"{name} {t}: {_pair(pair)}, envelope {_pair(env['pairs'][0])}")
            ws = {i: complex(re, im) for i, re, im, _ in got["w"]}
            for i, re, im, spread in env["w"]:
                if i not in ws:
                    continue
                w = complex(re, im)
                tol = max(4.0 * spread, REL_FLOOR * max(1.0, abs(w)))
                ratio = abs(ws[i] - w) / tol
                checked += 1
                if ratio > worst[0]:
                    worst = (ratio, f"{name} task {t} point {i}")
                if not ratio <= 1.0:  # NaN fails too
                    failures.append(f"{name} task {t} point {i}: |dw| = {abs(ws[i] - w):.3g} > tol {tol:.3g}")
    ntasks = sum(map(len, parent.values()))
    lines = unstable + failures[:20]
    if len(failures) > 20:
        lines.append(f"... and {len(failures) - 20} more failures")
    lines.append(f"{'PASS' if not failures else 'FAIL'}: {ntasks} tasks, {len(unstable)} unstable, "
                 f"{checked} points checked, worst ratio {worst[0]:.3g} at {worst[1]}")
    return not failures, lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("record", "compare"):
        sys.exit("usage: pool_envelope.py record|compare PATH")
    mode, path = argv
    plain = run_pools()
    if mode == "record":
        nudged = []
        for salt in SALTS:
            with nudged_kummer(salt):
                nudged.append(run_pools())
        with open(path, "w") as f:
            json.dump(envelope(plain, nudged), f, separators=(",", ":"))
        return 0
    with open(path) as f:
        parent = json.load(f)
    passed, lines = compare(parent, envelope(plain, []))
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
