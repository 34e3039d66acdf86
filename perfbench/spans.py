"""Span tracing around the library's public callables, from outside it.

``Tracer.install`` replaces each listed callable, in every ``susypv``
module namespace that holds it by name, with a wrapper that records a
span (name, start, end, parent span, task id). Methods are wrapped as
class attributes, so inherited and overriding call sites both pass
through. Spans stay in memory in flat arrays and are written out by
``dump`` when the run ends. Self time is a span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

# (module, qualified name) of every traced callable.
LAYERS = (
    ("specialfunctions", "kummer_1f1"),
    ("oscillator", "SeedSolution.value_and_derivative"),
    ("oscillator", "SchrodingerSolution.jet_values"),
    ("oscillator", "seed_chain"),
    ("jets", "series_mul"),
    ("jets", "series_div"),
    ("susy", "WronskianStack.jet"),
    ("susy", "WronskianStack.row_scale"),
    ("susy", "WronskianRatioState.value_and_derivative"),
    ("susy", "PartnerPotential.deriv_jet"),
    ("susy", "extremal_quartet"),
    ("painleve", "PVSolution.w_eval"),
    ("painleve", "classify_degenerate"),
    ("painleve", "solve"),
    ("cli", "cmd_solve"),
    ("hierarchies", "detect"),
)

# Layers whose (object, x) reuse is counted: the work the per-x caches serve.
REPEAT_KEYS = {
    "susy.WronskianStack.jet": "susy.WronskianStack.jet.repeat_ratio",
    "oscillator.SchrodingerSolution.jet_values": "oscillator.jet_values.repeat_ratio",
}


class Tracer:
    """Per-layer calls, self and cumulative seconds, repeat and mask counts, and spans."""

    def __init__(self):
        self.names = [f"{m}.{q}" for m, q in LAYERS]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n  # outermost spans only, so recursion is not double counted
        self.depth = [0] * n
        self.repeats = {name: 0 for name in REPEAT_KEYS}
        self.seen = {name: weakref.WeakKeyDictionary() for name in REPEAT_KEYS}
        self.points = 0
        self.masked = 0
        self.task = -1
        self._stack: list = []  # [span id, child seconds]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._restore: list = []

    def begin_task(self, task_id: int) -> None:
        self.task = task_id

    def _wrap(self, fn, idx: int):
        tracer = self
        name = self.names[idx]
        seen = self.seen.get(name)
        count_masked = name == "painleve.PVSolution.w_eval"
        stack = self._stack
        sn, sp, st, ss, se = (self.span_name, self.span_parent, self.span_task,
                              self.span_start, self.span_end)

        def wrapper(*args, **kwargs):
            if seen is not None:
                xs = seen.get(args[0])
                if xs is None:
                    xs = seen[args[0]] = set()
                if args[1] in xs:
                    tracer.repeats[name] += 1
                else:
                    xs.add(args[1])
            sid = len(sn)
            sn.append(idx)
            sp.append(stack[-1][0] if stack else -1)
            st.append(tracer.task)
            se.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            tracer.depth[idx] += 1
            t0 = perf_counter()
            ss.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                se[sid] = t1
                tracer.calls[idx] += 1
                tracer.self_s[idx] += dur - frame[1]
                tracer.depth[idx] -= 1
                if tracer.depth[idx] == 0:
                    tracer.incl_s[idx] += dur
                if stack:
                    stack[-1][1] += dur
            if count_masked:
                tracer.points += 1
                if result.flag != "ok":
                    tracer.masked += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every layer; import ``susypv.cli`` first so its names are covered.

        A layer the library no longer has is left out and reports 0 calls.
        """
        mods = {n: m for n, m in sys.modules.items() if n == "susypv" or n.startswith("susypv.")}
        for idx, (mod, qual) in enumerate(LAYERS):
            owner = mods.get(f"susypv.{mod}")
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(owner, cls_name, None)
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is not None:
                    self._restore.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(fn, idx))
                continue
            fn = getattr(owner, qual, None)
            if fn is None:
                continue
            wrapped = self._wrap(fn, idx)
            for m in mods.values():
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._restore.append((m, attr, fn))
                        setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def summary(self) -> dict:
        """Totals per layer; callers divide by the number of traced tasks."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "incl_s": dict(zip(self.names, self.incl_s)),
            "repeats": dict(self.repeats),
            "points": self.points,
            "masked": self.masked,
            "spans": len(self.span_name),
        }

    def dump(self, path) -> None:
        """Write every span: name index, parent span, task id, start, end."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 task=np.frombuffer(self.span_task, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
