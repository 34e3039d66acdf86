"""Workload definitions: spec pools, seeded task streams and task runners.

Every workload draws its tasks from a fixed pool of seed specs. The pool
is generated from a constant seed, so the reference digest in
``reference.json`` can record the outcome of every spec a run may meet;
the workload seed given on the command line only chooses which pool
entries a run takes and in which order. Pool generation uses plain
Python (``math.gamma`` for the non-singularity bound) and never the
library, which only ever sees the generated specs.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

POOL_SEED = 1512_01936
CERT_TOL = 1e-8
ORDERINGS = ("1234", "1324", "1423", "2314", "2413", "3412")
ALL_LABELS = tuple("".join(p) for p in itertools.permutations("1234"))

# Points per task: (z_min, z_max, n) of the geometric certificate grid.
GRIDS = {
    "grid": (0.1, 20.0, 200),
    "sweep": (0.1, 20.0, 16),
    "orderings": (0.1, 20.0, 200),
    "cli": (0.1, 20.0, 200),
}

# Round-robin k pattern per workload. Each round takes one pool entry
# of each listed k, so every run sees the same k mix whatever its seed.
# grid takes k = 4 and orderings k = 3 twice: the median and the tail then
# fall mid-way through the tasks of one k, not on a boundary between two k
# where one slow task would move them.
K_CYCLE = {
    "grid": (1, 2, 3, 4, 4),
    "sweep": (1, 2, 3, 4, 5, 6),
    "orderings": (1, 2, 3, 3, 4),
    "cli": (1, 2, 3, 4),
}

# Passes per run over the same tasks. A task's time is the fastest of its
# runs, which lie a pass (several seconds) apart: load from outside the
# benchmark comes in bursts of seconds and would otherwise set the spread
# between runs. The cli workload needs its whole run for distinct tasks to
# reach a tail percentile, so it makes one pass.
PASSES = {"grid": 3, "sweep": 3, "orderings": 3, "cli": 1}

# Rounds per second of measured time: a run with --seconds T makes
# round(T / passes * rate) rounds per pass, which took about T seconds on a
# 2-core x86-64 container at the seed commit.
ROUNDS_PER_S = {"grid": 1.35, "sweep": 11.0, "orderings": 0.6, "cli": 0.3}

POOL_PER_K = {"grid": 60, "sweep": 100, "orderings": 30}
# At l = 3, k = 4 some non-canonical orderings end uncertified; the sweep
# keeps such draws, the orderings workload times the certified path.
ELLS = {"grid": (0.0, 1.0, 2.0, 3.0), "sweep": (0.0, 1.0, 1.3, 2.0, 3.0, 5.0),
        "orderings": (0.0, 1.0, 2.0)}
API_WORKLOADS = ("grid", "sweep", "orderings")
WORKLOADS = API_WORKLOADS + ("cli",)


@dataclass(frozen=True)
class Spec:
    """One seed spec as plain data: what a user types on the command line."""

    ell: float
    eps: complex
    nu: complex  # complex('inf') selects the dominant-branch seed
    k: int
    ordering: str = "1234"

    def key(self) -> str:
        nu = "inf" if math.isinf(self.nu.real) else _pair(self.nu)
        return f"l={self.ell!r} eps={_pair(self.eps)} nu={nu} k={self.k} order={self.ordering}"

    def cli_args(self) -> list[str]:
        nu = "inf" if math.isinf(self.nu.real) else _pair(self.nu)
        return [f"--l={self.ell!r}", f"--eps={_pair(self.eps)}", f"--nu={nu}",
                f"--k={self.k}", f"--order={self.ordering}"]


WARMUP = Spec(1.0, complex(-0.4), complex(0.8), 2)  # the untimed warm-up task of set-up


def documented(outcome: str) -> bool:
    """certified, degenerate and config are documented outcomes; failed:* is not."""
    return not outcome.startswith("failed")


def _pair(c: complex) -> str:
    return f"{c.real!r}" if c.imag == 0 else f"{c.real!r},{c.imag!r}"


def _e0(ell: float) -> float:
    return 0.5 * ell + 0.75


def _nu_bound(ell: float, eps: float) -> float:
    """-G((1-2l)/2) / G((1-2l-4eps)/4), 0 at a pole of the denominator."""
    arg = (1.0 - 2.0 * ell - 4.0 * eps) / 4.0
    if abs(arg - round(arg)) < 1e-9 and round(arg) <= 0:
        return 0.0
    return -math.gamma((1.0 - 2.0 * ell) / 2.0) / math.gamma(arg)


def _r(x: float) -> float:
    return round(x, 4)


def _draw(rng: random.Random, k: int, ells: tuple, ordering: str, wide: bool) -> Spec:
    """One spec from one of the three seed regimes.

    ``wide`` adds the dominant-branch seed (nu = inf) and |Im eps1| up to
    11. At k >= 3 those draws often end uncertified or in a w==1 verdict,
    so only the sweep takes them; grid, orderings and cli time the path
    that ends in a certificate.
    """
    ell = rng.choice(ells)
    regime = rng.randrange(3)
    if regime == 0:  # real seed below E0, real mixture above the bound
        eps = _r(_e0(ell) - rng.uniform(0.3, 2.5))
        if wide and rng.random() < 0.15:
            return Spec(ell, complex(eps), complex("inf"), k, ordering)
        nu = _r(_nu_bound(ell, eps) + 10 ** rng.uniform(-1, 1))
        return Spec(ell, complex(eps), complex(nu), k, ordering)
    if regime == 1:  # complex mixture at a real energy
        eps = _r(_e0(ell) + rng.uniform(-2.5, 1.5))
        nu = complex(_r(rng.uniform(-1, 2)), _r(rng.choice((-1, 1)) * 10 ** rng.uniform(-1, 2)))
        return Spec(ell, complex(eps), nu, k, ordering)
    im = rng.uniform(0.5, 11.0 if wide else 3.0)
    eps = complex(_r(rng.uniform(-1, 2)), _r(rng.choice((-1, 1)) * im))
    nu = complex(_r(rng.uniform(-1, 2)), _r(rng.uniform(-10, 10)))
    return Spec(ell, eps, nu, k, ordering)


@lru_cache(maxsize=None)
def pool(workload: str) -> tuple[Spec, ...]:
    """The fixed spec pool of a workload; cli shares the grid pool."""
    if workload == "cli":
        return pool("grid")
    rng = random.Random(f"{POOL_SEED}:{workload}")
    out = []
    for k in sorted(set(K_CYCLE[workload])):
        for _ in range(POOL_PER_K[workload]):
            if workload == "sweep":
                out.append(_draw(rng, k, ELLS[workload], rng.choice(ALL_LABELS), wide=True))
            else:
                out.append(_draw(rng, k, ELLS[workload], "1234", wide=False))
    return tuple(out)


def task_stream(workload: str, seed: int):
    """Endless seeded stream of pool indices, k in round-robin order."""
    specs = pool(workload)
    rng = random.Random(f"{workload}:{seed}")
    strata = {k: [i for i, s in enumerate(specs) if s.k == k] for k in set(K_CYCLE[workload])}
    queues = {k: [] for k in strata}
    while True:
        for k in K_CYCLE[workload]:
            if not queues[k]:
                queues[k] = rng.sample(strata[k], len(strata[k]))
            yield queues[k].pop()


def task_list(workload: str, seed: int, seconds: float, passes: int = 1) -> list[int]:
    """Pool indices of one pass: whole rounds, as many as ROUNDS_PER_S allots.

    The count depends on the seconds asked for, never on how fast the code
    runs, so two commits measured with one seed time the same tasks.
    """
    n = max(1, round(seconds / passes * ROUNDS_PER_S[workload]))
    return list(itertools.islice(task_stream(workload, seed), n * len(K_CYCLE[workload])))


def pool_digest(workload: str) -> str:
    """sha256 over the keys of a whole pool; reference.json records it."""
    return hashlib.sha256("\n".join(s.key() for s in pool(workload)).encode()).hexdigest()


def z_grid(workload: str) -> np.ndarray:
    """The same points as the CLI's ``--zmin/--zmax/--points`` geometric grid."""
    return np.geomspace(*GRIDS[workload])


# -- running tasks through the public API -------------------------------------


@dataclass
class Outcome:
    """Final outcome of one task plus what the checks need."""

    outcome: str  # certified | degenerate:<cls> | config | failed:<why>
    masked: tuple = ()
    points: list | None = None  # (z, w, w_z, w_zz) at unmasked points
    params: tuple | None = None  # (a, b, c, d)
    construct_s: float = 0.0
    cert_s: float = 0.0
    max_residual: float | None = None
    wall_s: float = 0.0


def _certify(sol, zs) -> Outcome:
    t = perf_counter()
    try:
        max_res, samples = sol.residual_certificate(zs)
    except Exception as exc:  # any escape from the certificate is a failed task
        return Outcome(f"failed:{type(exc).__name__}", cert_s=perf_counter() - t)
    cert_s = perf_counter() - t
    masked = tuple(i for i, s in enumerate(samples) if s.flag != "ok")
    points = [(s.z, s.w, s.w_z, s.w_zz) for s in samples if s.flag == "ok"]
    p = sol.params
    ok = max_res <= CERT_TOL
    return Outcome("certified" if ok else "failed:uncertified", masked, points,
                   (complex(p.a), complex(p.b), complex(p.c), complex(p.d)),
                   0.0, cert_s, max_res)


def run_spec(sp, spec: Spec, zs) -> Outcome:
    """spec -> seed chain -> quartet -> classification -> certificate.

    Mirrors the CLI's mapping: ValueError while building the spec and
    SeedSpecError from solve are configuration errors (exit 2),
    DegenerateOutputError is a degenerate outcome (exit 3), anything else
    escaping is a failure.
    """
    t0 = perf_counter()
    sol = None
    try:
        seed_spec = sp.SeedSpec.from_nu(spec.ell, spec.eps, spec.nu, k=spec.k,
                                        ordering=spec.ordering)
    except ValueError:
        out = Outcome("config")
    else:
        try:
            sol = sp.solve(seed_spec)
        except sp.DegenerateOutputError as exc:
            out = Outcome(f"degenerate:{exc.classification}")
        except sp.oscillator.SeedSpecError:
            out = Outcome("config")
        except Exception as exc:  # the defect classes this benchmark counts
            out = Outcome(f"failed:{type(exc).__name__}")
    construct_s = perf_counter() - t0
    if sol is not None:
        out = _certify(sol, zs)
    out.construct_s = construct_s
    out.wall_s = perf_counter() - t0
    return out


def run_orderings(sp, spec: Spec, zs, begin_task=None) -> list[Outcome]:
    """One shared quartet, then all six orderings (the tables path).

    The quartet's construction is charged to the first ordering's task.
    ``begin_task(j)`` is called as task j starts, for tracing.
    """
    if begin_task:
        begin_task(0)
    t0 = perf_counter()
    quartet = None
    try:
        seed_spec = sp.SeedSpec.from_nu(spec.ell, spec.eps, spec.nu, k=spec.k)
    except ValueError:
        err = "config"
    else:
        try:
            quartet = sp.extremal_quartet(seed_spec)
        except sp.oscillator.SeedSpecError:
            err = "config"
        except Exception as exc:
            err = f"failed:{type(exc).__name__}"
    if quartet is None:
        outs = [Outcome(err) for _ in ORDERINGS]
        outs[0].wall_s = outs[0].construct_s = perf_counter() - t0
        return outs
    outs = []
    for j, label in enumerate(ORDERINGS):
        if begin_task and j:
            begin_task(j)
        t = t0 if not j else perf_counter()
        try:
            sol = sp.solution_from_quartet(quartet, label)
        except Exception as exc:
            sol, out = None, Outcome(f"failed:{type(exc).__name__}")
        construct_s = perf_counter() - t
        if sol is not None:
            generic = sol.classification == "generic"
            out = _certify(sol, zs) if generic else Outcome(f"degenerate:{sol.classification}")
        out.construct_s = construct_s
        out.wall_s = perf_counter() - t
        outs.append(out)
    return outs
