"""Tests of the benchmark itself: seeded inputs, checks and reference.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import susypv
from check import check_outcome, compare, worst_defect
from run import _cli_outcome, _tail
from workloads import (API_WORKLOADS, WORKLOADS, Spec, pool, pool_digest, run_spec, task_list,
                       z_grid)

REFERENCE = Path(__file__).resolve().parent.parent / "reference.json"


def stream_digest(workload: str, seed: int) -> str:
    """sha256 over the keys of the specs a 20-second run takes."""
    specs = pool(workload)
    keys = "\n".join(specs[i].key() for i in task_list(workload, seed, 20.0))
    return hashlib.sha256(keys.encode()).hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_specs(workload):
    assert stream_digest(workload, 7) == stream_digest(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_gives_other_specs(workload):
    assert stream_digest(workload, 7) != stream_digest(workload, 8)


def test_reference_covers_the_pools():
    ref = json.loads(REFERENCE.read_text())
    for workload in API_WORKLOADS:
        assert ref["pool_digest"][workload] == pool_digest(workload)


@pytest.fixture(scope="module")
def certified():
    out = run_spec(susypv, Spec(1.0, complex(-0.4), complex(0.8), 1), z_grid("grid"))
    assert out.outcome == "certified"
    return out


def test_independent_check_passes_certified_values(certified):
    assert worst_defect(certified.points, certified.params) < 1e-10


def test_independent_check_catches_perturbed_w(certified):
    bad = replace(certified, points=list(certified.points))
    z, w, w_z, w_zz = bad.points[len(bad.points) // 2]
    bad.points[len(bad.points) // 2] = (z, w + 1e-6, w_z, w_zz)
    check_outcome(bad)
    assert bad.outcome == "failed:check"


def test_compare_needs_outcome_and_masked_set():
    ref = {"outcome": "certified", "masked": [3]}
    assert compare("certified", (3,), ref)
    assert not compare("certified", (), ref)
    assert not compare("degenerate:w==1", (3,), ref)
    assert not compare("certified", (3,), None)


def test_tail_leaves_ten_samples_beyond():
    values = list(range(100))
    value, pct = _tail(values)
    assert value == 89 and pct == 90.0
    assert sum(v > value for v in values) == 10


@pytest.mark.parametrize("code, stderr, outcome", [
    (3, "degenerate output: w==1\n", "degenerate:w==1"),
    (2, "config error: bad\n", "config"),
    (1, "Traceback (most recent call last):\nsusypv.susy.SingularEvaluationError: W\n",
     "failed:SingularEvaluationError"),
])
def test_cli_exit_codes_map_to_outcomes(code, stderr, outcome, tmp_path):
    proc = SimpleNamespace(returncode=code, stderr=stderr)
    assert _cli_outcome(proc, tmp_path / "absent.csv", None) == (outcome, [])
