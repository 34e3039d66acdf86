"""compare's rule on small synthetic envelopes; no pool is run."""

from susypv import oscillator, specialfunctions

from pool_envelope import compare, envelope, nudged_kummer

# one pass: per pool, per task, (class, masked list, {point index: w})
PLAIN = {
    "grid": [
        ("certified", [], {0: 1 + 1j, 1: 2.0 + 0j, 2: 0.5j}),
        ("certified", [1], {0: 3.0 + 0j, 2: -1.0 + 0j}),
        ("config", [], {}),
    ],
    "sweep": [("degenerate:w==1", [], {})],
}


def nudge(run, rel):
    """The run with every w of its first grid task moved by rel, point 1 left as it is."""
    tasks = [(cls, masked, dict(ws)) for cls, masked, ws in run["grid"]]
    tasks[0][2].update({i: w * (1 + rel) for i, w in tasks[0][2].items() if i != 1})
    return {**run, "grid": tasks}


def parent(*extra_runs):
    return envelope(PLAIN, [nudge(PLAIN, 1e-11), nudge(PLAIN, -2e-11), *extra_runs])


def candidate(run):
    return envelope(run, [])


def test_envelope_spread():
    spread = {i: s for i, _, _, s in parent()["grid"][0]["w"]}
    assert spread[1] == 0.0
    assert 1.9e-11 < spread[0] / abs(1 + 1j) < 2.1e-11


def test_a_a_compare_passes():
    passed, lines = compare(parent(), candidate(PLAIN))
    assert passed
    assert lines[-1].startswith("PASS: 4 tasks, 0 unstable, 5 points checked, worst ratio 0 at ")


def test_shift_within_the_spread_passes():
    passed, lines = compare(parent(), candidate(nudge(PLAIN, 5e-11)))
    assert passed
    assert "worst ratio 0.625 at grid task 0 point" in lines[-1]


def test_shift_at_a_low_spread_point_fails():
    run = {**PLAIN, "grid": list(PLAIN["grid"])}
    cls, masked, ws = run["grid"][1]
    run["grid"][1] = (cls, masked, {**ws, 2: ws[2] * (1 + 1e-10)})
    passed, lines = compare(parent(), candidate(run))
    assert not passed
    assert any(line.startswith("grid task 1 point 2: |dw| = 1e-10 > tol 1e-13") for line in lines)
    assert "worst ratio 1e+03 at grid task 1 point 2" in lines[-1]


def test_class_change_on_a_single_class_task_fails():
    run = {**PLAIN, "sweep": [("degenerate:w==inf", [], {})]}
    passed, lines = compare(parent(), candidate(run))
    assert not passed
    assert "sweep 0: degenerate:w==inf masked=[], envelope degenerate:w==1 masked=[]" in lines


def test_masked_set_change_on_a_single_class_task_fails():
    run = {**PLAIN, "grid": list(PLAIN["grid"])}
    run["grid"][1] = ("certified", [1, 2], {0: 3.0 + 0j})
    passed, lines = compare(parent(), candidate(run))
    assert not passed
    assert "grid 1: certified masked=[1, 2], envelope certified masked=[1]" in lines


def test_a_task_with_two_classes_accepts_either_and_is_listed():
    flipped = {**PLAIN, "grid": list(PLAIN["grid"])}
    flipped["grid"][0] = ("failed:uncertified", [], PLAIN["grid"][0][2])
    env = parent(flipped)
    for run in (PLAIN, flipped):
        passed, lines = compare(env, candidate(run))
        assert passed
        assert lines[0].startswith("unstable grid 0: certified masked=[] | "
                                   "failed:uncertified masked=[]; candidate ")
        assert "1 unstable" in lines[-1]


def test_task_count_change_fails():
    run = {**PLAIN, "sweep": []}
    passed, lines = compare(parent(), candidate(run))
    assert not passed
    assert "sweep: 0 tasks, the envelope has 1" in lines


def test_nudge_is_one_ulp_deterministic_and_undone():
    plain = specialfunctions.kummer_1f1
    args = (0.5 + 0.25j, 1.5, 2.0)
    with nudged_kummer(7):
        once = oscillator.kummer_1f1(*args)
        assert specialfunctions.kummer_1f1(*args) == once
    with nudged_kummer(7):
        again = oscillator.kummer_1f1(*args)
    assert once == again != plain(*args)
    assert abs(once - plain(*args)) <= 2.0**-51 * abs(plain(*args))
    # a grid call: each element is the scalar nudge of that element
    a_rows, b_rows = [0.5 + 0.25j, 1.5 + 0.25j, -0.75], [1.5, 2.5, 0.5]
    ys = [0.5 * x * x for x in (0.3, 1.1, 2.0, 4.5)] * 5  # 60 elements: the batched sum
    with nudged_kummer(7):
        grid = oscillator.kummer_1f1(a_rows, b_rows, ys)
        scalar = [[oscillator.kummer_1f1(a, b, y) for y in ys] for a, b in zip(a_rows, b_rows)]
    assert grid.shape == (3, len(ys))
    assert grid.tolist() == scalar
    assert (grid != plain(a_rows, b_rows, ys)).all()
    assert oscillator.kummer_1f1 is specialfunctions.kummer_1f1 is plain
