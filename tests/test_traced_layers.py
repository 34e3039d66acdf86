"""The benchmark's traced layers name callables the library still has.

``perfbench/spans.py`` wraps each entry of its ``LAYERS`` and silently
reports 0 calls for a name it cannot find, so a rename in the library
would blind the per-layer metrics without any error. This test resolves
every entry the way ``Tracer.install`` does: a plain name as a module
attribute, a ``Class.method`` name in the class's own ``vars``. It also
runs one grid task and one orderings task under the tracer, whose wrappers
put the second argument of the repeat-counted layers (a grid) in a set, and
checks that the grid task calls the grid methods the tracer names.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers():
    return _spans().LAYERS


@pytest.mark.parametrize("mod,qual", _layers(), ids=lambda v: v)
def test_layer_resolves(mod, qual):
    owner = importlib.import_module(f"susypv.{mod}")
    if "." in qual:
        cls_name, meth = qual.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(meth)), qual
    else:
        assert callable(getattr(owner, qual, None)), qual


def test_traced_grid_and_orderings_tasks_complete():
    import susypv as sp
    import susypv.cli  # noqa: F401  (Tracer.install covers the modules already loaded)

    sys.path.insert(0, str(PERFBENCH))
    from workloads import pool, run_orderings, run_spec, z_grid

    tracer = _spans().Tracer()
    tracer.install()
    try:
        grid = run_spec(sp, pool("grid")[0], z_grid("grid"))
        grid_calls = dict(tracer.summary()["calls"])
        orderings = run_orderings(sp, pool("orderings")[0], z_grid("orderings"),
                                  tracer.begin_task)
    finally:
        tracer.uninstall()
    # run_spec and run_orderings turn any escape (a tracer TypeError too) into failed:*
    assert grid.outcome == "certified"
    assert [o.outcome for o in orderings] == ["certified"] * 6
    assert tracer.summary()["calls"]["susy.WronskianStack.jet"] > 0
    # the traced names are the grid methods, so the grid task passes through them
    for name in ("susy.PartnerPotential.deriv_jet", "susy.WronskianRatioState.value_and_derivative",
                 "susy.WronskianStack.row_scale"):
        assert grid_calls[name] > 0, name
