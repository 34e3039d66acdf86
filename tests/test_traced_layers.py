"""The benchmark's traced layers name callables the library still has.

``perfbench/spans.py`` wraps each entry of its ``LAYERS`` and silently
reports 0 calls for a name it cannot find, so a rename in the library
would blind the per-layer metrics without any error. This test resolves
every entry the way ``Tracer.install`` does: a plain name as a module
attribute, a ``Class.method`` name in the class's own ``vars``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("mod,qual", _layers(), ids=lambda v: v)
def test_layer_resolves(mod, qual):
    owner = importlib.import_module(f"susypv.{mod}")
    if "." in qual:
        cls_name, meth = qual.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(meth)), qual
    else:
        assert callable(getattr(owner, qual, None)), qual
