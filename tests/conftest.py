import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def shift_superpotential(monkeypatch):
    """Add 0.01 to the superpotential of every first-order SUSY atom.

    The intertwining check must then fail, which shows that it can.
    """
    from susypv import operators

    superpotential = operators.superpotential

    def shifted(hi, lo, xs, n):
        out = superpotential(hi, lo, xs, n)
        out[:, 0] += 0.01
        return out

    monkeypatch.setattr(operators, "superpotential", shifted)
