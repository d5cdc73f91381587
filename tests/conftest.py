import os
from pathlib import Path

import numpy as np
import pytest

from hofa.core import BoxSpec, GridFunction, PhaseTable, SetIndicator
from hofa.rng import make_rng

# The CLI tests start ``python -m hofa`` in child processes; they import the
# sources under test, as pytest's ``pythonpath`` setting does for this one.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return make_rng(20260810)


def random_grid(rng, dims, kind="complex"):
    if kind == "complex":
        vals = rng.random(dims) * np.exp(2j * np.pi * rng.random(dims))
    elif kind == "signs":
        vals = rng.choice([-1.0, 1.0], dims).astype(complex)
    elif kind == "unit":
        vals = rng.random(dims).astype(complex)
    else:
        vals = (rng.random(dims) < rng.random()).astype(complex)
    return GridFunction(BoxSpec(dims), vals)


# random phase tables are integer numerators over this one (prime) T
TABLE_T = 999_983


def random_table(rng, dims):
    return PhaseTable(BoxSpec(dims), rng.integers(0, TABLE_T, dims), TABLE_T)


def random_set(rng, dims, p=None):
    p = rng.random() if p is None else p
    return SetIndicator(BoxSpec(dims), rng.random(dims) < p)
