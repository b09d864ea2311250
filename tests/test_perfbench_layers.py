"""The traced benchmark wraps package attributes by name; each must still exist.

``perfbench/run.py --trace 1`` replaces every attribute listed in
``perfbench/layers.py`` on its owner, so a renamed or deleted one fails
that run.  This test reads the lists without running the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = load_layers()
TRACED = layers.SETUP_SPANS + layers.JOB_SPANS + layers.JOB_COUNTS


@pytest.mark.parametrize(
    "name, owner, attr", TRACED, ids=[f"{owner.__name__}.{attr}" for _, owner, attr in TRACED]
)
def test_traced_attribute_exists(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"
