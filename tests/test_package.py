"""The package's declared surface: exported names and console scripts."""

import importlib
from pathlib import Path

import pytest

import multiframe

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.parametrize("name", multiframe.__all__)
def test_exported_name_resolves(name):
    assert hasattr(multiframe, name), f"multiframe.__all__ lists {name!r}, which is missing"


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for script, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {script!r} points at {target!r}"
