"""The package's declared surface: exported names, console scripts and dependencies."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import multiframe

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SOURCE = PYPROJECT.parent / "src" / "multiframe"


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


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", req).group().lower() for req in requirements}
    imported = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"multiframe"}
    assert "numpy" in third_party, "no third-party import found: is SOURCE right?"
    undeclared = third_party - declared
    assert not undeclared, f"imported but not in [project].dependencies: {undeclared}"
