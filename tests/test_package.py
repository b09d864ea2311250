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



PERFBENCH = PYPROJECT.parent / "perfbench"
# public names that nothing references yet, each with the reason it stays
UNREFERENCED = {
    "validate_general_position": "the planned solve report (ROADMAP item 5) is to call it",
}


def _references(path: Path, tree: ast.Module) -> set[tuple[str, str, str]]:
    """``(name, module, owner)`` of every name, attribute and import in ``tree``, where
    ``owner`` is the top-level definition holding it; the string constants of
    ``perfbench/layers.py`` count too, as the traced run looks them up by name."""
    strings = path.name == "layers.py"
    out = set()
    for top in tree.body:
        owner = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add((node.id, path.stem, owner))
            elif isinstance(node, ast.Attribute):
                out.add((node.attr, path.stem, owner))
            elif isinstance(node, ast.alias):
                out.add((node.name, path.stem, owner))
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add((node.value, path.stem, owner))
    return out


def test_every_public_definition_is_used():
    """Every public top-level function or class is used outside its own definition, by
    the package or the benchmark, or exported in ``multiframe.__all__``: a name that
    only tests reach is code without a caller."""
    refs = set()
    for path in sorted(SOURCE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        refs |= _references(path, ast.parse(path.read_text(), str(path)))
    defined = [
        (node.name, path.stem)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert len(defined) > 50, "too few definitions found: is SOURCE right?"
    unused = [
        f"{module}.{name}"
        for name, module in defined
        if name not in UNREFERENCED
        and name not in multiframe.__all__
        and not any(r[0] == name and r[1:] != (module, name) for r in refs)
    ]
    assert not unused, f"public definitions that nothing outside the tests uses: {unused}"
    assert UNREFERENCED.keys() <= {name for name, _ in defined}
