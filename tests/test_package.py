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
    "describe": "DofVerdict.describe: the planned `verdict` command (ROADMAP item 5) prints it",
}


def _references(path: Path, tree: ast.Module) -> set[tuple[str, str, str]]:
    """``(name, module, owner)`` of every name, attribute and import in ``tree``, where
    ``owner`` is the top-level definition holding it, or ``Class.method`` inside a method
    of a top-level class; the string constants of ``perfbench/layers.py`` count too, as
    the traced run looks them up by name."""
    strings = path.name == "layers.py"
    out = set()
    for top in tree.body:
        in_method = {
            id(sub): f"{top.name}.{node.name}"
            for node in (top.body if isinstance(top, ast.ClassDef) else [])
            if isinstance(node, ast.FunctionDef)
            for sub in ast.walk(node)
        }
        for node in ast.walk(top):
            owner = in_method.get(id(node), getattr(top, "name", ""))
            if isinstance(node, ast.Name):
                out.add((node.id, path.stem, owner))
            elif isinstance(node, ast.Attribute):
                out.add((node.attr, path.stem, owner))
            elif isinstance(node, ast.alias):
                out.add((node.name, path.stem, owner))
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add((node.value, path.stem, owner))
    return out


def _public_definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """``(name, qualified name)`` of every public top-level function or class and every
    public method or property of a top-level class."""
    out = []
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
            continue
        out.append((top.name, top.name))
        if isinstance(top, ast.ClassDef):
            out += [
                (node.name, f"{top.name}.{node.name}")
                for node in top.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            ]
    return out


def test_every_public_definition_is_used():
    """Every public top-level function or class, and every public method or property of
    such a class, is used outside its own definition, by the package or the benchmark, or
    exported in ``multiframe.__all__``: a name that only tests reach is code without a
    caller.  Uses are matched by name alone; a method's use by another method of its
    class counts, a class's use inside its own methods does not."""
    refs = set()
    for path in sorted(SOURCE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        refs |= _references(path, ast.parse(path.read_text(), str(path)))
    defined = [
        (name, path.stem, qualified)
        for path in sorted(SOURCE.glob("*.py"))
        for name, qualified in _public_definitions(ast.parse(path.read_text(), str(path)))
    ]
    assert len(defined) > 80, "too few definitions found: is SOURCE right?"

    def outside(ref, module, qualified):
        _, ref_module, owner = ref
        return ref_module != module or not (owner + ".").startswith(qualified + ".")

    unused = [
        f"{module}.{qualified}"
        for name, module, qualified in defined
        if name not in UNREFERENCED
        and name not in multiframe.__all__
        and not any(r[0] == name and outside(r, module, qualified) for r in refs)
    ]
    assert not unused, f"public definitions that nothing outside the tests uses: {unused}"
    assert UNREFERENCED.keys() <= {name for name, *_ in defined}
