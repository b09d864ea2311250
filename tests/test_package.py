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


# defaulted parameters that no package or benchmark call sets, each with the reason it stays
UNSET = {
    "two_frame_reconstruct.allow_eight": "ROADMAP item 9 deletes it with the 9-point rule",
    "DegenerateProjection.__init__.index": "set through the class: DegenerateProjection(msg, k)",
}


def _defaulted(tree: ast.Module) -> list[tuple[str, str, str, int | None]]:
    """``(name, qualified name, parameter, position)`` of every defaulted parameter of a
    public top-level function or of a method of a public top-level class.  ``position``
    is the parameter's index among a call's positional arguments (a method's ``self`` or
    ``cls`` not counted: the package has no static method), None for a keyword-only
    parameter."""
    out = []
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
            continue
        defs = [(top, top.name, 0)]
        if isinstance(top, ast.ClassDef):
            methods = [node for node in top.body if isinstance(node, ast.FunctionDef)]
            defs = [(fn, f"{top.name}.{fn.name}", 1) for fn in methods]
        for fn, qualified, skip in defs:
            a = fn.args
            positional = a.posonlyargs + a.args
            for i in range(len(positional) - len(a.defaults), len(positional)):
                out.append((fn.name, qualified, positional[i].arg, i - skip))
            out += [
                (fn.name, qualified, arg.arg, None)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                if default is not None
            ]
    return out


def _calls(node: ast.AST, enclosing: frozenset = frozenset()) -> list:
    """``(name, positional count, keywords, enclosing)`` of every call under ``node``:
    the called name or attribute, the number of positional arguments (any number, with a
    ``*`` argument), the keywords (None for a ``**`` argument) and the names of the
    functions the call sits in."""
    if isinstance(node, ast.FunctionDef):
        enclosing = enclosing | {node.name}
    out = []
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        star = any(isinstance(arg, ast.Starred) for arg in node.args)
        keys = {kw.arg for kw in node.keywords}
        out.append((name, float("inf") if star else len(node.args), keys, enclosing))
    for child in ast.iter_child_nodes(node):
        out += _calls(child, enclosing)
    return out


def test_every_default_is_set_by_some_caller():
    """Every defaulted parameter of a public function, or of a method of a public class,
    is set by some call in the package or the benchmark, by keyword or by position: a
    default no caller overrides is an option with one value in use, which is better a
    constant.  Calls are matched by name alone; a function's calls to itself do not count."""
    calls = [
        call
        for path in sorted(SOURCE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
        for call in _calls(ast.parse(path.read_text(), str(path)))
    ]
    params = [
        (path.stem, *param)
        for path in sorted(SOURCE.glob("*.py"))
        for param in _defaulted(ast.parse(path.read_text(), str(path)))
    ]
    assert len(params) > 3, "too few defaulted parameters found: is SOURCE right?"

    def sets(call, name, param, position):
        called, n_positional, keys, enclosing = call
        if called != name or name in enclosing:
            return False
        return param in keys or None in keys or (position is not None and n_positional > position)

    unset = [
        f"{module}.{qualified}({param}=)"
        for module, name, qualified, param, position in params
        if f"{qualified}.{param}" not in UNSET
        and not any(sets(call, name, param, position) for call in calls)
    ]
    assert not unset, f"defaulted parameters that no package or benchmark call sets: {unset}"
    assert UNSET.keys() <= {f"{qualified}.{param}" for _, _, qualified, param, _ in params}
