"""Every name a module of the package or of the tests imports is used there,
and every public function or class of the package has a caller outside the
tests."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")  # a package's __init__ re-exports


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """The names read anywhere in the module, annotations written as
    strings included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport json as j\nfrom typing import Mapping, Sequence\n"
                     "def f(x: 'Mapping[str, int]') -> int:\n    return os.path.sep\n")
    names = imported_names(tree)
    assert set(names) == {"os", "j", "Mapping", "Sequence"}
    assert set(names) - used_names(tree) == {"j", "Sequence"}


def named(tree: ast.AST, strings: bool = False) -> set[str]:
    """The names and attribute names read in the tree, and its string
    constants too if ``strings``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def uncalled_definitions(package: dict[str, str], bench: list[str], tour: str) -> list[str]:
    """Each public top-level function or class of the package's modules
    (source by module name) that nothing names outside its own definition:
    no module of the package, no benchmark script (which may name a
    function by string) and not the README's quick tour."""
    outside = named(ast.parse(tour)).union(*(named(ast.parse(s), strings=True) for s in bench))
    owners: dict[str, set] = {}  # name -> the top-level statements that read it
    defs = []
    for module, source in package.items():
        for stmt in ast.parse(source).body:
            for name in named(stmt):
                owners.setdefault(name, set()).add(stmt)
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defs.append((module, stmt))
    return [f"{module}.{d.name}" for module, d in defs
            if d.name not in outside and not owners.get(d.name, set()) - {d}]


def test_every_public_definition_has_a_caller_outside_the_tests():
    package = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "disco").glob("*.py"))
               if p.name != "__init__.py"}  # a package's __init__ re-exports
    bench = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("```python\n", 1)[1].split("\n```", 1)[0]
    unused = uncalled_definitions(package, bench, tour)
    assert not unused, (f"only the tests call {', '.join(unused)}: "
                        "move test-only code to tests/")


def test_an_uncalled_definition_is_found():
    package = {"a": "def called():\n    pass\n\n"
                    "def recursive(n):\n    return recursive(n - 1)\n\n"
                    "def by_string():\n    pass\n\n"
                    "def toured():\n    pass\n\n"
                    "class _Private:\n    pass\n\n"
                    "class Orphan:\n    def called(self):\n        return Orphan\n",
               "b": "from a import called\n\ndef use():\n    return called()\n"}
    bench = ["WRAPPED = {('a', 'by_string'): 'a.by_string'}\n"]
    tour = "from disco import toured\ntoured()\n"
    assert uncalled_definitions(package, bench, tour) == ["a.recursive", "a.Orphan", "b.use"]
