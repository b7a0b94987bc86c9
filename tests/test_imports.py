"""Every imported name is used: a stdlib-only stand-in for a linter's
unused-import rule, run over the package and the tests. And every
top-level function, class and constant of the package is reached from the
package itself, so no code in `src/` exists only for the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "topogame").glob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))

# public on purpose though nothing in the package calls it: the U_x accessor
UNREACHED_BY_DESIGN = {"minimal_open_nbhd"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import json\n", ["json (line 1)"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", ["c (line 1)"]),
        ("from __future__ import annotations\n", []),
        ("from .x import y\n__all__ = ['y']\n", []),
        ("import typing\ndef f():\n    import json\n    return typing\n", ["json (line 3)"]),
    ],
)
def test_scanner(source, unused):
    assert unused_imports(source) == unused


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions, classes and constants, over modules given as
    {file name: source}, that no module names outside their own definition
    or assignment. Imports and `__init__.py` (the re-exports) do not count
    as a use."""
    trees = {name: ast.parse(src) for name, src in sources.items() if name != "__init__.py"}
    defined, named = set(), set()
    for tree in trees.values():
        own = set()  # a definition's mentions of its own name
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                own |= {
                    id(sub) for sub in ast.walk(node) if isinstance(sub, ast.Name) and sub.id == node.name
                }
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            defined.add(sub.id)
                            own.add(id(sub))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and id(sub) not in own:
                named.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                named.add(sub.attr)
    return sorted(defined - named)


def test_every_definition_is_reached():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC}
    assert unreferenced_definitions(sources) == sorted(UNREACHED_BY_DESIGN)


@pytest.mark.parametrize(
    "sources, unreferenced",
    [
        ({"a.py": "def f():\n    return f()\n"}, ["f"]),
        ({"a.py": "def f():\n    pass\n", "b.py": "from .a import f\n"}, ["f"]),
        ({"a.py": "def f():\n    pass\n", "__init__.py": "from .a import f\nf()\n"}, ["f"]),
        ({"a.py": "class C:\n    pass\n", "b.py": "from . import a\na.C()\n"}, []),
        ({"a.py": "def f():\n    pass\ndef g():\n    f()\n"}, ["g"]),
        ({"a.py": "CAP = 3\n", "b.py": "from .a import CAP\nprint(CAP)\n"}, []),
        ({"a.py": "CAP: int = 3\nUSED, LEFT = 1, 2\nprint(USED)\n"}, ["CAP", "LEFT"]),
    ],
)
def test_definition_scanner(sources, unreferenced):
    assert unreferenced_definitions(sources) == unreferenced
