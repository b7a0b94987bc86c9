"""Every imported name is used: a stdlib-only stand-in for a linter's
unused-import rule, run over the package and the tests. And every
top-level function, class and constant of the package, and every method
but the dunder ones, is reached from the package itself, and every
dataclass field is read there as an attribute, and every defaulted
parameter is passed by some call there, so no code in `src/` exists
only for the tests. And in `games.py` only the game builders read
a finite space."""

import ast
from pathlib import Path

import pytest

from topogame.games import GAME_BUILDERS

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "topogame").glob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))

UNREACHED_BY_DESIGN = {
    # public on purpose though nothing in the package calls it: the U_x accessor
    "minimal_open_nbhd",
    # the indexed tree is the result extraction is for; the checks read only
    # whether it covers
    "ExtractionResult.tree",
    # the console script calls main(); tests pass their argv
    "main(argv)",
}


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


def space_readers(source: str) -> list[str]:
    """The functions, nested ones and methods included, that name
    `FiniteSpace` or read an attribute `space`."""
    readers = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            for sub in ast.walk(node):
                named = isinstance(sub, ast.Name) and sub.id == "FiniteSpace"
                if named or isinstance(sub, ast.Attribute) and sub.attr == "space":
                    readers.add(node.name)
    return sorted(readers)


def test_only_the_builders_read_a_space():
    # a game is its ground mask and menus: only the builders look at a space
    source = (ROOT / "src" / "topogame" / "games.py").read_text(encoding="utf-8")
    assert space_readers(source) == sorted(build.__name__ for build in GAME_BUILDERS.values())


@pytest.mark.parametrize(
    "source, readers",
    [
        ("def make_g(space: FiniteSpace):\n    return space.full\ndef f(game):\n    return game.full\n", ["make_g"]),
        ("class G:\n    def n(self):\n        return self.space.n\ndef f(g):\n    return FiniteSpace(g.n(), ())\n", ["f", "n"]),
    ],
)
def test_space_reader_scanner(source, readers):
    assert space_readers(source) == readers


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions, classes and constants, and the methods of
    top-level classes but for dunder methods, over modules given as
    {file name: source}, that no module names outside their own definition
    or assignment; the fields of top-level dataclasses, as
    "Class.field", that no module reads as an attribute; and the defaulted
    parameters of every function and method, as "function(parameter)",
    that no call passes (`unpassed_defaults`). Imports and `__init__.py`
    (the re-exports) do not count as a use."""
    trees = {name: ast.parse(src) for name, src in sources.items() if name != "__init__.py"}
    defined, named = set(), set()
    fields, read = set(), set()  # (class, field) of each dataclass; attributes read
    for tree in trees.values():
        own = set()  # a definition's mentions of its own name
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                own |= {
                    id(sub) for sub in ast.walk(node) if isinstance(sub, ast.Name) and sub.id == node.name
                }
                for method in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(method, ast.AnnAssign) and _is_dataclass(node):
                        fields.add((node.name, method.target.id))
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                        defined.add(method.name)
                        own |= {
                            id(sub)
                            for sub in ast.walk(method)
                            if isinstance(sub, ast.Attribute) and sub.attr == method.name
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
            elif isinstance(sub, ast.Attribute) and id(sub) not in own:
                named.add(sub.attr)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                read.add(sub.attr)
    unread = {f"{cls}.{name}" for cls, name in fields if name not in read}
    return sorted(defined - named | unread | unpassed_defaults(trees.values()))


def unpassed_defaults(trees) -> set[str]:
    """The defaulted parameters, as "function(parameter)", that no call by
    the function's name passes, by position or by keyword. A method's
    positions do not count `self`, and a class's `__init__` is called by
    the class's name. A starred argument passes every position, and a `**`
    argument every keyword."""
    params = []  # (name it is called by, parameter, position in a call or None)
    for tree in trees:
        methods = set()
        for cls in ast.walk(tree):
            for fn in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(fn, ast.FunctionDef):
                    methods.add(fn)
                    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                    params += _defaults(fn, cls.name if fn.name == "__init__" else fn.name, 0 if static else 1)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn not in methods:
                params += _defaults(fn, fn.name, 0)
    passed = set()  # (name called, position or keyword), "*" for a starred argument
    for tree in trees:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                passed |= {(name, "*" if isinstance(a, ast.Starred) else pos) for pos, a in enumerate(call.args)}
                passed |= {(name, kw.arg or "**") for kw in call.keywords}
    return {
        f"{name}({arg})"
        for name, arg, pos in params
        if not {(name, arg), (name, "**"), (name, pos), (name, "*")} & passed
    }


def _defaults(fn: ast.FunctionDef, name: str, skip: int) -> list:
    """(name, parameter, position in a call) of each defaulted parameter of
    fn, the position None for a keyword-only one; `skip` leading
    parameters are not passed in a call."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(name, a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(name, a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


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
        (
            {"a.py": "class C:\n    def __init__(self):\n        pass\n    def m(self):\n        return self.m()\n",
             "b.py": "from .a import C\nC()\n"},
            ["m"],
        ),
        ({"a.py": "class C:\n    def m(self):\n        pass\n", "b.py": "from . import a\na.C().m()\n"}, []),
        # a dataclass field counts as used only where a module reads it as
        # an attribute: not as a keyword, a local name or an assignment
        (
            {"a.py": "@dataclass\nclass C:\n    x: int\n    y: int\n",
             "b.py": "from .a import C\nc = C(x=1, y=2)\ny = 3\nprint(c.x, y)\n"},
            ["C.y"],
        ),
        (
            {"a.py": "@dataclasses.dataclass(frozen=True)\nclass C:\n    x: int\n",
             "b.py": "from .a import C\ndef f(c):\n    c.x = 2\nf(C(1))\n"},
            ["C.x"],
        ),
        ({"a.py": "@dataclass(frozen=True)\nclass C:\n    x: int\n", "b.py": "from .a import C\nC(1).x\n"}, []),
        # the annotations of a plain class are not fields
        ({"a.py": "class C:\n    x: int\n", "b.py": "from .a import C\nC()\n"}, []),
        # a defaulted parameter counts as used only where a call passes it
        ({"a.py": "def f(x, y=1):\n    pass\nf(1)\n"}, ["f(y)"]),
        ({"a.py": "def f(x, y=1):\n    pass\n", "b.py": "from .a import f\nf(1, 2)\n"}, []),
        ({"a.py": "def f(x, *, y=1, z=2):\n    pass\nf(1, y=3)\n"}, ["f(z)"]),
        ({"a.py": "def f(x=1, y=2):\n    pass\nf(*[1])\nf(**{})\n"}, []),
        (
            {"a.py": "class C:\n    def __init__(self, x=1):\n        pass\n    def m(self, y=1):\n        pass\n",
             "b.py": "from .a import C\nC(2).m()\n"},
            ["m(y)"],
        ),
        ({"a.py": "class C:\n    def m(self, y=1):\n        pass\nC().m(2)\n"}, []),
        # nested functions count, and calls in __init__.py do not
        ({"a.py": "def f():\n    def g(v=0):\n        pass\n    g()\nf()\n", "__init__.py": "g(1)\n"}, ["g(v)"]),
    ],
)
def test_definition_scanner(sources, unreferenced):
    assert unreferenced_definitions(sources) == unreferenced
