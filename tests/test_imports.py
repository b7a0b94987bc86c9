"""Every imported name is used: a stdlib-only stand-in for a linter's
unused-import rule, run over the package and the tests. And every
top-level function, class and constant of the package, and every method
but the dunder ones, is reached from the package itself, and every
dataclass field is read there as an attribute, and every defaulted
parameter is passed by some call there, so no code in `src/` exists
only for the tests. And in `games.py` only the game builders read
a finite space, in `src/` only `lab.py` names a check or a row's
facts, the checks memoized per clopen topology read no open set, only
`games._winner_solver` builds a `Solver`, only the `covers`
builders build a `MenuFamily`, and only `covers.reduced_covers` names a
cover kind ("open" or "clopen"): every other caller asks it for one, and
each clopen game is an open game on the clopen topology."""

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
    # a game is its menu family, target and horizon: only the builders look at a space
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


# what a check may not read if its row is shared by every space with one
# quasi-component partition: the open-set games, the open structure
OPEN_STRUCTURE = {"make_rothberger", "make_point_open", "is_zero_dimensional", "minimal_open_nbhd", "opens"}


def open_structure_reads(source: str) -> dict[str, list[str]]:
    """For each function decorated `_per_clopen_topology`, the names of
    OPEN_STRUCTURE that it, or a function of the same module that it calls
    (at any depth), names or reads as an attribute."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    mentions = {
        name: {getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node)} - {None}
        for name, node in functions.items()
    }

    def reached(name: str) -> set[str]:
        seen, todo = set(), [name]
        while todo:
            here = todo.pop()
            if here not in seen:
                seen.add(here)
                todo += [m for m in mentions[here] if m in functions]
        return set().union(*(mentions[f] for f in seen)) & OPEN_STRUCTURE

    return {
        name: sorted(reached(name))
        for name, node in functions.items()
        if any(getattr(d, "id", getattr(d, "attr", None)) == "_per_clopen_topology" for d in node.decorator_list)
    }


def test_the_memoized_checks_read_only_clopen_structure():
    # a row memoized on clopen_topology(space) is shared by every space with
    # the same quasi-components, so its check may not look at the opens
    source = (ROOT / "src" / "topogame" / "lab.py").read_text(encoding="utf-8")
    memoized = [
        "check_b1_translations",
        "check_b3",
        "check_duality",
        "check_extraction",
        "check_min_horizon_law",
        "check_pc_qc_equivalence",
        "check_th314",
    ]
    assert open_structure_reads(source) == {name: [] for name in memoized}


@pytest.mark.parametrize(
    "source, reads",
    [
        ("@_per_clopen_topology\ndef check_a(space):\n    return {'n': len(space.opens)}\n", {"check_a": ["opens"]}),
        (
            "def helper(space):\n    return is_zero_dimensional(space)\n"
            "@_per_clopen_topology\ndef check_b(space):\n    return helper(space)\n"
            "def check_c(space):\n    return make_rothberger(space, 1)\n",
            {"check_b": ["is_zero_dimensional"]},
        ),
        (
            "@lab._per_clopen_topology\ndef check_d(space):\n"
            "    return games.make_point_open(space, 1), minimal_open_nbhd(space, 0)\n",
            {"check_d": ["make_point_open", "minimal_open_nbhd"]},
        ),
        # a cycle of calls ends, and a clopen read is no open one
        (
            "def f(s):\n    return g(s)\ndef g(s):\n    return f(s), clopen_algebra(s)\n"
            "@_per_clopen_topology\ndef check_e(s):\n    return f(s)\n",
            {"check_e": []},
        ),
    ],
)
def test_open_structure_scanner(source, reads):
    assert open_structure_reads(source) == reads


def callers_of(source: str, cls: str) -> list[str]:
    """The functions, nested ones and methods included, that call `cls`
    by name or as an attribute; "<module>" for a call outside every
    function."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == cls:
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_only_the_winner_solver_builds_a_solver():
    # every solve, witness or not, reads the shared solver of its dominant
    # menus, and play's moves come from it too
    found = [(path.name, name) for path in SRC for name in callers_of(path.read_text(encoding="utf-8"), "Solver")]
    assert found == [("games.py", "_winner_solver")]


@pytest.mark.parametrize(
    "source, builders",
    [
        ("@lru_cache\ndef _w(m):\n    return Solver(m, 1, False)\nclass Solver:\n    pass\n", ["_w"]),
        ("def solve(g):\n    def f():\n        return games.Solver(g)\n    return f\n", ["f"]),
        ("s = Solver((), 0, False)\nclass C:\n    def m(self):\n        return Solver\n", ["<module>"]),
    ],
)
def test_solver_builder_scanner(source, builders):
    assert callers_of(source, "Solver") == builders


def test_only_covers_builds_a_menu_family():
    # every family the program builds is a space's, with its ground mask
    found = [
        (path.name, name) for path in SRC for name in callers_of(path.read_text(encoding="utf-8"), "MenuFamily")
    ]
    assert found == [
        ("covers.py", "cover_menu_family"),
        ("covers.py", "point_base_family"),
        ("covers.py", "quasi_component_family"),
    ]


@pytest.mark.parametrize(
    "source, builders",
    [
        ("def f(game):\n    return dataclasses.replace(game, menus=covers.MenuFamily((), 0))\n", ["f"]),
        ("class MenuFamily:\n    pass\ndef g(m: MenuFamily) -> MenuFamily:\n    return m\n", []),
        ("FAMILY = MenuFamily(((1,),), 1)\ndef h():\n    return [MenuFamily(m, 1) for m in ()]\n", ["<module>", "h"]),
    ],
)
def test_menu_family_builder_scanner(source, builders):
    assert callers_of(source, "MenuFamily") == builders


def kind_namers(source: str) -> list[str]:
    """The functions, nested ones and methods included, that hold the
    string constant "open" or "clopen", other than as an argument of a
    call to `reduced_covers`; "<module>" for one outside every function."""
    tree = ast.parse(source)
    asked = {
        id(arg)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) == "reduced_covers"
        for arg in call.args + [kw.value for kw in call.keywords]
    }
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Constant) and node.value in ("open", "clopen") and id(node) not in asked:
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return sorted(found)


def test_only_reduced_covers_names_a_cover_kind():
    # the clopen topology says which sets a clopen game uses; the cover
    # layer reads a space's opens and never decides a kind again
    found = [(path.name, name) for path in SRC for name in kind_namers(path.read_text(encoding="utf-8"))]
    assert found == [("covers.py", "reduced_covers")]


@pytest.mark.parametrize(
    "source, namers",
    [
        (
            "def make_r(space, h):\n    return GameSpec(cover_menu_family(space, 'open'), False, h)\n"
            "def make_m(space, h):\n    return GameSpec(cover_menu_family(space, kind='clopen'), False, h)\n",
            ["make_m", "make_r"],
        ),
        ("def _kind_sets(space, kind):\n    if kind == 'clopen':\n        return ()\n", ["_kind_sets"]),
        # asking reduced_covers for a kind is no second decision
        (
            "def reduced_covers(space, kind):\n    return kind == 'clopen'\n"
            "def f(space):\n    return reduced_covers(space, 'open'), covers.reduced_covers(space, kind='clopen')\n",
            ["reduced_covers"],
        ),
        # other strings are no kind; a key or a module constant is one
        ("KIND = 'clopen'\ndef g():\n    return open('x'), 'opened', {'open': 1}\n", ["<module>", "g"]),
    ],
)
def test_kind_namer_scanner(source, namers):
    assert kind_namers(source) == namers


def suite_names(source: str) -> list[str]:
    """The `check_*` names a module defines, imports or reads, and the row
    key "facts" wherever it is a string constant."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and node.value == "facts":
            found.add("facts")
        name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
        if isinstance(name, str) and name.startswith("check_"):
            found.add(name)
    return sorted(found)


def test_only_lab_names_the_suites():
    # lab owns the check suites and their rows; the CLI only writes rows out
    namers = [path.name for path in SRC if suite_names(path.read_text(encoding="utf-8"))]
    assert namers == ["lab.py"]


@pytest.mark.parametrize(
    "source, names",
    [
        ("from .lab import check_b3\nSUITES = {'b3': check_b3}\n", ["check_b3"]),
        ("from . import lab\ndef f(row):\n    return lab.check_th314, row['facts']\n", ["check_th314", "facts"]),
        ("def check_x():\n    return {'facts': 1}\n", ["check_x", "facts"]),
        # a keyword argument, a plain name and an attribute called facts are no row key
        ("json.JSONEncoder(check_circular=False)\nfacts = row.facts\n", []),
    ],
)
def test_suite_name_scanner(source, names):
    assert suite_names(source) == names


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
