"""Every name a ``fabflock`` module imports is used in it, listed in its
``__all__``, or imported by a statement marked ``# noqa: F401``; and every
function and class it defines is read somewhere in the package, listed in an
``__all__`` or traced by ``bench/run.py`` ``SITES``.

Standard-library stand-ins for a linter's unused-import and dead-code rules,
so that deleting the last use of a name also deletes its import, and the
last caller of a definition takes the definition with it. The names that
only ``SITES`` keeps alive are listed, so that a new one, or a package
reader of one, fails.

The test modules must use their imports too. Two boundaries in the tests
are checked as well: ``reference_engine.py`` imports only the standard
library, so the differential test compares the engine with code that
shares nothing with it; and no test module imports another, so shared
helpers live in ``support.py`` or ``reference_engine.py``. ``import
fabflock`` may load only the few standard modules ``SETUP_STDLIB`` lists.
Last, no line of a package or test module is longer than ``MAX_LINE``.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "fabflock"


def unused_imports(source: str, marked: bool = False) -> list[str]:
    """Names ``source`` imports and neither uses, exports nor marks; with
    ``marked``, only the unused names of the marked imports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if marked != any("# noqa: F401" in line
                         for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if isinstance(node, ast.Import):
                imported.append(alias.asname or alias.name.split(".")[0])
            elif alias.name != "*":
                imported.append(alias.asname or alias.name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_import_of_a_test_module_is_used():
    unused = {path.name: names for path in sorted(TESTS.glob("*.py"))
              if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def test_the_check_finds_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import sys as system\n"
              "from math import inf, pi\n"
              "from json import dumps  # noqa: F401\n"
              "from re import compile\n"
              "__all__ = ['compile']\n"
              "print(pi)\n")
    assert unused_imports(source) == ["os", "system", "inf"]
    assert unused_imports(source, marked=True) == ["dumps"]


def unused_definitions(sources: dict[str, str], namespaces: dict[str, dict],
                       traced: set[str]) -> list[str]:
    """``module.qualname`` of every function and class, at module level or
    in a class body, in ``sources`` (module name -> its text) that no module
    reads (one in a class body only as an attribute), no ``__all__`` lists
    and ``traced`` does not hold, other than dunders and methods that
    override one of a base class. ``namespaces`` maps each module name to
    its live namespace, where a method's class is looked up to see what its
    bases define."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    names, attributes = read_names(trees.values(), slot_fields(namespaces))
    unused: list[str] = []

    def visit(body: list, prefix: str, scope: dict, cls: type | None) -> None:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            overrides = cls is not None and any(name in vars(base) for base in cls.__mro__[1:])
            read = name in attributes or (cls is None and name in names)
            if not (read or prefix + name in traced or dunder or overrides):
                unused.append(prefix + name)
            if isinstance(node, ast.ClassDef):
                inner = scope[name]
                visit(node.body, f"{prefix}{name}.", vars(inner), inner)

    for module, tree in trees.items():
        visit(tree.body, f"{module}.", namespaces[module], None)
    return unused


def read_names(trees, fields: set[str]) -> tuple[set[str], set[str]]:
    """The names the module trees read or an ``__all__`` lists, and the
    attributes they read. An attribute named like one of ``fields`` counts
    only where it is called: ``rec.rpt_ticks`` reads a record's field, not
    the method ``Scenario.rpt_ticks``."""
    names: set[str] = set()
    attributes: set[str] = set()
    for tree in trees:
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                    and (node.attr not in fields or id(node) in called):
                attributes.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                names.update(ast.literal_eval(node.value))
    return names, attributes


def slot_fields(namespaces: dict[str, dict]) -> set[str]:
    """The ``__slots__`` of every class the namespaces define."""
    return {name for namespace in namespaces.values() for obj in namespace.values()
            if isinstance(obj, type) and obj.__module__ == namespace["__name__"]
            for name in getattr(obj, "__slots__", ())}


def traced_definitions(sites) -> set[str]:
    """``module.qualname`` of every package function a ``SITES`` entry wraps."""
    wrapped = [vars(owner)[attr] for entries in sites.values() for owner, attr in entries]
    return {f"{f.__module__.rsplit('.', 1)[-1]}.{f.__qualname__}" for f in wrapped}


def package_sources() -> tuple[dict[str, str], dict[str, dict]]:
    """Module name -> its text, and module name -> its live namespace."""
    paths = sorted(PACKAGE.glob("*.py"))
    sources = {p.stem: p.read_text(encoding="utf-8") for p in paths}
    namespaces = {p.stem: vars(importlib.import_module(
        "fabflock" if p.stem == "__init__" else f"fabflock.{p.stem}")) for p in paths}
    return sources, namespaces


def test_every_definition_is_used(bench_run):
    sources, namespaces = package_sources()
    assert unused_definitions(sources, namespaces, traced_definitions(bench_run.SITES)) == []


#: Every package name that only ``bench/run.py`` ``SITES`` keeps alive. The
#: package itself reads none of them; a benchmark change that traces the
#: live code lets them all be deleted.
BENCH_ONLY = {
    "model.next_step", "engine.next_step", "model.WorkcenterView",
    "model.Workcenter.view", "model.Workcenter.queue_len", "model.Workcenter.type_count",
    "model.Workcenter.partial_batches",
    "model.MultiQueue.total_len", "model.MultiQueue.is_empty", "model.MultiQueue.has_full_batch",
    "scenario.Scenario.rpt_ticks",
    "flocking.choose_batch", "flocking.take_batch",
}


def test_the_names_only_the_benchmark_keeps_are_frozen():
    # Definitions no module reads, module-level aliases no module reads, and
    # marked imports their module does not use: a new shim for the benchmark
    # adds to this set, and a new package reader of one of them takes from it.
    sources, namespaces = package_sources()
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*read_names(trees.values(), slot_fields(namespaces)))
    found = set(unused_definitions(sources, namespaces, set()))
    for module, tree in trees.items():
        found.update(f"{module}.{node.targets[0].id}" for node in tree.body
                     if isinstance(node, ast.Assign) and len(node.targets) == 1
                     and isinstance(node.targets[0], ast.Name)
                     and not node.targets[0].id.startswith("__")
                     and node.targets[0].id not in read)
        found.update(f"{module}.{name}" for name in unused_imports(sources[module], marked=True))
    assert found == BENCH_ONLY


def test_the_definition_check_finds_what_it_should():
    source = ("import argparse\n"
              "__all__ = ['exported']\n"
              "def exported(): pass\n"
              "def traced(): pass\n"
              "def called(): pass\n"
              "def orphan(unread): return unread\n"
              "class Record:\n"
              "    __slots__ = ('size', 'total')\n"
              "class Parser(argparse.ArgumentParser):\n"
              "    def __init__(self): called()\n"
              "    def error(self, message): pass\n"
              "    def read(self): pass\n"
              "    def unread(self): pass\n"
              "    def ghost(self): pass\n"
              "    def size(self): pass\n"
              "    def total(self): pass\n"
              "class Orphan(Parser):\n"
              "    def read(self): pass\n"
              "Parser().read\n"
              "Parser().ghost = None\n"
              "Record.size, Parser().total()\n")
    namespace: dict = {"__name__": "m"}
    exec(source, namespace)
    assert unused_definitions({"m": source}, {"m": namespace}, {"m.traced"}) == \
        ["m.orphan", "m.Parser.unread", "m.Parser.ghost", "m.Parser.size", "m.Orphan"]


def imported_modules(source: str) -> list[str]:
    """Top-level name of every module ``source`` imports; "." for a
    relative import."""
    found: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append("." if node.level else node.module.split(".")[0])
    return found


def test_the_reference_engine_imports_only_the_standard_library():
    source = (TESTS / "reference_engine.py").read_text(encoding="utf-8")
    assert [m for m in imported_modules(source) if m not in sys.stdlib_module_names] == []


def test_no_test_module_imports_another():
    for path in sorted(TESTS.glob("*.py")):
        imports = imported_modules(path.read_text(encoding="utf-8"))
        assert [m for m in imports if m.startswith("test_") or m == "conftest"] == [], path.name


def test_the_module_check_finds_what_it_should():
    source = ("import os.path, random\n"
              "from fabflock.model import Lot\n"
              "from . import support\n"
              "def f():\n"
              "    import fabflock\n")
    assert imported_modules(source) == ["os", "random", "fabflock", ".", "fabflock"]


#: What ``import fabflock`` may load from the standard library. The
#: benchmark's ``setup_s`` times that import in a fresh interpreter, and one
#: more module such as ``argparse`` or ``dataclasses`` costs as much as its
#: 25% bound.
SETUP_STDLIB = {"__future__", "bisect", "collections", "enum", "math", "random", "sys", "typing"}


def test_importing_the_package_loads_only_light_standard_modules():
    # ``import fabflock`` runs ``__init__.py``, the modules it imports
    # relatively, those they import in turn, and so on.
    todo, seen, heavy = ["__init__"], set(), {}
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                todo += [node.module] if node.module else [a.name for a in node.names]
        if extra := set(imported_modules(source)) - SETUP_STDLIB - {"."}:
            heavy[module] = sorted(extra)
    assert heavy == {}


MAX_LINE = 100


def test_no_line_is_longer_than_max_line():
    long = [f"{path.parent.name}/{path.name}:{number}"
            for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == []
