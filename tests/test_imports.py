"""Every name a ``fabflock`` module imports is used in it, listed in its
``__all__``, or imported by a statement marked ``# noqa: F401``; and every
function and class it defines is read somewhere in the package, listed in an
``__all__`` or traced by ``bench/run.py`` ``SITES``.

Standard-library stand-ins for a linter's unused-import and dead-code rules,
so that deleting the last use of a name also deletes its import, and the
last caller of a definition takes the definition with it.

The test modules must use their imports too. Two boundaries in the tests
are checked as well: ``reference_engine.py`` imports only the standard
library, so the differential test compares the engine with code that
shares nothing with it; and no test module imports another, so shared
helpers live in ``support.py`` or ``reference_engine.py``.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "fabflock"


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports and neither uses, exports nor marks."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
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


def unused_definitions(sources: dict[str, str], namespaces: dict[str, dict],
                       traced: set[str]) -> list[str]:
    """``module.qualname`` of every function and class, at module level or
    in a class body, in ``sources`` (module name -> its text) that no module
    reads by name or attribute, no ``__all__`` lists and ``traced`` does not
    hold, other than dunders and methods that override one of a base class.
    ``namespaces`` maps each module name to its live namespace, where a
    method's class is looked up to see what its bases define."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
    unused: list[str] = []

    def visit(body: list, prefix: str, scope: dict, cls: type | None) -> None:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            overrides = cls is not None and any(name in vars(base) for base in cls.__mro__[1:])
            if not (name in read or prefix + name in traced or dunder or overrides):
                unused.append(prefix + name)
            if isinstance(node, ast.ClassDef):
                inner = scope[name]
                visit(node.body, f"{prefix}{name}.", vars(inner), inner)

    for module, tree in trees.items():
        visit(tree.body, f"{module}.", namespaces[module], None)
    return unused


def traced_definitions(sites) -> set[str]:
    """``module.qualname`` of every package function a ``SITES`` entry wraps."""
    wrapped = [vars(owner)[attr] for entries in sites.values() for owner, attr in entries]
    return {f"{f.__module__.rsplit('.', 1)[-1]}.{f.__qualname__}" for f in wrapped}


def test_every_definition_is_used(bench_run):
    paths = sorted(PACKAGE.glob("*.py"))
    sources = {p.stem: p.read_text(encoding="utf-8") for p in paths}
    namespaces = {p.stem: vars(importlib.import_module(
        "fabflock" if p.stem == "__init__" else f"fabflock.{p.stem}")) for p in paths}
    assert unused_definitions(sources, namespaces, traced_definitions(bench_run.SITES)) == []


def test_the_definition_check_finds_what_it_should():
    source = ("import argparse\n"
              "__all__ = ['exported']\n"
              "def exported(): pass\n"
              "def traced(): pass\n"
              "def called(): pass\n"
              "def orphan(): pass\n"
              "class Parser(argparse.ArgumentParser):\n"
              "    def __init__(self): called()\n"
              "    def error(self, message): pass\n"
              "    def read(self): pass\n"
              "    def unread(self): pass\n"
              "    def ghost(self): pass\n"
              "class Orphan(Parser):\n"
              "    def read(self): pass\n"
              "Parser().read\n"
              "Parser().ghost = None\n")
    namespace: dict = {}
    exec(source, namespace)
    assert unused_definitions({"m": source}, {"m": namespace}, {"m.traced"}) == \
        ["m.orphan", "m.Parser.unread", "m.Parser.ghost", "m.Orphan"]


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
