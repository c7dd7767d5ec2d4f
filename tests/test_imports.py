"""Every name a ``fabflock`` module imports is used in it, listed in its
``__all__``, or imported by a statement marked ``# noqa: F401``.

A standard-library stand-in for a linter's unused-import rule, so that
deleting the last use of a name also deletes its import.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fabflock"


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
