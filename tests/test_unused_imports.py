"""Every import of a `wqed` module is read by that module.

`__init__.py` re-exports what it imports, `from __future__` imports change
the compiler, and an import statement marked ``# noqa: F401`` is kept on
purpose; those are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wqed"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of `source` that no other
    expression of it reads, as 'line: name'."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from dataclasses import dataclass, replace\n"
              "from os import path  # noqa: F401\n"
              "x = math.pi\n"
              "@dataclass\n"
              "class A:\n"
              "    y: int = 0\n")
    assert _unused_imports(source) == ["3: replace"]
