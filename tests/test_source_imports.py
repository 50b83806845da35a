"""Every name a module of the package imports is used in that module.

No linter is a dependency, so an import left behind when the code that read
it goes would pass unnoticed; this walk of each module's syntax tree finds
it.  Names listed in the module's `__all__` are exported, not unused, and
`from __future__` imports bind no name."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sws1").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read and name not in exported]


def test_the_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "evaluate.py", "oracle.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from functools import cache, cached_property\n"
        "from .evaluate import _Grid, _half_angle\n"
        "__all__ = ['_Grid']\n"
        "x = np.pi * math.pi\n"
        "@cache\n"
        "def f(grid: _Grid) -> None:\n"
        "    return None\n"
    )
    assert unused_imports(source) == ["os", "cached_property", "_half_angle"]
