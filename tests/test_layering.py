"""Module layering: no camsync module imports another one's private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "camsync"


def private_imports(source: str, filename: str) -> list[str]:
    """Each ``from <camsync module> import _name`` in ``source``, as text."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "camsync":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{filename}: from {'.' * node.level}{module} import {alias.name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [
        line
        for path in paths
        for line in private_imports(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == []


def test_guard_sees_relative_and_absolute_imports():
    source = (
        "from __future__ import annotations\n"
        "from .solvers import CorrSet, _kron_rows\n"
        "from camsync.geometry import _private\n"
        "from . import _module\n"
        "from numpy import _globals\n"
        "def f():\n"
        "    from .robust import _late\n"
    )
    assert private_imports(source, "m.py") == [
        "m.py: from .solvers import _kron_rows",
        "m.py: from camsync.geometry import _private",
        "m.py: from . import _module",
        "m.py: from .robust import _late",
    ]
