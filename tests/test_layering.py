"""Module layering: no camsync module imports another one's private names, and
none imports a name it never reads."""

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


def unused_imports(source: str, filename: str) -> list[str]:
    """Each name an import in ``source`` binds and no code reads, as text.

    Imports from ``__future__`` and lines marked ``# noqa: F401`` (bindings
    kept for callers that patch or look them up) are exempt.
    """
    tree = ast.parse(source, filename=filename)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            # `import a.b` binds `a`
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                found.append(f"{filename}:{alias.lineno}: {name}")
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


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports names only to re-export them
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(paths) >= 10
    found = [
        line
        for path in paths
        for line in unused_imports(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == []


def test_unused_import_guard_sees_every_binding():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from .geometry import (\n"
        "    FUNDAMENTAL,\n"
        "    HOMOGRAPHY,\n"
        ")\n"
        "from .robust import build_correspondences  # noqa: F401\n"
        "from .solvers import solve as _solve\n"
        "def f(x: HOMOGRAPHY):\n"
        "    import json\n"
        "    return np.zeros(3), scipy.linalg.eig\n"
    )
    assert unused_imports(source, "m.py") == [
        "m.py:2: os",
        "m.py:6: FUNDAMENTAL",
        "m.py:10: _solve",
        "m.py:12: json",
    ]
