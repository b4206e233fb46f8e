"""Module layering: no camsync module imports another one's private names,
none imports a name it never reads, every private top-level name is read by
some camsync module, every public top-level function or class is read by one
or exported by the package, every solver kind names a solver, and a
block step if it has one, that camsync.robust binds, and importing camsync leaves out scipy.interpolate."""

import ast
import os
import subprocess
import sys
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


def dead_names(sources: dict[str, str], public: bool = False) -> list[str]:
    """Each underscore-prefixed top-level function, class or constant of the
    modules in ``sources`` (file name to text) that none of them reads, as
    text. A read is a name loaded bare or as an attribute (``module._name``);
    dunder names are exempt.

    With ``public``, each top-level function or class without the underscore
    instead; a name that ``__init__.py`` imports, to export it, counts as read.
    """
    defined = []
    read = set()
    for filename, source in sources.items():
        tree = ast.parse(source, filename=filename)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not public:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            else:
                continue
            defined += [
                f"{filename}:{node.lineno}: {name}" for name in names
                if name.startswith("_") != public
                and not (name.startswith("__") and name.endswith("__"))
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif public and filename == "__init__.py" and isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [line for line in defined if line.rsplit(" ", 1)[1] not in read]


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


def test_every_private_name_is_read_by_some_module():
    # a helper that only the tests call belongs in tests/
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    sources = {path.name: path.read_text(encoding="utf-8") for path in paths}
    assert dead_names(sources) == []


def test_dead_private_name_guard_sees_every_definition():
    sources = {
        "a.py": (
            "__all__ = ['f']\n"
            "_TOL = 1e-6\n"
            "_A, _B = 1, 2\n"
            "_SPAN: float = 16.0\n"
            "_table = {}\n"
            "_table[_A] = 0\n"
            "def _helper():\n"
            "    def _inner():\n"
            "        pass\n"
            "    return _inner\n"
            "def _unused():\n"
            "    _local = 1\n"
            "    return _local\n"
            "class _Spare:\n"
            "    pass\n"
            "def f(x):\n"
            "    return x.attr._read_as_attribute\n"
        ),
        "b.py": (
            "from . import a\n"
            "def _read_as_attribute():\n"
            "    pass\n"
            "print(a._helper(), a._SPAN)\n"
        ),
    }
    assert dead_names(sources) == [
        "a.py:2: _TOL",
        "a.py:3: _B",
        "a.py:11: _unused",
        "a.py:14: _Spare",
    ]


def test_every_public_name_is_read_or_exported():
    # a public function or class that only the tests call belongs in tests/
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    sources = {path.name: path.read_text(encoding="utf-8") for path in paths}
    assert dead_names(sources, public=True) == []


def test_dead_public_name_guard_sees_every_definition():
    sources = {
        "__init__.py": "from .a import Exported, exported\n",
        "a.py": (
            "LIMIT = 3\n"
            "def _private():\n"
            "    pass\n"
            "def exported():\n"
            "    pass\n"
            "class Exported:\n"
            "    pass\n"
            "def unread():\n"
            "    pass\n"
            "class Unread:\n"
            "    def method(self):\n"
            "        return helper(), self.attr.as_attribute\n"
            "def helper():\n"
            "    pass\n"
            "def as_attribute():\n"
            "    pass\n"
        ),
    }
    assert dead_names(sources, public=True) == ["a.py:8: unread", "a.py:10: Unread"]


def test_every_solver_kind_names_a_solver_bound_in_robust():
    # ransac_estimate looks each kind's solver up by this name when it runs,
    # so a typo in the table would fail only at the first draw
    from camsync import robust, solvers

    for kind, spec in robust.SOLVER_KINDS.items():
        assert callable(getattr(robust, spec.solver, None)), (kind, spec.solver)
        assert getattr(robust, spec.solver) is getattr(solvers, spec.solver), kind
        # the block step that prepares its draws is looked up the same way
        if spec.prepare is not None:
            assert getattr(robust, spec.prepare) is getattr(solvers, spec.prepare), kind


def test_import_leaves_out_scipy_interpolate():
    # scipy.interpolate pulls in scipy.optimize, scipy.special and
    # scipy.spatial: with scipy 1.17 on a 2-core x86 host, about 240 ms of
    # import time and 23 MiB of resident memory
    code = (
        "import sys, camsync, camsync.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
