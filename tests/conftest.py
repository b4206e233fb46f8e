"""Shared fixtures: two quick recordings of the working tree by tools/record_outputs.py."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "record_outputs.py"


@pytest.fixture(scope="session")
def quick_recordings(tmp_path_factory):
    """Two ``--quick`` recordings of the working tree, made once per session."""
    base = tmp_path_factory.mktemp("recordings")
    outs = [base / "a", base / "b"]
    for out in outs:
        subprocess.run([sys.executable, str(TOOL), "--tree", str(ROOT), "--out", str(out),
                        "--quick"], check=True, timeout=120)
    assert sorted(p.name for p in outs[0].iterdir()) == ["cli", "lib"]
    return outs
