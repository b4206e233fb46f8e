"""tools/cli_outputs.py: two recordings of one tree hold the same bytes."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_outputs.py"
SPEC = importlib.util.spec_from_file_location("cli_outputs", TOOL)
cli_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(cli_outputs)


def tree_bytes(root: Path) -> dict:
    """Every file under ``root``, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_two_runs_on_the_working_tree_give_identical_bytes(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        subprocess.run([sys.executable, str(TOOL), "--tree", str(ROOT), "--out", str(out)],
                       check=True, timeout=120)
    names = [name for name, _ in cli_outputs.CALLS]
    assert sorted(p.name for p in outs[0].iterdir()) == sorted(names)
    assert tree_bytes(outs[0]) == tree_bytes(outs[1])
    # every call but the d = 0 usage check ran to a result
    for name in names:
        code = (outs[0] / name / "exit").read_text()
        assert code == ("1\n" if name == "sync-d0" else "0\n"), (name, code)
    assert (outs[0] / "sync-d0" / "stderr").read_text() == "error: d must be nonzero\n"
    assert (outs[0] / "sweep" / "rows.csv").read_text().count("\n") == 1 + 24
