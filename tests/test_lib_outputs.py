"""tools/lib_outputs.py: two quick recordings of one tree hold the same bytes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "lib_outputs.py"


def test_two_quick_runs_on_the_working_tree_give_identical_bytes(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        subprocess.run([sys.executable, str(TOOL), "--tree", str(ROOT), "--out", str(out),
                        "--quick"], check=True, timeout=120)
    files = [{p.name: p.read_bytes() for p in (out / "lib").iterdir()} for out in outs]
    assert files[0] == files[1]
    assert sorted(files[0]) == [
        "cli-ingest-h-s00-a", "cli-ingest-h-s00-b", "iter-f-long-s00",
        *(f"ransac-outliers-s00-{kind}" for kind in ("f-7pt", "f-gep", "f-min", "h-4pt",
                                                     "h-min")),
    ]
    # every op ran to a result, and the two CLI calls wrote the same report
    assert not any(text.startswith(b"error") for text in files[0].values())
    assert files[0]["cli-ingest-h-s00-a"] == files[0]["cli-ingest-h-s00-b"]
    for kind in ("f-7pt", "h-4pt"):
        assert files[0][f"ransac-outliers-s00-{kind}"].startswith(b"beta 0x0.0p+0\n")
