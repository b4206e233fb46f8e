"""tools/record_outputs.py, command line: two recordings of one tree hold the same bytes."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "record_outputs.py"
SPEC = importlib.util.spec_from_file_location("record_outputs", TOOL)
record_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(record_outputs)


def tree_bytes(root: Path) -> dict:
    """Every file under ``root``, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_two_runs_on_the_working_tree_give_identical_bytes(quick_recordings):
    outs = [out / "cli" for out in quick_recordings]
    names = [name for name, _ in record_outputs.CALLS]
    assert sorted(p.name for p in outs[0].iterdir()) == sorted(names)
    assert tree_bytes(outs[0]) == tree_bytes(outs[1])
    # every call but the d = 0 usage check ran to a result
    for name in names:
        code = (outs[0] / name / "exit").read_text()
        assert code == ("1\n" if name == "sync-d0" else "0\n"), (name, code)
    assert (outs[0] / "sync-d0" / "stderr").read_text() == "error: d must be nonzero\n"
    # the same scene with quoted ids and CRLF line ends, read by the csv path
    quoted = outs[0] / "sync-f-d1-quoted"
    assert (quoted / "scene.csv").read_bytes().startswith(
        b"camera_id,track_id,frame,u,v\r\n\"cam1\",\"t0\",0,")
    assert (quoted / "stdout").read_bytes() == (outs[0] / "sync-f-d1" / "stdout").read_bytes()
    assert (outs[0] / "sweep" / "rows.csv").read_text().count("\n") == 1 + 24
