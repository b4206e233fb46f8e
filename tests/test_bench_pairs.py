"""tools/bench_pairs.py: the runs it makes, the JSON it writes, and that it
stops on a wrong or failing run and writes no JSON."""

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

BENCH = {
    "command": ["python3", "perfbench/run.py"], "run_seconds": 1,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [{"name": "op_s_mean", "unit": "s", "better": "lower", "bound": 0.25}],
    "per_layer": [{"name": "robust.draws", "unit": "count", "better": "lower"}],
}


def fake_trees(monkeypatch, bad=None, result=None):
    """Patch the exports and the benchmark command; the run whose label is
    ``bad`` (workload, side, trace) prints ``result`` instead of a good one.
    Returns the labels of the runs made."""
    def export(dest, *_):
        Path(dest).mkdir(parents=True)
        (Path(dest) / "BENCHMARK.json").write_text(json.dumps(BENCH))
        return "tree"

    made = []

    def fake_run(argv, cwd, capture_output, text):
        key = (argv[argv.index("--workload") + 1], Path(cwd).name,
               argv[argv.index("--trace") + 1])
        made.append(key)
        res = {"correct": True, "attempted": 3, "failed": 0,
               "metrics": {"op_s_mean": {"value": 0.1},
                           "robust.draws": {"value": float(len(made))}}}
        if key == bad:
            res.update(result)
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(res) + "\n",
                                           stderr="")

    monkeypatch.setattr(bench_pairs, "export_base", lambda rev, dest: export(dest))
    monkeypatch.setattr(bench_pairs, "export_head", export)
    monkeypatch.setattr(bench_pairs, "subprocess",
                        SimpleNamespace(run=fake_run))
    return made


def test_good_runs_write_the_json(monkeypatch, tmp_path):
    made = fake_trees(monkeypatch)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--base", "HEAD", "--pairs", "2", "--out", str(out)]) == 0
    # per workload: 2 pairs, then 3 traced runs per side, alternating
    assert made[:10] == [("w1", side, trace) for trace, sides in (
        ("0", "base head head base"), ("1", "base head head base base head"))
        for side in sides.split()]
    assert len(made) == 2 * 10
    report = json.loads(out.read_text())
    assert report["traced_runs"] == bench_pairs.TRACED_RUNS == 3
    w2 = report["workloads"]["w2"]
    assert w2["end_to_end"]["op_s_mean"]["head"]["median"] == 0.1
    assert w2["traced"]["runs"]["base"] == [{"correct": True, "attempted": 3, "failed": 0}] * 3
    # robust.draws counts the runs made before it: w2's traced base runs are 15, 18 and 19
    assert w2["traced"]["per_layer"]["robust.draws"]["base"] == {
        "median": 18.0, "q1": 16.5, "q3": 18.5, "values": [15.0, 18.0, 19.0]}


@pytest.mark.parametrize("bad, result, label", [
    (("w1", "head", "0"), {"correct": False}, "w1 pair 1/2: head: correct false"),
    (("w2", "base", "0"), {"failed": 1}, "w2 pair 1/2: base: correct true, 1 of 3"),
    (("w2", "head", "1"), {"correct": False, "failed": 2},
     "w2 traced 1/3: head: correct false, 2 of 3"),
])
def test_wrong_or_failing_run_stops_with_exit_1(monkeypatch, tmp_path, capsys, bad, result, label):
    made = fake_trees(monkeypatch, bad, result)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--base", "HEAD", "--pairs", "2", "--out", str(out)]) == 1
    assert f"error: {label}" in capsys.readouterr().err
    assert made[-1] == bad  # no run after the failing one
    assert not out.exists()
