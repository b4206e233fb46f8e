"""Compare a base revision with the working tree on the benchmark.

    python3 tools/bench_pairs.py --base HEAD~1 --pairs 10 --out BENCH_<n>.json

Exports ``--base`` (a git revision) and the working tree's tracked and
unignored files into fresh directories, then runs the command that
BENCHMARK.json declares once per side and workload for each of ``--pairs``
pairs, alternating which side runs first. Every run uses seed 0 and
BENCHMARK.json's ``run_seconds``. After the pairs, ``TRACED_RUNS`` traced
runs (``--trace 1``) per side and workload, alternating in the same way,
record the per-layer metrics.

The output JSON holds, per workload and end-to-end metric, each side's
values, median and quartiles, and in how many pairs the head's value was
better; per workload and per-layer metric, each side's traced values, median
and quartiles; each run's ``correct``, ``attempted`` and ``failed``; and a
description of the machine. Progress goes to stderr.

A run that exits non-zero, reads ``correct: false`` or has ``failed`` > 0
stops the comparison: the script names the run on stderr, writes no JSON and
exits 1.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")
SEED = 0
# a per-layer figure moves by 20 % or more between two traced runs of the
# same tree, so one traced run per side cannot support a per-layer claim
TRACED_RUNS = 3


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True).stdout


def export_base(rev: str, dest: str) -> str:
    """Write ``rev``'s files into ``dest``; returns its short hash."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")
    return git("rev-parse", "--short", rev).decode().strip()


def export_head(dest: str) -> str:
    """Write the working tree's tracked and unignored files into ``dest``;
    returns a description of them."""
    for name in git("ls-files", "-z", "-co", "--exclude-standard").split(b"\0"):
        path = os.fsdecode(name)
        src = os.path.join(ROOT, path)
        if path and os.path.isfile(src):
            os.makedirs(os.path.join(dest, os.path.dirname(path)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, path))
    return "working tree at " + git("rev-parse", "--short", "HEAD").decode().strip()


class RunFailed(Exception):
    """A benchmark run that exited non-zero, was wrong or had failures."""


def run(tree: str, command: list, workload: str, seconds: float, trace: int,
        label: str) -> dict:
    """One benchmark run in ``tree``; the JSON object of its last stdout line.

    Raises ``RunFailed``, naming the run by ``label``, if it exits non-zero,
    reads ``correct: false`` or reports failed operations.
    """
    argv = [*command, "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{label}: {' '.join(argv)} in {tree} exited "
                        f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if res["correct"] is not True or res["failed"] > 0:
        raise RunFailed(f"{label}: correct {str(res['correct']).lower()}, "
                        f"{res['failed']} of {res['attempted']} operations failed\n"
                        f"{proc.stderr[-2000:]}")
    return res


def alternating_runs(trees: dict, command: list, workload: str, seconds: float,
                     trace: int, count: int, what: str) -> dict[str, list[dict]]:
    """``count`` runs per side, the first side alternating from round to round."""
    runs = {side: [] for side in SIDES}
    for i in range(count):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            label = f"{workload} {what} {i + 1}/{count}: {side}"
            print(label, file=sys.stderr)
            runs[side].append(run(trees[side], command, workload, seconds, trace, label))
    return runs


def outcomes(runs: dict[str, list[dict]]) -> dict:
    return {side: [{k: r[k] for k in ("correct", "attempted", "failed")} for r in runs[side]]
            for side in SIDES}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "platform": platform.platform(),
        "cpu": model,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,  # perfbench/run.py pins them
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the base tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    workdir = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        trees = {side: os.path.join(workdir, side) for side in SIDES}
        revs = {"base": export_base(args.base, trees["base"]),
                "head": export_head(trees["head"])}
        with open(os.path.join(trees["head"], "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        seconds = bench["run_seconds"]
        out = {
            "base": revs["base"], "head": revs["head"], "machine": machine(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "command": bench["command"], "seconds": seconds, "seed": SEED,
            "pairs": args.pairs, "traced_runs": TRACED_RUNS, "workloads": {},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            runs = alternating_runs(trees, bench["command"], workload, seconds, 0,
                                    args.pairs, "pair")
            metrics = {}
            for spec in bench["end_to_end"]:
                name = spec["name"]
                values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                          for side in SIDES}
                sign = 1 if spec["better"] == "lower" else -1
                metrics[name] = {
                    "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                    **{side: summary(values[side]) for side in SIDES},
                    "pairs_head_better": sum(sign * (h - b) < 0 for b, h in
                                             zip(values["base"], values["head"])),
                }
            traced = alternating_runs(trees, bench["command"], workload, seconds, 1,
                                      TRACED_RUNS, "traced")
            per_layer = {
                spec["name"]: {
                    "unit": spec["unit"], "better": spec["better"],
                    **{side: summary([r["metrics"][spec["name"]]["value"]
                                      for r in traced[side]]) for side in SIDES},
                }
                for spec in bench["per_layer"]
            }
            out["workloads"][workload] = {
                "runs": outcomes(runs),
                "end_to_end": metrics,
                "traced": {"runs": outcomes(traced), "per_layer": per_layer},
            }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
