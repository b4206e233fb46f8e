"""Record what the command line of a source tree writes, for byte comparisons.

    python3 tools/cli_outputs.py --tree DIR --out OUTDIR

Runs the fixed list ``CALLS`` of ``camsync`` command lines, in order, through
``camsync.cli.main`` in one subprocess that imports ``DIR/src`` with one BLAS
thread. Each call runs in its own directory ``OUTDIR/<name>``, which ends up
holding the files the call wrote, its ``stdout`` and ``stderr`` and its
``exit`` code. The sync calls read the scenes the synth calls wrote, and the
sweep reads a config written beforehand. ``diff -r`` of two trees' OUTDIRs
then shows whether they give the same bytes.

The scenes are tiny, so a whole list takes a few seconds. OUTDIR must not
exist yet.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

SMOOTH = "../synth-smooth/scene.csv"
EXACT_H = "../synth-exact-h/scene.csv"
PLANAR = "../synth-planar/scene.csv"
SHOT = ["--single-shot", "--threshold", "2", "--max-iterations", "100", "--seed", "3"]
LOOP = ["--threshold", "2", "--max-iterations", "60", "--kmax", "4", "--pmax", "2"]
SWEEP_CONFIG = {
    "betas": [0.0, 1.5], "ds": [1, 2], "noise": [0.5], "scenes": 1, "seed": 7,
    "algorithms": ["f-gep", "f-min", "h-min", "f-7pt", "h-4pt", "iter-f", "iter-h"],
    "n_frames": 40, "n_tracks": 4, "max_iterations": 60, "threshold": 2.0,
    "kmax": 3, "pmax": 1,
}
SCENE = ["--frames", "60", "--out", "scene.csv", "--gt-out", "gt.json"]

# (name, argv); a name is the call's directory under OUTDIR
CALLS = [
    ("synth-smooth", ["synth", "--beta", "2.5", "--tracks", "4", "--seed", "1", *SCENE]),
    ("synth-exact-f", ["synth", "--motion", "exact-linear", "--beta", "3", "--noise", "0",
                       "--tracks", "4", "--seed", "2", *SCENE]),
    ("synth-exact-h", ["synth", "--motion", "exact-linear", "--exact-model", "H",
                       "--beta", "-2", "--noise", "0", "--tracks", "5", "--seed", "4", *SCENE]),
    ("synth-planar", ["synth", "--motion", "planar-smooth", "--beta", "1.5", "--tracks", "5",
                      "--seed", "3", *SCENE]),
    *[
        (f"sync-f-d{d}{'-fps' if fps else ''}",
         ["sync", SMOOTH, *SHOT, f"--d={d}", *(["--fps", "29.97"] if fps else [])])
        for d in (1, 2, -2) for fps in (False, True)
    ],
    ("sync-f-exact", ["sync", "../synth-exact-f/scene.csv", *SHOT, "--out", "report.json"]),
    ("sync-h-exact", ["sync", EXACT_H, "--model", "H", *SHOT]),
    ("sync-h-planar", ["sync", PLANAR, "--model", "H", *SHOT, "--d", "2"]),
    ("sync-beta-max", ["sync", SMOOTH, *SHOT, "--beta-max", "3"]),
    ("sync-d0", ["sync", SMOOTH, *SHOT, "--d", "0"]),
    ("iter-f", ["sync", SMOOTH, *LOOP, "--fps", "25"]),
    ("iter-h", ["sync", PLANAR, "--model", "H", *LOOP]),
    ("sweep", ["sweep", "config.json", "--out", "rows.csv"]),
]


def record(out: str) -> None:
    """Run every call of ``CALLS`` under ``out`` with the ``camsync`` that
    ``sys.path`` finds first."""
    from camsync import cli

    for name, argv in CALLS:
        cwd = os.path.join(out, name)
        os.makedirs(cwd)
        if name == "sweep":
            with open(os.path.join(cwd, "config.json"), "w", encoding="utf-8") as fh:
                json.dump(SWEEP_CONFIG, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        finally:
            os.chdir(out)
        for stream, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue()),
                             ("exit", f"{code}\n")):
            with open(os.path.join(cwd, stream), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)


# the subprocess: DIR/src first on sys.path, then this file's directory
CHILD = """\
import sys
tree_src, tools, out = sys.argv[1:]
sys.path[:0] = [tree_src, tools]
import camsync, cli_outputs
if not camsync.__file__.startswith(tree_src):
    sys.exit(f"camsync imported from {camsync.__file__}, not {tree_src}")
cli_outputs.record(out)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", required=True, help="source tree whose src/ to import")
    parser.add_argument("--out", required=True, help="output directory, created here")
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)
    os.makedirs(out)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    tree_src = os.path.join(os.path.abspath(args.tree), "src") + os.sep
    tools = os.path.dirname(os.path.abspath(__file__))
    return subprocess.run([sys.executable, "-c", CHILD, tree_src, tools, out],
                          env=env, cwd=out).returncode


if __name__ == "__main__":
    sys.exit(main())
