"""Record a source tree's command-line and library outputs, for byte comparisons.

    python3 tools/record_outputs.py --tree DIR --out OUTDIR [--quick]

Runs in one subprocess that imports ``DIR/src`` with one BLAS thread and
writes two directories under OUTDIR:

- ``cli/<call>/``: the fixed list ``CALLS`` of ``camsync`` command lines, run
  in order through ``camsync.cli.main``, each in its own directory, which
  ends up holding the files the call wrote, its ``stdout`` and ``stderr`` and
  its ``exit`` code. The sync calls read the scenes the synth calls wrote.
  Two calls read an input written into their directory beforehand: the sweep
  its config, and ``sync-f-d1-quoted`` a copy of the smooth scene with quoted
  ids and CRLF line ends, which the reader's ``csv`` path parses, so its
  stdout must equal ``sync-f-d1``'s. The scenes are tiny, so the list takes
  a few seconds.
- ``lib/<op>``: the benchmark's library operations on every scene of its
  banks (``perfbench/workloads.BANKS``, taken from this file's checkout so
  that both trees run the same list), one text file per operation:

  - ``ransac-outliers-sNN-KIND``: one ``ransac_estimate`` per kind on scene
    NN, the benchmark's f-gep, f-min and h-min plus the baselines f-7pt (on
    the f-gep scene) and h-4pt (on the h-min scene). The file holds beta, the
    model's bytes, the inlier mask, ``iterations_run`` and the keys.
  - ``iter-f-long-sNN``: one ``iterative_sync``; the file holds the shift,
    the model's bytes, ``ransac_calls``, ``accepted_steps`` and every record.
  - ``cli-ingest-h-sNN-a`` and ``-b``: the two ``camsync sync`` calls of the
    workload; the file holds the exit code, stdout, stderr and the report.

  An operation that raises a ``CamsyncError`` writes its class and message
  instead. Floats are written as ``float.hex``, the model as the hex of its
  bytes, the mask as the hex of its ``np.packbits`` and the keys as the
  sha256 of their ``repr``.

``diff -r`` of two trees' OUTDIRs then names each call and operation whose
bytes differ. ``--quick`` runs the first scene of each bank only, in a few
seconds, and every CLI call as without it; the full banks take under a
minute. OUTDIR must not exist yet.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ---------------------------------------------------------------------------
# command-line calls

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

# (name, argv); a name is the call's directory under OUTDIR/cli
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
    ("sync-f-d1-quoted", ["sync", "scene.csv", *SHOT, "--d=1"]),
    ("sync-f-exact", ["sync", "../synth-exact-f/scene.csv", *SHOT, "--out", "report.json"]),
    ("sync-h-exact", ["sync", EXACT_H, "--model", "H", *SHOT]),
    ("sync-h-planar", ["sync", PLANAR, "--model", "H", *SHOT, "--d", "2"]),
    ("sync-beta-max", ["sync", SMOOTH, *SHOT, "--beta-max", "3"]),
    ("sync-d0", ["sync", SMOOTH, *SHOT, "--d", "0"]),
    ("iter-f", ["sync", SMOOTH, *LOOP, "--fps", "25"]),
    ("iter-h", ["sync", PLANAR, "--model", "H", *LOOP]),
    ("sweep", ["sweep", "config.json", "--out", "rows.csv"]),
]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _quoted_crlf(text: str) -> str:
    """A trajectory CSV with each row's two ids quoted and CRLF line ends."""
    header, *rows = text.splitlines()
    quoted = (f'"{cam}","{track}",{rest}' for cam, track, rest in (r.split(",", 2) for r in rows))
    return "".join(line + "\r\n" for line in (header, *quoted))


def record_cli(out: str) -> None:
    """Run every call of ``CALLS`` under ``out``."""
    from camsync import cli

    cwd0 = os.getcwd()
    for name, argv in CALLS:
        cwd = os.path.join(out, name)
        os.makedirs(cwd)
        if name == "sweep":
            _write(os.path.join(cwd, "config.json"), json.dumps(SWEEP_CONFIG))
        elif name == "sync-f-d1-quoted":
            with open(os.path.join(out, "synth-smooth", "scene.csv"), encoding="utf-8") as fh:
                _write(os.path.join(cwd, "scene.csv"), _quoted_crlf(fh.read()))
        stdout, stderr = io.StringIO(), io.StringIO()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        finally:
            os.chdir(cwd0)
        for stream, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue()),
                             ("exit", f"{code}\n")):
            _write(os.path.join(cwd, stream), text)


# ---------------------------------------------------------------------------
# library operations

BASELINES = {"f-gep": "f-7pt", "h-min": "h-4pt"}  # kind -> baseline on its scene


def _model(model) -> str:
    return f"model {model.kind} {model.m.tobytes().hex()}"


def _ransac_lines(op) -> list[str]:
    res = op.fn(*op.args)
    return [
        f"beta {float(res.best.beta).hex()}",
        _model(res.best.model),
        f"inliers {res.inlier_count} of {res.total_correspondences}",
        f"mask {np.packbits(res.inlier_mask).tobytes().hex()}",
        f"iterations_run {res.iterations_run}",
        f"keys {len(res.keys)} {hashlib.sha256(repr(res.keys).encode()).hexdigest()}",
    ]


def _sync_lines(op) -> list[str]:
    run = op.fn(*op.args)
    lines = [
        f"beta_total {float(run.beta_total).hex()}",
        _model(run.model),
        f"ransac_calls {run.ransac_calls}",
        f"accepted_steps {run.accepted_steps}",
        f"total_correspondences {run.total_correspondences}",
    ]
    for r in run.iterations:
        lines.append(
            f"record k={r.k} d={r.d} inliers={r.inlier_count} "
            f"beta_k={float(r.beta_k).hex()} accepted={r.accepted} "
            f"j_after={r.j_after} skipped_after={r.skipped_after}"
        )
    return lines


def _cli_lines(op) -> list[str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = op.fn(*op.args)
    argv = op.args[0]
    with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
        report = fh.read()
    return [f"exit {code}", f"stdout {stdout.getvalue()!r}", f"stderr {stderr.getvalue()!r}",
            f"report {report}"]


def operations(quick: bool, workdir: str):
    """(name, Op, lines) per operation, in bank order; ``lines(op)`` runs the
    op and formats its result."""
    import workloads

    def seeds(workload):
        return range(1 if quick else workloads.BANKS[workload][0])

    gen_times: list = []
    for s in seeds("ransac-outliers"):
        for op in workloads.ransac_ops(s, True, gen_times):
            yield f"ransac-outliers-s{s:02d}-{op.kind}", op, _ransac_lines
            if op.kind in BASELINES:
                kind = BASELINES[op.kind]
                t1, t2, _, params = op.args
                base = replace(op, kind=kind, args=(t1, t2, kind, params))
                yield f"ransac-outliers-s{s:02d}-{kind}", base, _ransac_lines
    for s in seeds("iter-f-long"):
        yield f"iter-f-long-s{s:02d}", workloads.iter_op(s, gen_times), _sync_lines
    for s in seeds("cli-ingest-h"):
        for tag, op in zip("ab", workloads.cli_ops(s, workdir, gen_times)):
            yield f"cli-ingest-h-s{s:02d}-{tag}", op, _cli_lines


def record_lib(out: str, quick: bool) -> None:
    """Write every operation's file under ``out``."""
    from camsync.errors import CamsyncError

    with tempfile.TemporaryDirectory() as workdir:
        for name, op, lines in operations(quick, workdir):
            try:
                text = lines(op)
            except CamsyncError as exc:
                text = [f"error {type(exc).__name__}: {exc}"]
            _write(os.path.join(out, name), "\n".join(text) + "\n")


def record(out: str, quick: bool) -> None:
    """Write ``out/cli`` and ``out/lib`` with the ``camsync`` that
    ``sys.path`` finds first."""
    for part in ("cli", "lib"):
        os.makedirs(os.path.join(out, part))
    record_cli(os.path.join(out, "cli"))
    record_lib(os.path.join(out, "lib"), quick)


# the subprocess: DIR/src first on sys.path, then this file's directory and
# this checkout's perfbench/
CHILD = """\
import sys
tree_src, tools, perfbench, out, quick = sys.argv[1:]
sys.path[:0] = [tree_src, tools, perfbench]
import camsync, record_outputs
if not camsync.__file__.startswith(tree_src):
    sys.exit(f"camsync imported from {camsync.__file__}, not {tree_src}")
record_outputs.record(out, quick == "1")
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", required=True, help="source tree whose src/ to import")
    parser.add_argument("--out", required=True, help="output directory, created here")
    parser.add_argument("--quick", action="store_true",
                        help="first scene of each bank only")
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)
    os.makedirs(out)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    tree_src = os.path.join(os.path.abspath(args.tree), "src") + os.sep
    tools = os.path.dirname(os.path.abspath(__file__))
    return subprocess.run(
        [sys.executable, "-c", CHILD, tree_src, tools, os.path.join(ROOT, "perfbench"), out,
         "1" if args.quick else "0"],
        env=env, cwd=out,
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
