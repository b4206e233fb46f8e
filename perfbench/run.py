"""camsync benchmark: one workload, one process, one estimate at a time.

    python3 perfbench/run.py --workload iter-f-long --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; camsync is imported from its
``src``. The run sets up (imports, scene generation, CSV writing, one
untimed warm-up estimate) three times, then runs whole rounds of the
workload's estimates, each checked against ground truth, until another round
would end past ``--seconds``. A fixed numpy kernel is timed before each
set-up and estimate, and every timing is reported in seconds at the speed at
which that kernel takes ``calibration.REFERENCE_S`` (see calibration.py).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics from a traced run with
``--trace 1``. A traced run also writes its spans to
``.bench_out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import os

# one caller, no threads of its own; also keeps results bit-reproducible
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("iter-f-long", "ransac-outliers", "cli-ingest-h")
SETUP_REPEATS = 3
TIME_UNITS = ("s", "us")
SETUP_LAYERS = ("synth.generate_scene.s",)

_t0 = time.perf_counter()
sys.path.insert(0, SRC)
try:
    import calibration
    import workloads
    from tracer import Tracer
except ImportError as exc:  # a directory without the camsync sources
    workloads = Tracer = None
    IMPORT_ERROR = exc
else:
    IMPORT_ERROR = "camsync imported from elsewhere"
IMPORT_S = time.perf_counter() - _t0


def run_rounds(ops, seconds, cal, wrap=None):
    """Whole rounds of ``ops``; a new round starts only if it should end in time.

    Returns one ``(op, seconds, |beta error|, failure)`` per estimate, and
    appends a calibration kernel time to ``cal`` before each estimate and
    one after the last.
    """
    records = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for op in ops:
            cal.append(calibration.kernel_s())
            records.append((op, *workloads.run_op(op, wrap(op) if wrap else None)))
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            cal.append(calibration.kernel_s())
            return records


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def local_scales(cal):
    """Per estimate, ``REFERENCE_S`` over the median kernel time around it.

    ``cal[i]`` was taken just before estimate ``i`` and ``cal[-1]`` after the
    last one; estimate ``i`` uses ``cal[i-1 .. i+2]``. Scaling each estimate
    by the host speed of its own few seconds follows drift that a factor for
    the whole run misses: on iter-f-long the seven syncs and the solver probe
    fill different parts of a round, and the host can change speed between
    them.
    """
    return [calibration.REFERENCE_S / statistics.median(cal[max(i - 1, 0):i + 3])
            for i in range(len(cal) - 1)]


def end_to_end(records, setup_s):
    """Timings are means over a run's estimates, not medians.

    A run's estimates are a fixed set of scenes whose costs differ by up to
    5x; a median of them is one scene's time and jumps to the next scene's
    with the seed or a little noise, while the mean moves smoothly.
    """
    out = {
        "setup_s": (setup_s, "s"),
        "op_s_mean": (mean([dt for op, dt, _, _ in records if op.main]), "s"),
    }
    for kind in workloads.KINDS:
        times = [dt for op, dt, _, _ in records
                 if op.span.endswith("ransac_estimate") and op.kind == kind]
        out[f"ransac_s_mean.{kind}"] = (mean(times), "s")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mib"] = (rss, "MiB")
    return out


def per_layer(tracer, records, gen_times):
    """Per-layer metrics per main estimate, from spans under main estimates.

    Also returns a list of traced counts that disagree with the program's own.
    """
    spans = tracer.spans
    roots = tracer.roots()
    selfs = tracer.self_times()
    main_roots = {i for i, s in enumerate(spans) if s[3] < 0 and not s[0].startswith("probe.")}
    n = sum(op.main for op, _, _, _ in records)
    calls, secs, self_s = {}, {}, {}
    notes: dict[str, list] = {}
    for i, s in enumerate(spans):
        if roots[i] not in main_roots:
            continue
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + s[2] - s[1]
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        notes.setdefault(name, []).append((i, s[4]))

    def ok_notes(name):
        return [nt for _, nt in notes.get(name, []) if not isinstance(nt, str)]

    m = {
        "trajio.read_trajectories.s": (secs.get("trajio.read_trajectories", 0.0) / n, "s"),
        "synth.generate_scene.s": (median(gen_times), "s"),
        "robust.build_correspondences.calls": (calls.get("robust.build_correspondences", 0) / n, "count"),
        "robust.build_correspondences.s": (secs.get("robust.build_correspondences", 0.0) / n, "s"),
        "geometry.linearize.calls": (sum(c for (name, root), c in tracer.counts.items()
                                         if name == "geometry.linearize.calls"
                                         and root in main_roots) / n, "count"),
    }
    mismatches = []
    draws = {k: 0 for k in workloads.KINDS}
    for kind, it in ok_notes("robust.ransac_estimate"):
        draws[kind] += it
    solver_calls = valid = candidates = 0
    for kind in workloads.KINDS:
        name = f"solvers.{kind}"
        c = calls.get(name, 0)
        results = [nt for _, nt in notes.get(name, [])]
        rejected = sum(nt in ("DegenerateInput", "NoRealSolution") for nt in results)
        m[f"{name}.calls"] = (c / n, "count")
        m[f"{name}.us_per_call"] = (secs.get(name, 0.0) / c * 1e6 if c else 0.0, "us")
        m[f"{name}.rejected"] = (rejected / n, "count")
        solver_calls += c
        valid += sum(isinstance(nt, int) and nt > 0 for nt in results)
        candidates += sum(nt for nt in results if isinstance(nt, int))
        if c != draws[kind]:
            mismatches.append(f"{c} {name} spans, {draws[kind]} RANSAC iterations")
    in_ransac = sum(spans[spans[i][3]][0].endswith("ransac_estimate")
                    for i, _ in notes.get("robust.score_candidate", []) if spans[i][3] >= 0)
    sync_notes = ok_notes("sync.iterative_sync")
    ransac_in_sync = sum(1 for i, _ in notes.get("robust.ransac_estimate", [])
                         if spans[i][3] >= 0 and spans[spans[i][3]][0] == "sync.iterative_sync")
    if ransac_in_sync != sum(c for c, _ in sync_notes):
        mismatches.append(f"{ransac_in_sync} ransac_estimate spans in syncs, "
                          f"{sum(c for c, _ in sync_notes)} SyncRun.ransac_calls")
    m.update({
        "robust.score_candidate.calls": (calls.get("robust.score_candidate", 0) / n, "count"),
        "robust.score_candidate.s": (secs.get("robust.score_candidate", 0.0) / n, "s"),
        "robust.score_candidate.rows": (sum(ok_notes("robust.score_candidate")) / n, "count"),
        "robust.refine_candidate.s": (secs.get("robust.refine_candidate", 0.0) / n, "s"),
        "robust.ransac_estimate.self_s": (self_s.get("robust.ransac_estimate", 0.0) / n, "s"),
        "robust.draws": (sum(draws.values()) / n, "count"),
        "robust.valid_draw_ratio": (valid / solver_calls if solver_calls else 0.0, "ratio"),
        "robust.candidates_scored_ratio": (in_ransac / candidates if candidates else 0.0, "ratio"),
        "sync.iterative_sync.self_s": (self_s.get("sync.iterative_sync", 0.0) / n, "s"),
        "sync.ransac_calls": (sum(c for c, _ in sync_notes) / n, "count"),
        "sync.accepted_steps": (sum(a for _, a in sync_notes) / n, "count"),
        "cli.main.self_s": (self_s.get("cli.main", 0.0) / n, "s"),
    })
    return m, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if workloads is None or not os.path.isdir(os.path.join(SRC, "camsync")):
        print(f"error: cannot import camsync from {SRC}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    tracer = Tracer() if args.trace else None
    try:
        setup_times, gen_times, setup_cal, cal = [], [], [], []
        for _ in range(SETUP_REPEATS):
            setup_cal.append(calibration.kernel_s())
            t0 = time.perf_counter()
            ops = workloads.build_round(args.workload, args.seed, workdir, gen_times)
            warm = next(op for op in ops if op.fn is workloads.robust.ransac_estimate)
            warm.fn(*warm.args)
            setup_times.append(time.perf_counter() - t0)
        wrap = None
        if tracer is not None:
            workloads.install(tracer)

            def wrap(op):
                return tracer.wrap(op.fn, op.span, workloads.NOTES.get(op.span))

        records = run_rounds(ops, args.seconds, cal, wrap)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(op, msg) for op, _, _, msg in records if msg is not None]
    wrong = [msg for _, msg in failures if msg.startswith("wrong answer")]
    errs = [e for op, _, e, _ in records if op.main and e is not None]
    rounds = len(records) // len(ops)
    print(f"{args.workload} seed {args.seed}: {rounds} round(s) of {len(ops)} estimates, "
          f"{len(failures)} failed", file=sys.stderr)
    for op, msg in failures[: len(ops)]:
        print(f"  {op.span} {op.kind}: {msg}", file=sys.stderr)
    # timings in seconds at the reference host speed (calibration.py): each
    # estimate by the kernel times around it, set-up by those taken during
    # set-up, the traced run's layers by the median over the whole run
    scaled = [(op, dt * k, e, msg) for (op, dt, e, msg), k in zip(records, local_scales(cal))]
    setup_scale = calibration.REFERENCE_S / statistics.median(setup_cal + cal[:1])
    scale = calibration.REFERENCE_S / statistics.median(cal)
    setup_s = IMPORT_S + statistics.median(setup_times)
    if tracer is None:
        unscaled = end_to_end(records, setup_s)
        metrics = end_to_end(scaled, setup_s * setup_scale)
        mismatches = []
    else:
        layers, mismatches = per_layer(tracer, records, gen_times)
        unscaled = dict(layers)
        metrics = {k: (v * (setup_scale if k in SETUP_LAYERS else scale)
                       if u in TIME_UNITS else v, u) for k, (v, u) in layers.items()}
        metrics["beta_err_p50"] = (median(errs), "frames")
        metrics["trace.op_s_mean"] = (mean([dt for op, dt, _, _ in scaled if op.main]), "s")
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.dump(path)
        print(f"spans written to {path}", file=sys.stderr)
    for msg in mismatches:
        print(f"  traced count mismatch: {msg}", file=sys.stderr)
    print(f"calibration: kernel {statistics.median(cal) * 1e3:.2f} ms, reference "
          f"{calibration.REFERENCE_S * 1e3:.2f} ms; unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, (v, u) in unscaled.items() if u in TIME_UNITS),
          file=sys.stderr)
    result = {
        "correct": not wrong and not mismatches,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
