"""Fast tests of the benchmark itself, on scenes smaller than the workloads'.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import run  # puts the checkout's src on sys.path before camsync loads
import workloads
from tracer import Tracer

SMALL_ITER = dict(workloads.ITER_SCENE, beta_gt=20.0, n_tracks=4, n_frames=120)
SMALL_CLI = dict(workloads.CLI_SCENE, n_tracks=6, n_frames=120)


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "ITER_SCENE", SMALL_ITER)
    monkeypatch.setattr(workloads, "CLI_SCENE", SMALL_CLI)


def _ops(tmp_path):
    g = []
    return (workloads.ransac_ops(0, True, g) + [workloads.iter_op(0, g)]
            + workloads.cli_ops(0, str(tmp_path), g))


def _outputs(ops, wrap=None):
    """(beta, model bytes) of each op, or the report bytes of a CLI call."""
    out = []
    for op in ops:
        res = (wrap(op) if wrap else op.fn)(*op.args)
        if op.span == "cli.main":
            with open(op.args[0][-1], "rb") as fh:
                out.append(fh.read())
        elif op.span == "sync.iterative_sync":
            out.append((res.beta_total, res.model.m.tobytes(), res.ransac_calls))
        else:
            out.append((res.best.beta, res.best.model.m.tobytes(), res.iterations_run))
    return out


def _traced(tracer):
    return lambda op: tracer.wrap(op.fn, op.span, workloads.NOTES.get(op.span))


def test_traced_outputs_identical(small, tmp_path):
    ops = _ops(tmp_path)
    plain = _outputs(ops)
    tracer = Tracer()
    workloads.install(tracer)
    try:
        traced = _outputs(ops, _traced(tracer))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert workloads.sync.ransac_estimate is workloads.robust.ransac_estimate


def test_traced_counts_equal_program_counts(small, tmp_path):
    ops = _ops(tmp_path)
    tracer = Tracer()
    workloads.install(tracer)
    try:
        results = [(op, _traced(tracer)(op)(*op.args)) for op in ops if op.span != "cli.main"]
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    for kind in workloads.KINDS:
        iterations = sum(r.iterations_run for op, r in results
                         if op.span == "robust.ransac_estimate" and op.kind == kind)
        if kind == workloads.KIND_F_GEP:
            iterations += sum(s[4][1] for s in tracer.spans
                              if s[0] == "robust.ransac_estimate" and s[3] >= 0
                              and isinstance(s[4], list))
        assert names.count(f"solvers.{kind}") == iterations > 0
    # every solve either returned candidates or was rejected, and some were
    outcomes = [s[4] for s in tracer.spans if s[0].startswith("solvers.")]
    rejected = [o for o in outcomes if not isinstance(o, int)]
    assert set(rejected) <= {"DegenerateInput", "NoRealSolution"} and rejected
    syncs = [r for op, r in results if op.span == "sync.iterative_sync"]
    nested = [s for s in tracer.spans if s[0] == "robust.ransac_estimate" and s[3] >= 0]
    assert len(nested) == sum(r.ransac_calls for r in syncs) > 0
    records = [(op, 0.1, 0.0, None) for op, _ in results]
    _, mismatches = run.per_layer(tracer, records, [0.1])
    assert mismatches == []


def _bump_largest(m):
    m = np.array(m, dtype=float)
    m.flat[np.argmax(np.abs(m))] *= 1.1
    return m


def _wrong_answers(op, out):
    """Answers that each differ from ``out`` in one respect."""
    if op.span == "sync.iterative_sync":
        return [replace(out, beta_total=out.beta_total + 2),
                replace(out, model=replace(out.model, m=_bump_largest(out.model.m)))]
    best = out.best
    model = replace(best.model, m=_bump_largest(best.model.m))
    return [replace(out, best=replace(best, beta=best.beta + 2)),
            replace(out, inlier_mask=~out.inlier_mask),
            replace(out, best=replace(best, model=model))]


def _wrong_reports(report):
    matrix = [float(x) for x in _bump_largest(report["model"]["matrix"])]
    return [dict(report, beta=report["beta"] + 2),
            dict(report, total=report["total"] + 1),
            dict(report, model=dict(report["model"], matrix=matrix))]


def test_checks_reject_wrong_answers(small, tmp_path):
    for op in _ops(tmp_path):
        out = op.fn(*op.args)
        assert op.check(out) < 1.0
        if op.span != "cli.main":
            for wrong in _wrong_answers(op, out):
                with pytest.raises(workloads.CheckFailed):
                    op.check(wrong)
            continue
        with pytest.raises(workloads.CheckFailed):
            op.check(workloads.cli.EXIT_ALGORITHM)
        path = op.args[0][-1]
        with open(path, "rb") as fh:
            good = fh.read()
        for report in _wrong_reports(json.loads(good)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(report, fh)
            with pytest.raises(workloads.CheckFailed):
                op.check(out)
        with open(path, "wb") as fh:
            fh.write(good)


def test_scene_seeds_follow_workload_seed():
    for name, (bank, per_run) in workloads.BANKS.items():
        a = workloads.scene_seeds(name, 3)
        assert a == workloads.scene_seeds(name, 3)
        assert len(set(a)) == per_run and all(0 <= s < bank for s in a)


def test_local_scales_follow_the_kernel_around_each_estimate():
    ref = run.calibration.REFERENCE_S
    scales = run.local_scales([ref] * 4 + [2 * ref] * 5)
    assert len(scales) == 8 and scales[0] == 1.0 and scales[-1] == 0.5
    # one slow kernel sample among steady ones moves no estimate
    assert run.local_scales([ref, ref, 9 * ref, ref, ref]) == [1.0] * 4
