"""The benchmark's workloads: scene banks, the estimates of one round, their checks.

Each workload draws its scenes from a fixed bank of scene seeds, and the
workload seed picks which of them a run uses. Within a scene, the RANSAC seed
is the scene seed and the outlier seed is the scene seed plus 777, the
conventions of the acceptance criteria the scenes come from.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

import camsync.cli as cli
import camsync.robust as robust
import camsync.sync as sync
from camsync.errors import CamsyncError
from camsync.robust import KIND_F_GEP, KIND_F_MIN, KIND_H_MIN, RansacParams
from camsync.sync import IterParams
from camsync.synth import (
    PLANAR_SMOOTH,
    SMOOTH_RANDOM,
    SceneSpec,
    generate_scene,
    inject_outliers,
)
from camsync.trajio import write_trajectories

import checks

KINDS = (KIND_F_GEP, KIND_F_MIN, KIND_H_MIN)

# ROADMAP bench scene with acceptance criterion 06's shift
ITER_SCENE = dict(
    beta_gt=50.0, noise_sigma=0.5, n_tracks=10, n_frames=240,
    waypoint_spacing=300.0, speed_px_per_frame=4.0,
)
ITER_PARAMS = dict(k_max=20, p_min=0, p_max=5)
ITER_RANSAC = dict(threshold=5.0, max_iterations=100)
ITER_BETA_TOL = 1.0
ITER_MAX_CALLS = 60
ITER_MAX_ACCEPTED = 12

# acceptance criterion 10's scene
RO_SCENE = dict(beta_gt=3.0, noise_sigma=0.5, n_tracks=6, n_frames=120,
                waypoint_spacing=120.0)
RO_RANSAC = dict(threshold=3.0, max_iterations=500, d=4)
OUTLIER_FRACTION = 0.3
OUTLIER_SEED_OFFSET = 777
SMALL_BETA_TOL = 0.5

CLI_SCENE = dict(beta_gt=3.0, noise_sigma=0.5, n_tracks=40, n_frames=300,
                 waypoint_spacing=120.0, motion=PLANAR_SMOOTH)
CLI_D = 4
CLI_ARGS = ["--model", "H", "--single-shot", "--d", str(CLI_D), "--threshold", "3",
            "--max-iterations", "200"]

# workload -> (scene seeds in the bank, scenes per run); a run uses most of
# its bank, so that runs with different seeds do nearly the same work
BANKS = {
    "iter-f-long": (12, 7),
    "ransac-outliers": (24, 22),
    "cli-ingest-h": (12, 6),
}
# ransac-outliers scenes on which the other workloads time each solver kind
PROBE_SCENES = (0, 1, 2, 3, 4)


class CheckFailed(Exception):
    """An estimate disagrees with the scene's ground truth."""


@dataclass
class Op:
    """One estimate of a round.

    ``span`` names the call in a traced run; ``main`` is False for the
    solver probes other workloads run. ``check(output)`` returns |beta error|
    in frames or raises ``CheckFailed``.
    """

    span: str
    kind: str
    main: bool
    fn: object
    args: tuple
    check: object


def scene_seeds(workload: str, seed: int) -> list[int]:
    bank, per_run = BANKS[workload]
    rng = np.random.default_rng(seed)
    return sorted(int(s) for s in rng.choice(bank, size=per_run, replace=False))


def _timed_scene(gen_times: list, **spec):
    t0 = time.perf_counter()
    scene = generate_scene(SceneSpec(**spec))
    gen_times.append(time.perf_counter() - t0)
    return scene


def _check_beta(beta: float, beta_gt: float, tol: float) -> float:
    err = abs(beta - beta_gt)
    if not err < tol:
        raise CheckFailed(f"|beta - {beta_gt}| = {err:.4f} >= {tol}")
    return err


def _check_model(is_f: bool, m, pairs) -> None:
    err = checks.model_err_px(is_f, np.asarray(m), pairs)
    if not err < checks.MODEL_ERR_PX:
        raise CheckFailed(f"median clean-pair error {err:.3f} px >= {checks.MODEL_ERR_PX}")


def check_ransac(kind, traj1, labels, pairs, res) -> float:
    err = _check_beta(res.best.beta, RO_SCENE["beta_gt"], SMALL_BETA_TOL)
    f1 = checks.f1_score(res.inlier_mask, checks.inlier_truth(res.keys, traj1, labels))
    if not f1 >= checks.MIN_F1:
        raise CheckFailed(f"inlier F1 {f1:.4f} < {checks.MIN_F1}")
    _check_model(kind != KIND_H_MIN, res.best.model.m, pairs)
    return err


def check_iter(pairs, run) -> float:
    err = _check_beta(run.beta_total, ITER_SCENE["beta_gt"], ITER_BETA_TOL)
    _check_model(True, run.model.m, pairs)
    if run.ransac_calls > ITER_MAX_CALLS or run.accepted_steps > ITER_MAX_ACCEPTED:
        raise CheckFailed(
            f"{run.ransac_calls} RANSAC calls, {run.accepted_steps} accepted steps"
        )
    return err


def check_report(csv_path, out_path, pairs, first_out, code) -> float:
    if code != cli.EXIT_OK:
        raise CheckFailed(f"camsync sync exited {code}")
    with open(out_path, "rb") as fh:
        text = fh.read()
    if first_out is not None:
        with open(first_out, "rb") as fh:
            if fh.read() != text:
                raise CheckFailed("two calls with one seed gave different reports")
    report = json.loads(text)
    if report["model"]["kind"] != "homography":
        raise CheckFailed(f"report model kind {report['model']['kind']!r}")
    err = _check_beta(report["beta"], CLI_SCENE["beta_gt"], SMALL_BETA_TOL)
    total = checks.count_rows(csv_path, CLI_D)
    if report["total"] != total:
        raise CheckFailed(f"report total {report['total']}, CSV gives {total}")
    if not report["inliers"] <= total:
        raise CheckFailed(f"{report['inliers']} inliers > {total} rows")
    _check_model(False, np.reshape(report["model"]["matrix"], (3, 3)), pairs)
    return err


def ransac_ops(scene_seed: int, main: bool, gen_times: list) -> list[Op]:
    """f-gep and f-min on a smooth scene, h-min on a planar one, 30% outliers."""
    ops = []
    for motion, kinds in ((SMOOTH_RANDOM, KINDS[:2]), (PLANAR_SMOOTH, KINDS[2:])):
        t1, t2, gt = _timed_scene(gen_times, seed=scene_seed, motion=motion, **RO_SCENE)
        (t1o, t2o), labels = inject_outliers(
            t1, t2, OUTLIER_FRACTION, seed=scene_seed + OUTLIER_SEED_OFFSET
        )
        pairs = checks.clean_pairs(gt)
        for kind in kinds:
            params = RansacParams(seed=scene_seed, **RO_RANSAC)
            ops.append(Op(
                span="robust.ransac_estimate" if main else "probe.ransac_estimate",
                kind=kind, main=main, fn=robust.ransac_estimate,
                args=(t1o, t2o, kind, params),
                check=partial(check_ransac, kind, t1o, labels, pairs),
            ))
    return ops


def iter_op(scene_seed: int, gen_times: list) -> Op:
    t1, t2, gt = _timed_scene(gen_times, seed=scene_seed, **ITER_SCENE)
    params = IterParams(
        kind=KIND_F_GEP, ransac=RansacParams(seed=scene_seed, **ITER_RANSAC),
        **ITER_PARAMS,
    )
    return Op(span="sync.iterative_sync", kind=KIND_F_GEP, main=True,
              fn=sync.iterative_sync, args=(t1, t2, params),
              check=partial(check_iter, checks.clean_pairs(gt)))


def cli_ops(scene_seed: int, workdir: str, gen_times: list) -> list[Op]:
    """Two `camsync sync` calls with one seed on a CSV written here."""
    t1, t2, gt = _timed_scene(gen_times, seed=scene_seed, **CLI_SCENE)
    csv_path = os.path.join(workdir, f"cli-{scene_seed}.csv")
    write_trajectories(csv_path, t1 + t2)
    pairs = checks.clean_pairs(gt)
    ops, first_out = [], None
    for tag in ("a", "b"):
        out = os.path.join(workdir, f"cli-{scene_seed}-{tag}.json")
        argv = ["sync", csv_path, *CLI_ARGS, "--seed", str(scene_seed), "--out", out]
        ops.append(Op(span="cli.main", kind=KIND_H_MIN, main=True, fn=cli.main,
                      args=(argv,),
                      check=partial(check_report, csv_path, out, pairs, first_out)))
        first_out = out
    return ops


def build_round(workload: str, seed: int, workdir: str, gen_times: list) -> list[Op]:
    """Generate the run's scenes and return the estimates of one round."""
    seeds = scene_seeds(workload, seed)
    ops: list[Op] = []
    if workload == "ransac-outliers":
        for s in seeds:
            ops += ransac_ops(s, True, gen_times)
        return ops
    for s in seeds:
        if workload == "iter-f-long":
            ops.append(iter_op(s, gen_times))
        else:
            ops += cli_ops(s, workdir, gen_times)
    for s in PROBE_SCENES:
        ops += ransac_ops(s, False, gen_times)
    return ops


def run_op(op: Op, fn=None):
    """Run one estimate; returns (seconds, |beta error| or None, failure or None)."""
    fn = fn or op.fn
    t0 = time.perf_counter()
    try:
        out = fn(*op.args)
    except CamsyncError as exc:
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    try:
        return dt, op.check(out), None
    except CheckFailed as exc:
        return dt, None, f"wrong answer: {exc}"


def _ransac_note(args, res):
    return [args[2], res.iterations_run]


def _sync_note(args, run):
    return [run.ransac_calls, run.accepted_steps]


NOTES = {
    "robust.ransac_estimate": _ransac_note,
    "probe.ransac_estimate": _ransac_note,
    "sync.iterative_sync": _sync_note,
}
SOLVER_ATTRS = {
    KIND_F_GEP: "solve_gep_f_beta",
    KIND_F_MIN: "solve_min_f_beta",
    KIND_H_MIN: "solve_min_h_beta",
}


def install(tracer) -> None:
    """Wrap each layer's public function at every binding the program calls."""
    ransac = tracer.wrap(robust.ransac_estimate, "robust.ransac_estimate", _ransac_note)
    tracer.patch(sync, "ransac_estimate", ransac)
    tracer.patch(cli, "ransac_estimate", ransac)
    # cli looks build_correspondences up in camsync.robust when it runs
    build = tracer.wrap(robust.build_correspondences, "robust.build_correspondences")
    tracer.patch(robust, "build_correspondences", build)
    tracer.patch(sync, "build_correspondences", build)
    for kind, attr in SOLVER_ATTRS.items():
        solve = tracer.wrap(getattr(robust, attr), f"solvers.{kind}",
                            lambda args, cands: len(cands))
        tracer.patch(robust, attr, solve)
    # ~94k calls per sync: a span each would dominate the trace
    tracer.patch(robust, "linearize",
                 tracer.counted(robust.linearize, "geometry.linearize.calls"))
    tracer.patch(robust, "score_candidate",
                 tracer.wrap(robust.score_candidate, "robust.score_candidate",
                             lambda args, out: len(args[2])))
    tracer.patch(robust, "refine_candidate",
                 tracer.wrap(robust.refine_candidate, "robust.refine_candidate"))
    tracer.patch(cli, "read_trajectories",
                 tracer.wrap(cli.read_trajectories, "trajio.read_trajectories"))
    tracer.patch(cli, "iterative_sync",
                 tracer.wrap(sync.iterative_sync, "sync.iterative_sync", _sync_note))
