"""Command-line entry points: synth, sync, and the experiment sweep harness."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from .errors import CamsyncError, NotEnoughCorrespondences, TrajectoryFormatError
from .geometry import FUNDAMENTAL
from .pose import decompose_f, relative_pose, rotation_error, translation_error
from .robust import (
    KIND_F_GEP,
    KIND_H_MIN,
    SOLVER_KINDS,
    RansacParams,
    ransac_estimate,
)
from .sync import IterationRecord, IterParams, SyncRun, iterative_sync
from .synth import SceneSpec, generate_scene
from .trajio import read_trajectories, sync_report_json, write_trajectories

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ALGORITHM = 2

# the solver of each geometry: `sync --model F|H` and the sweep's iter-f / iter-h
ITER_KINDS = {"iter-f": KIND_F_GEP, "iter-h": KIND_H_MIN}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camsync",
        description="Two-view geometry and time-shift estimation for "
        "unsynchronized camera pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sync = sub.add_parser("sync", help="synchronize a two-camera trajectory file")
    p_sync.add_argument("file", help="trajectory CSV (camera_id,track_id,frame,u,v)")
    p_sync.add_argument("--model", choices=["F", "H"], default="F")
    p_sync.add_argument("--rho", type=float, default=1.0)
    p_sync.add_argument("--pmin", type=int, default=0)
    p_sync.add_argument("--pmax", type=int, default=5)
    p_sync.add_argument("--kmax", type=int, default=20)
    p_sync.add_argument("--threshold", type=float, default=1.0)
    p_sync.add_argument("--seed", type=int, default=0)
    p_sync.add_argument("--beta-max", type=float, default=None)
    p_sync.add_argument("--max-iterations", type=int, default=1000)
    p_sync.add_argument("--single-shot", action="store_true",
                        help="run one RANSAC instead of the iterative loop")
    p_sync.add_argument("--d", type=int, default=1,
                        help="interpolation distance for --single-shot")
    p_sync.add_argument("--fps", type=float, default=None,
                        help="camera-2 frame rate; adds beta_seconds to the report")
    p_sync.add_argument("--out", default=None, help="report JSON path (default stdout)")

    p_synth = sub.add_parser("synth", help="generate a synthetic scene")
    p_synth.add_argument("--beta", type=float, default=0.0)
    p_synth.add_argument("--rho", type=float, default=1.0)
    p_synth.add_argument("--noise", type=float, default=0.5)
    p_synth.add_argument("--frames", type=int, default=100)
    p_synth.add_argument("--tracks", type=int, default=2)
    p_synth.add_argument("--speed", type=float, default=8.0)
    p_synth.add_argument("--spacing", type=float, default=25.0,
                         help="frames between trajectory waypoints")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument(
        "--motion",
        choices=["smooth-random", "exact-linear", "planar-smooth"],
        default="smooth-random",
    )
    p_synth.add_argument("--exact-model", choices=["F", "H"], default="F")
    p_synth.add_argument("--out", required=True, help="trajectory CSV path")
    p_synth.add_argument("--gt-out", default=None, help="ground-truth JSON path")

    p_sweep = sub.add_parser("sweep", help="run an experiment grid from a JSON config")
    p_sweep.add_argument("config", help="sweep config JSON")
    p_sweep.add_argument("--out", required=True, help="results CSV path")
    return parser


def _load_two_cameras(path):
    cams = read_trajectories(path)
    if len(cams) != 2:
        raise TrajectoryFormatError(
            f"{path}: exactly two cameras required, found {len(cams)}"
        )
    ids = sorted(cams)
    return cams[ids[0]], cams[ids[1]]


def _estimate(traj1, traj2, kind, rp, ip) -> SyncRun:
    """The loop's run under ``ip``; without it, one RANSAC as a one-step run."""
    if ip is not None:
        return iterative_sync(traj1, traj2, ip)
    res = ransac_estimate(traj1, traj2, kind, rp)
    step = IterationRecord(
        k=1, d=rp.d, direction=1 if rp.d > 0 else -1, inlier_count=res.inlier_count,
        beta_k=res.best.beta, accepted=True, j_after=0, skipped_after=0,
    )
    return SyncRun(
        beta_total=res.best.beta, model=res.best.model, iterations=[step],
        ransac_calls=1, accepted_steps=1, total_correspondences=res.total_correspondences,
    )


def _cmd_sync(args) -> int:
    try:
        traj1, traj2 = _load_two_cameras(args.file)
    except TrajectoryFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    kind = ITER_KINDS[f"iter-{args.model.lower()}"]
    try:
        rp = RansacParams(
            threshold=args.threshold,
            max_iterations=args.max_iterations,
            seed=args.seed,
            rho=args.rho,
            d=args.d,
            beta_max=args.beta_max,
        )
        ip = None if args.single_shot else IterParams(
            kind=kind,
            k_max=args.kmax,
            p_min=args.pmin,
            p_max=args.pmax,
            ransac=rp,
        )
        if args.fps is not None and not (math.isfinite(args.fps) and args.fps > 0):
            raise ValueError("fps must be positive and finite")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    config = {
        "model": args.model,
        "rho": args.rho,
        "pmin": args.pmin,
        "pmax": args.pmax,
        "kmax": args.kmax,
        "threshold": args.threshold,
        "beta_max": args.beta_max,
        "single_shot": bool(args.single_shot),
        "d": args.d,
        "max_iterations": args.max_iterations,
    }
    try:
        run = _estimate(traj1, traj2, kind, rp, ip)
    except CamsyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (TrajectoryFormatError, NotEnoughCorrespondences)):
            return EXIT_INPUT
        return EXIT_ALGORITHM
    if args.fps is not None:
        config["fps"] = args.fps
        config["beta_seconds"] = float(run.beta_total) / args.fps
        if not math.isfinite(config["beta_seconds"]):  # a subnormal fps overflows it
            print(f"error: beta / fps overflows at fps {args.fps!r}", file=sys.stderr)
            return EXIT_INPUT
    text = sync_report_json(
        beta=run.beta_total,
        rho=args.rho,
        model=run.model,
        # a run holds at least one accepted step, or it raised NeverImproved
        inliers=[r for r in run.iterations if r.accepted][-1].inlier_count,
        total=run.total_correspondences,
        log=[asdict(r) for r in run.iterations],
        seed=args.seed,
        config=config,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_synth(args) -> int:
    try:
        spec = SceneSpec(
            seed=args.seed,
            n_frames=args.frames,
            beta_gt=args.beta,
            rho=args.rho,
            noise_sigma=args.noise,
            speed_px_per_frame=args.speed,
            motion=args.motion,
            n_tracks=args.tracks,
            exact_model=args.exact_model,
            waypoint_spacing=args.spacing,
        )
        traj1, traj2, gt = generate_scene(spec)
    except (ValueError, CamsyncError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    write_trajectories(args.out, traj1 + traj2)
    if args.gt_out:
        cam1, cam2 = gt.cameras
        payload = {
            "beta_gt": gt.beta_gt,
            "rho": gt.rho,
            "f": [float(x) for x in gt.f.m.ravel()],
            "h": [float(x) for x in gt.h.m.ravel()] if gt.h is not None else None,
            "cameras": [
                {
                    "K": [float(x) for x in c.K.ravel()],
                    "R": [float(x) for x in c.R.ravel()],
                    "t": [float(x) for x in c.t.ravel()],
                }
                for c in (cam1, cam2)
            ],
            "seed": spec.seed,
        }
        with open(args.gt_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")
    return EXIT_OK


SWEEP_COLUMNS = [
    "scene_id",
    "beta_gt",
    "d",
    "algorithm",
    "beta_est",
    "inlier_fraction",
    "rot_err_deg",
    "trans_err",
    "ransac_count",
    "status",
]


def _pose_errors(model, gt):
    """Rotation and translation errors of a fundamental matrix's pose."""
    cam1, cam2 = gt.cameras
    r_gt, t_gt = relative_pose(cam1, cam2)
    r, t = decompose_f(model.rank2_projected(), cam1.K, cam2.K, gt.probe_pairs())
    return rotation_error(r, r_gt), translation_error(t, t_gt)


# every sweep config key with its default; a key not listed is an error. The
# empty grid defaults fail run_sweep's check, so those keys are required.
SWEEP_DEFAULTS = {
    "betas": [], "ds": [], "noise": [0.5], "scenes": 0, "algorithms": [],
    "seed": 0, "motion": "smooth-random", "rho": 1.0, "n_frames": 100, "n_tracks": 2,
    "waypoint_spacing": 25.0, "speed_px_per_frame": 8.0, "threshold": 1.0,
    "max_iterations": 500, "pmin": 0, "pmax": 5, "kmax": 20,
}


# the JSON type of each setting type: a float setting takes any number, an
# integer too, and no setting takes a bool
_JSON_TYPES = {int: "integer", float: "number", str: "string"}


def _is_json(value, kind: type) -> bool:
    kinds = (int, float) if kind is float else kind
    return isinstance(value, kinds) and not isinstance(value, bool)


def _config_list(config: dict, key: str, kind: type) -> list:
    """``config[key]``, a list whose items are all JSON values of ``kind``."""
    value = config.get(key, SWEEP_DEFAULTS[key])
    if not isinstance(value, list) or not all(_is_json(x, kind) for x in value):
        raise ValueError(f"sweep config {key!r} must be a list of JSON {_JSON_TYPES[kind]}s")
    return value


def _config_value(config: dict, key: str, kind: type):
    """``config[key]``, a JSON value of ``kind``, as ``kind``."""
    value = config.get(key, SWEEP_DEFAULTS[key])
    if not _is_json(value, kind):
        raise ValueError(f"sweep config {key!r} must be a JSON {_JSON_TYPES[kind]}")
    try:
        return kind(value)
    except OverflowError as exc:  # float() of a huge integer
        raise ValueError(f"sweep config {key!r}: {exc}") from None


def run_sweep(config: dict) -> list[dict]:
    """Execute the experiment grid; returns one row dict per cell.

    A malformed config (not an object, a key not in ``SWEEP_DEFAULTS``, a
    setting or a list item that is not a JSON value of its type, or RANSAC,
    loop or scene settings, ``ds`` entries included, that their classes
    reject) raises ValueError before any scene is generated.
    A scene the generator cannot make raises its ``CamsyncError``.
    """
    if not isinstance(config, dict):
        raise ValueError("sweep config must be a JSON object")
    for key in config:
        if key not in SWEEP_DEFAULTS:
            raise ValueError(f"sweep config: unknown key {key!r}")
    betas = _config_list(config, "betas", float)
    ds = _config_list(config, "ds", int)
    noises = _config_list(config, "noise", float)
    n_scenes = _config_value(config, "scenes", int)
    algorithms = _config_list(config, "algorithms", str)
    if not betas or n_scenes < 1 or not algorithms or not (ds or all(
        a in ITER_KINDS for a in algorithms
    )):
        raise ValueError(
            "sweep config needs non-empty 'betas' and 'algorithms', 'scenes' >= 1 "
            "and non-empty 'ds' (unless all algorithms are iterative)"
        )
    for a in algorithms:
        if a not in SOLVER_KINDS and a not in ITER_KINDS:
            raise ValueError(f"unknown algorithm {a!r}")
    master = _config_value(config, "seed", int)
    motion = _config_value(config, "motion", str)
    rho = _config_value(config, "rho", float)
    n_frames = _config_value(config, "n_frames", int)
    n_tracks = _config_value(config, "n_tracks", int)
    spacing = _config_value(config, "waypoint_spacing", float)
    speed = _config_value(config, "speed_px_per_frame", float)
    threshold = _config_value(config, "threshold", float)
    max_iters = _config_value(config, "max_iterations", int)
    pmin = _config_value(config, "pmin", int)
    pmax = _config_value(config, "pmax", int)
    kmax = _config_value(config, "kmax", int)
    # every setting and scene is checked before the first scene is generated
    try:
        rp = RansacParams(threshold=threshold, max_iterations=max_iters, rho=rho)
        for d in ds:
            try:
                replace(rp, d=d)
            except ValueError as exc:
                raise ValueError(f"'ds': {exc}") from None
        ip = None  # each iterative cell sets its own kind, seed and d
        if any(a in ITER_KINDS for a in algorithms):
            ip = IterParams(KIND_F_GEP, k_max=kmax, p_min=pmin, p_max=pmax, ransac=rp)
        scenes = []
        for bi, beta in enumerate(betas):
            for ni, noise in enumerate(noises):
                for scene in range(n_scenes):
                    ss = np.random.SeedSequence([master, bi, ni, scene])
                    spec = SceneSpec(
                        seed=int(ss.generate_state(1, dtype=np.uint64)[0] >> 1),
                        n_frames=n_frames,
                        beta_gt=float(beta),
                        rho=rho,
                        noise_sigma=float(noise),
                        motion=motion,
                        n_tracks=n_tracks,
                        waypoint_spacing=spacing,
                        speed_px_per_frame=speed,
                    )
                    scenes.append((f"b{bi}n{ni}s{scene}", beta, spec))
    except (ValueError, OverflowError) as exc:  # float() of a huge int overflows
        raise ValueError(f"sweep config: {exc}") from None

    rows = []
    for scene_id, beta, spec in scenes:
        traj1, traj2, gt = generate_scene(spec)
        for alg in algorithms:
            kind = ITER_KINDS.get(alg, alg)
            for d in [0] if alg in ITER_KINDS else ds:
                # iterative rows read d = 0; the loop sets its own d
                cell_rp = replace(rp, seed=spec.seed, d=d if d else 1)
                cell_ip = None if d else replace(ip, kind=kind, ransac=cell_rp)
                rows.append(_sweep_cell(
                    scene_id, beta, d, alg, kind, traj1, traj2, gt, cell_rp, cell_ip
                ))
    return rows


def _sweep_cell(scene_id, beta_gt, d, alg, kind, traj1, traj2, gt, rp, ip) -> dict:
    row = {
        "scene_id": scene_id,
        "beta_gt": repr(float(beta_gt)),
        "d": d,
        "algorithm": alg,
        "beta_est": "",
        "inlier_fraction": "",
        "rot_err_deg": "",
        "trans_err": "",
        "ransac_count": "",
        "status": "ok",
    }
    try:
        run = _estimate(traj1, traj2, kind, rp, ip)
        if SOLVER_KINDS[kind].estimates_beta:
            row["beta_est"] = repr(float(run.beta_total))
        # a loop's run is rescored at d = 1 from the offset it ended at
        row["inlier_fraction"] = repr(
            _final_inlier_fraction(traj1, traj2, rp, kind, run) if ip is not None
            else run.iterations[-1].inlier_count / run.total_correspondences
        )
        row["ransac_count"] = run.ransac_calls
        if run.model.kind == FUNDAMENTAL:
            try:
                re_deg, te = _pose_errors(run.model, gt)
                row["rot_err_deg"] = repr(re_deg)
                row["trans_err"] = repr(te)
            except CamsyncError:
                pass
    except CamsyncError as exc:
        row["status"] = f"failed:{exc.__class__.__name__}"
    return row


def _final_inlier_fraction(traj1, traj2, rp, kind, run: SyncRun) -> float:
    from .robust import build_correspondences, score_candidate
    from .solvers import SolverCandidate

    # the offset moves only on an accepted step, so the last record holds it
    offset = run.iterations[-1].j_after
    corr, _ = build_correspondences(traj1, traj2, float(offset), rp.rho, 1)
    if not len(corr):
        return 0.0
    cand = SolverCandidate(beta=run.beta_total - offset, model=run.model)
    mask, _ = score_candidate(kind, cand, corr, rp.threshold)
    return float(mask.sum() / len(corr))


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        rows = run_sweep(config)
    except (ValueError, CamsyncError) as exc:  # or a scene synth cannot make
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints a usage error and exits 2, --help 0
        return EXIT_INPUT if exc.code else EXIT_OK
    command = {"sync": _cmd_sync, "synth": _cmd_synth, "sweep": _cmd_sweep}
    try:
        return command[args.command](args)
    except OSError as exc:  # an input or output path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
