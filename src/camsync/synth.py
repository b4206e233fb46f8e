"""Synthetic scene generation for solver benchmarks and test oracles.

Three motion families:

  - ``smooth-random``: a 3D point follows a cubic-spline path through random
    waypoints in front of two randomly posed cameras; image speed is
    calibrated to a target mean pixel displacement per frame. Camera 2
    samples the same path with a ground-truth time shift and frame-rate
    ratio, and Gaussian pixel noise is added to both image tracks.
  - ``planar-smooth``: same, with the path confined to a plane, so a
    ground-truth homography exists alongside the fundamental matrix.
  - ``exact-linear``: camera-2 image tracks are exact lines with constant
    velocity, so the secant linearization is exact and the ground-truth
    (beta, model) is identifiable by every solver with zero residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import UnreachableSpeed
from .geometry import FUNDAMENTAL, HOMOGRAPHY, Trajectory, TwoViewModel
from .pose import CameraCalib, fundamental_from_calib, relative_pose

SMOOTH_RANDOM = "smooth-random"
EXACT_LINEAR = "exact-linear"
PLANAR_SMOOTH = "planar-smooth"

_SCENE_CENTER = np.array([0.0, 0.0, 10.0])
_SCENE_EXTENT = np.array([3.0, 3.0, 2.0])
_CAMERA_RADIUS = 10.0
_MIN_ANGLE_DEG = 12.0  # smallest turn between the two cameras, for triangulation
_IMAGE_SIZE = (1000, 1000)  # width, height in pixels
_PROBE_PAIRS = 24  # most pairs GroundTruth.probe_pairs returns


@dataclass(frozen=True)
class SceneSpec:
    seed: int = 0
    n_frames: int = 100
    beta_gt: float = 0.0
    rho: float = 1.0
    noise_sigma: float = 0.5
    speed_px_per_frame: float = 8.0
    motion: str = SMOOTH_RANDOM
    n_tracks: int = 2
    exact_model: str = "F"  # exact-linear flavor: identifiable F or identifiable H
    waypoint_spacing: float = 25.0  # frames between spline waypoints

    def __post_init__(self):
        if self.n_frames < 10:
            raise ValueError("n_frames must be >= 10")
        if self.waypoint_spacing <= 0:
            raise ValueError("waypoint_spacing must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.motion not in (SMOOTH_RANDOM, EXACT_LINEAR, PLANAR_SMOOTH):
            raise ValueError(f"unknown motion {self.motion!r}")
        if self.exact_model not in ("F", "H"):
            raise ValueError("exact_model must be 'F' or 'H'")


@dataclass
class GroundTruth:
    f: TwoViewModel
    beta_gt: float
    rho: float
    cameras: tuple[CameraCalib, CameraCalib]
    h: TwoViewModel | None = None
    sync_pairs: dict[str, np.ndarray] = field(default_factory=dict)  # (n,4) x1,y1,x2,y2

    def probe_pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Clean synchronized pixel pairs, for cheirality checks and the like."""
        pairs = []
        for arr in self.sync_pairs.values():
            step = max(1, len(arr) // _PROBE_PAIRS)
            for row in arr[::step]:
                pairs.append((row[:2].copy(), row[2:].copy()))
        return pairs[:_PROBE_PAIRS]


def _look_at(position: np.ndarray, target: np.ndarray) -> np.ndarray:
    z = target - position
    z = z / np.linalg.norm(z)
    up = np.array([0.0, 1.0, 0.0])
    if abs(np.dot(up, z)) > 0.99:
        up = np.array([1.0, 0.0, 0.0])
    x = np.cross(up, z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return np.vstack([x, y, z])


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def _rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def random_camera_pair(rng: np.random.Generator) -> tuple[CameraCalib, CameraCalib]:
    """Camera 1 at the world origin (identity pose), camera 2 on the viewing
    sphere, _MIN_ANGLE_DEG to 40 degrees away in azimuth, up to 12 in elevation."""
    w, h = _IMAGE_SIZE
    focal = rng.uniform(950.0, 1150.0)
    k = np.array([[focal, 0.0, w / 2.0], [0.0, focal, h / 2.0], [0.0, 0.0, 1.0]])
    cam1 = CameraCalib(K=k, R=np.eye(3), t=np.zeros(3))
    angle = math.radians(rng.uniform(_MIN_ANGLE_DEG, 40.0)) * rng.choice([-1.0, 1.0])
    elev = math.radians(rng.uniform(-12.0, 12.0))
    dir1 = -_SCENE_CENTER / np.linalg.norm(_SCENE_CENTER)
    dir2 = _rot_y(angle) @ _rot_x(elev) @ dir1
    c2 = _SCENE_CENTER + _CAMERA_RADIUS * dir2
    r2 = _look_at(c2, _SCENE_CENTER)
    cam2 = CameraCalib(K=k, R=r2, t=-r2 @ c2)
    return cam1, cam2


def _project(cam: CameraCalib, points: np.ndarray) -> np.ndarray:
    """Project (n,3) world points to (n,2) pixels."""
    x = (cam.K @ (points @ cam.R.T + cam.t).T).T
    return x[:, :2] / x[:, 2:3]


def _spline_path(
    rng: np.random.Generator,
    t_lo: float,
    t_hi: float,
    cam1: CameraCalib,
    frames1: np.ndarray,
    target_speed: float,
    in_plane: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    waypoint_spacing: float = 25.0,
) -> CubicSpline:
    """Waypoint spline with image speed calibrated against camera 1."""
    n_way = max(4, int((t_hi - t_lo) / waypoint_spacing) + 2)
    times = np.linspace(t_lo, t_hi, n_way)
    # waypoints must stay well inside the camera sphere; past it the
    # projected speed stops growing with world amplitude
    max_amp = 0.6 * _CAMERA_RADIUS
    last_speed = 0.0
    for _ in range(5):
        if in_plane is None:
            offs = rng.uniform(-1.0, 1.0, size=(n_way, 3)) * _SCENE_EXTENT
        else:
            e1, e2, _ = in_plane
            ab = rng.uniform(-1.0, 1.0, size=(n_way, 2)) * _SCENE_EXTENT[:2]
            offs = ab[:, :1] * e1 + ab[:, 1:] * e2
        pos = _SCENE_CENTER + offs
        spline = CubicSpline(times, pos, axis=0)
        for _ in range(12):
            pix = _project(cam1, spline(frames1))
            steps = np.linalg.norm(np.diff(pix, axis=0), axis=1)
            mean_step = steps.mean()
            if mean_step < 1e-9:
                break
            factor = float(np.clip(target_speed / mean_step, 0.5, 2.0))
            amp = np.abs(pos - _SCENE_CENTER).max()
            factor = min(factor, max_amp / amp) if amp > 0 else factor
            pos = _SCENE_CENTER + (pos - _SCENE_CENTER) * factor
            spline = CubicSpline(times, pos, axis=0)
        pix = _project(cam1, spline(frames1))
        last_speed = np.linalg.norm(np.diff(pix, axis=0), axis=1).mean()
        if 0.5 * target_speed <= last_speed <= 2.0 * target_speed:
            return spline
    raise UnreachableSpeed(
        f"calibrated speed {last_speed:.2f} px/frame, wanted {target_speed}"
    )


def _homography_from_plane(
    cam1: CameraCalib, cam2: CameraCalib, normal: np.ndarray, point: np.ndarray
) -> TwoViewModel:
    """Homography induced by the world plane through `point` with `normal`."""
    r, t = relative_pose(cam1, cam2)
    n1 = cam1.R @ normal
    d1 = float(normal @ point - normal @ cam1.center)
    h = cam2.K @ (r + np.outer(t, n1) / d1) @ np.linalg.inv(cam1.K)
    return TwoViewModel.normalized(HOMOGRAPHY, h)


def _smooth_scene(spec: SceneSpec, rng: np.random.Generator):
    cam1, cam2 = random_camera_pair(rng)
    f_gt = fundamental_from_calib(cam1, cam2)
    h_gt = None
    in_plane = None
    if spec.motion == PLANAR_SMOOTH:
        normal = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), 1.0])
        normal = normal / np.linalg.norm(normal)
        e1 = np.cross(normal, [0.0, 1.0, 0.0])
        e1 = e1 / np.linalg.norm(e1)
        e2 = np.cross(normal, e1)
        in_plane = (e1, e2, normal)
        h_gt = _homography_from_plane(cam1, cam2, normal, _SCENE_CENTER)

    beta, rho = spec.beta_gt, spec.rho
    pad = 40.0 + abs(beta) / rho
    t_lo, t_hi = -pad, (spec.n_frames - 1) + pad
    frames1 = np.arange(spec.n_frames, dtype=float)
    j_max = int(math.floor(rho * (t_hi - 1.0) + beta))
    frames2 = np.arange(0, max(j_max, 1), dtype=float)
    frames2 = frames2[(frames2 - beta) / rho > t_lo + 1.0]

    gt = GroundTruth(f=f_gt, h=h_gt, beta_gt=beta, rho=rho, cameras=(cam1, cam2))
    traj1, traj2 = [], []
    for ti in range(spec.n_tracks):
        spline = _spline_path(
            rng,
            t_lo,
            t_hi,
            cam1,
            frames1,
            spec.speed_px_per_frame,
            in_plane,
            spec.waypoint_spacing,
        )
        track = f"t{ti}"
        pix1 = _project(cam1, spline(frames1))
        pix2 = _project(cam2, spline((frames2 - beta) / rho))
        sync2 = _project(cam2, spline(frames1))  # camera-2 view at camera-1 instants
        gt.sync_pairs[track] = np.column_stack([pix1, sync2])
        n1 = rng.normal(0.0, spec.noise_sigma, size=pix1.shape)
        n2 = rng.normal(0.0, spec.noise_sigma, size=pix2.shape)
        traj1.append(Trajectory("cam1", track, frames1.astype(np.int64), pix1 + n1))
        traj2.append(Trajectory("cam2", track, frames2.astype(np.int64), pix2 + n2))
    return traj1, traj2, gt


def _exact_linear_scene(spec: SceneSpec, rng: np.random.Generator):
    cam1, cam2 = random_camera_pair(rng)
    f_gt = fundamental_from_calib(cam1, cam2)
    h_gt = None
    if spec.exact_model == "H":
        normal = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), 1.0])
        normal = normal / np.linalg.norm(normal)
        h_gt = _homography_from_plane(cam1, cam2, normal, _SCENE_CENTER)
        hinv = np.linalg.inv(h_gt.m)

    beta, rho = spec.beta_gt, spec.rho
    w, h = _IMAGE_SIZE
    center_px = np.array([w / 2.0, h / 2.0])
    frames1 = np.arange(spec.n_frames, dtype=float)
    n2 = int(math.ceil(rho * (spec.n_frames - 1) + max(beta, 0.0))) + 40
    frames2 = np.arange(n2, dtype=float)

    gt = GroundTruth(f=f_gt, h=h_gt, beta_gt=beta, rho=rho, cameras=(cam1, cam2))
    traj1, traj2 = [], []
    for ti in range(spec.n_tracks):
        a = center_px + rng.uniform(-0.25, 0.25, size=2) * np.array([w, h])
        ang = rng.uniform(0.0, 2.0 * math.pi)
        vel = spec.speed_px_per_frame * np.array([math.cos(ang), math.sin(ang)])
        pix2 = a + frames2[:, None] * vel
        truth = a + (beta + rho * frames1)[:, None] * vel  # exact correspondences
        if spec.exact_model == "H":
            back = np.column_stack([truth, np.ones(len(truth))]) @ hinv.T
            pix1 = back[:, :2] / back[:, 2:3]
        else:
            # place camera-1 points on the epipolar lines of the true points
            lines = np.column_stack([truth, np.ones(len(truth))]) @ f_gt.m
            anchor = center_px + rng.uniform(-0.2, 0.2, size=2) * np.array([w, h])
            anchor_h = np.array([anchor[0], anchor[1], 1.0])
            g2 = lines[:, 0] ** 2 + lines[:, 1] ** 2
            foot = anchor[None, :] - (lines @ anchor_h / g2)[:, None] * lines[:, :2]
            tang = np.column_stack([-lines[:, 1], lines[:, 0]]) / np.sqrt(g2)[:, None]
            drift = rng.uniform(-60.0, 60.0, size=len(truth))
            pix1 = foot + drift[:, None] * tang
        sync2 = truth
        gt.sync_pairs[f"t{ti}"] = np.column_stack([pix1, sync2])
        noise1 = rng.normal(0.0, spec.noise_sigma, size=pix1.shape)
        noise2 = rng.normal(0.0, spec.noise_sigma, size=pix2.shape)
        traj1.append(Trajectory("cam1", f"t{ti}", frames1.astype(np.int64), pix1 + noise1))
        traj2.append(Trajectory("cam2", f"t{ti}", frames2.astype(np.int64), pix2 + noise2))
    return traj1, traj2, gt


def generate_scene(
    spec: SceneSpec,
) -> tuple[list[Trajectory], list[Trajectory], GroundTruth]:
    """Deterministic scene generation; see module docstring for the families."""
    rng = np.random.default_rng(spec.seed)
    if spec.motion == EXACT_LINEAR:
        return _exact_linear_scene(spec, rng)
    return _smooth_scene(spec, rng)


def inject_outliers(
    traj1: list[Trajectory],
    traj2: list[Trajectory],
    fraction: float,
    seed: int,
) -> tuple[tuple[list[Trajectory], list[Trajectory]], dict[str, np.ndarray]]:
    """Replace a fraction of camera-1 points with uniform random image points.

    Camera 1 is corrupted (not camera 2) so that each replaced sample spoils
    exactly one correspondence: camera-2 samples also feed the interpolation
    of neighbouring frames, which would blur the outlier labels.

    Returns the (corrupted camera-1, unchanged camera-2) pair and per-track
    boolean label arrays over camera-1 frames (True marks a replaced sample).
    """
    if not (0.0 <= fraction < 1.0):
        raise ValueError("fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    sizes = [len(t) for t in traj1]
    n_out = int(sum(sizes) * fraction)
    replaced = np.zeros(sum(sizes), dtype=bool)
    if n_out:
        replaced[rng.choice(sum(sizes), size=n_out, replace=False)] = True
    points = np.concatenate([np.zeros((0, 2)), *(t.points for t in traj1)])
    # a draw for u, then one for v, per replaced sample in order
    points[replaced] = rng.uniform(0, _IMAGE_SIZE, size=(n_out, 2))
    cuts = np.cumsum(sizes)[:-1]
    new1 = [Trajectory(t.camera_id, t.track_id, t.frames, pts)
            for t, pts in zip(traj1, np.split(points, cuts))]
    labels = {t.track_id: lab for t, lab in zip(traj1, np.split(replaced, cuts))}
    return (new1, traj2), labels
