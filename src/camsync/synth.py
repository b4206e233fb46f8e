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
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import UnreachableSpeed
from .geometry import HOMOGRAPHY, Trajectory, TwoViewModel, require_numbers
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
# Scene size caps, checked by SceneSpec before anything is allocated:
_MAX_FRAMES = 200_000  # frames per camera, and camera-1 frames a spline path spans
_MAX_WAYPOINTS = 100_000  # waypoints of one spline path
_MAX_SAMPLES = 2_000_000  # image samples over all tracks of both cameras


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
        require_numbers(self, numbers.Integral, "seed", "n_frames", "n_tracks")
        if self.seed < 0:  # np.random.default_rng's message names no field
            raise ValueError("seed must be non-negative")
        for name in ("beta_gt", "rho", "noise_sigma", "speed_px_per_frame"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n_frames < 10:
            raise ValueError("n_frames must be >= 10")
        if self.n_tracks < 1:
            raise ValueError("n_tracks must be >= 1")
        if not self.waypoint_spacing > 0:  # NaN too; inf gives the fewest waypoints
            raise ValueError("waypoint_spacing must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.speed_px_per_frame <= 0:
            raise ValueError("speed_px_per_frame must be positive")
        if self.motion not in (SMOOTH_RANDOM, EXACT_LINEAR, PLANAR_SMOOTH):
            raise ValueError(f"unknown motion {self.motion!r}")
        if self.exact_model not in ("F", "H"):
            raise ValueError("exact_model must be 'F' or 'H'")
        # bounds on what generate_scene allocates, in float arithmetic (inf
        # past the double range); float() of a huge n_frames would overflow,
        # so it is bounded as an integer first
        if self.n_frames > _MAX_FRAMES:
            raise ValueError(f"n_frames must be <= {_MAX_FRAMES}")
        n2 = _camera2_frames(self)
        sizes = [("camera-2 frame count", n2, _MAX_FRAMES)]
        if self.motion != EXACT_LINEAR:
            t_lo, t_hi = _path_window(self)
            sizes += [
                ("spline path span", t_hi - t_lo, _MAX_FRAMES),
                ("waypoint count", (t_hi - t_lo) / self.waypoint_spacing + 2.0, _MAX_WAYPOINTS),
            ]
        for name, size, cap in sizes:
            if not size <= cap:
                raise ValueError(f"{name} {size:.4g} exceeds {cap}")
        samples = self.n_tracks * (self.n_frames + math.ceil(n2))
        if samples > _MAX_SAMPLES:
            raise ValueError(f"sample count {samples} exceeds {_MAX_SAMPLES}")
        if n2 < 10:  # the n_frames floor; fewer leave a track too short to sync
            raise ValueError(f"camera-2 frame count {n2:.4g} is below 10")


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


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients, shape (4, n - 1, 3), of the not-a-knot cubic spline
    through the (n, 3) points ``y`` at the n >= 4 distinct increasing ``x``.

    Bit-identical to the coefficients of scipy's not-a-knot cubic spline
    interpolator: its banded system for the knot slopes, the LAPACK dgtsv
    that ``solve_banded`` calls for (1, 1) bands, and ``CubicHermiteSpline``'s
    coefficient formula, in the same order of operations."""
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    a = np.zeros((3, len(x)))  # upper, main and lower diagonal, banded
    a[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    a[0, 2:] = dx[:-1]
    a[-1, :-2] = dx[1:]
    b = np.empty(y.shape)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    a[1, 0] = dx[1]
    a[0, 1] = d = x[2] - x[0]
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    a[1, -1] = dx[-2]
    a[-1, -2] = d = x[-1] - x[-3]
    b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    _, _, _, s, info = dgtsv(a[2, :-1], a[1], a[0, 1:], b, 1, 1, 1, 1)
    if info:
        raise np.linalg.LinAlgError("singular spline system")
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def _piecewise_cubic(x: np.ndarray, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The (m, 3) values at times ``t`` of the piecewise cubic with knots
    ``x`` and coefficients ``c`` from `_not_a_knot`, extrapolating past the
    ends; bit-identical to scipy's ``PPoly``, which finds the interval as here
    and adds the terms from the constant one up."""
    # the interior knots at or before t: searchsorted(x, t, "right") - 1
    # clipped to [0, n - 2], as PPoly finds it
    i = np.searchsorted(x[1:-1], t, side="right")
    s = (t - x[i])[:, None]
    ss = s * s
    k = c[:, i]
    return (0.0 + k[3]) + k[2] * s + k[1] * ss + k[0] * (ss * s)


def _path_window(spec: SceneSpec) -> tuple[float, float]:
    """First and last camera-1 time of a spline path: the camera-1 frames,
    padded so that camera 2's shifted frames stay inside the path."""
    pad = 40.0 + abs(spec.beta_gt) / spec.rho
    return -pad, (spec.n_frames - 1) + pad


def _camera2_frames(spec: SceneSpec) -> float:
    """Camera-2 frame count, in float arithmetic so that it is inf past the
    double range: ceil(rho (n - 1) + max(beta, 0)) + 40 for an exact-linear
    scene; for a spline scene the frames 0, 1, ... before rho (t_hi - 1) +
    beta, at least one."""
    if spec.motion == EXACT_LINEAR:
        return float(np.ceil(spec.rho * (spec.n_frames - 1) + max(spec.beta_gt, 0.0))) + 40.0
    return max(float(np.floor(spec.rho * (_path_window(spec)[1] - 1.0) + spec.beta_gt)), 1.0)


def _knots(spec: SceneSpec) -> np.ndarray:
    """Waypoint times of a spline path: at least 4, at most
    ``waypoint_spacing`` frames apart, over `_path_window`. SceneSpec's size
    caps keep them finite and distinct, as `_not_a_knot` needs."""
    t_lo, t_hi = _path_window(spec)
    return np.linspace(t_lo, t_hi, max(4, int((t_hi - t_lo) / spec.waypoint_spacing) + 2))


def _spline_path(
    rng: np.random.Generator,
    times: np.ndarray,
    cam1: CameraCalib,
    frames1: np.ndarray,
    target_speed: float,
    in_plane: tuple[np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """`_not_a_knot` coefficients of a spline through random waypoints at
    ``times``, with image speed calibrated against camera 1; with
    ``in_plane`` (two orthonormal directions) the waypoints span that plane."""
    n_way = len(times)
    # waypoints must stay well inside the camera sphere; past it the
    # projected speed stops growing with world amplitude
    max_amp = 0.6 * _CAMERA_RADIUS
    last_speed = 0.0
    for _ in range(5):
        if in_plane is None:
            offs = rng.uniform(-1.0, 1.0, size=(n_way, 3)) * _SCENE_EXTENT
        else:
            e1, e2 = in_plane
            ab = rng.uniform(-1.0, 1.0, size=(n_way, 2)) * _SCENE_EXTENT[:2]
            offs = ab[:, :1] * e1 + ab[:, 1:] * e2
        pos = _SCENE_CENTER + offs
        coef = _not_a_knot(times, pos)
        for _ in range(12):
            pix = _project(cam1, _piecewise_cubic(times, coef, frames1))
            steps = np.linalg.norm(np.diff(pix, axis=0), axis=1)
            mean_step = steps.mean()
            if mean_step < 1e-9:
                break
            factor = float(np.clip(target_speed / mean_step, 0.5, 2.0))
            amp = np.abs(pos - _SCENE_CENTER).max()
            factor = min(factor, max_amp / amp) if amp > 0 else factor
            pos = _SCENE_CENTER + (pos - _SCENE_CENTER) * factor
            coef = _not_a_knot(times, pos)
        pix = _project(cam1, _piecewise_cubic(times, coef, frames1))
        last_speed = np.linalg.norm(np.diff(pix, axis=0), axis=1).mean()
        if 0.5 * target_speed <= last_speed <= 2.0 * target_speed:
            return coef
    raise UnreachableSpeed(
        f"calibrated speed {last_speed:.2f} px/frame, wanted {target_speed}"
    )


def _random_plane(
    rng: np.random.Generator, cam1: CameraCalib, cam2: CameraCalib
) -> tuple[tuple[np.ndarray, np.ndarray], TwoViewModel]:
    """A random world plane through the scene center, facing the cameras: two
    orthonormal in-plane directions and the homography the plane induces."""
    normal = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), 1.0])
    normal = normal / np.linalg.norm(normal)
    e1 = np.cross(normal, [0.0, 1.0, 0.0])
    e1 = e1 / np.linalg.norm(e1)
    r, t = relative_pose(cam1, cam2)
    n1 = cam1.R @ normal
    d1 = float(normal @ _SCENE_CENTER - normal @ cam1.center)
    h = cam2.K @ (r + np.outer(t, n1) / d1) @ np.linalg.inv(cam1.K)
    return (e1, np.cross(normal, e1)), TwoViewModel.normalized(HOMOGRAPHY, h)


def _smooth_family(spec: SceneSpec, gt: GroundTruth, in_plane):
    """Frames and track maker of the spline families (planar with `in_plane`)."""
    cam1, cam2 = gt.cameras
    beta, rho = spec.beta_gt, spec.rho
    times = _knots(spec)
    frames1 = np.arange(spec.n_frames, dtype=float)
    frames2 = np.arange(_camera2_frames(spec))

    def track(rng: np.random.Generator):
        coef = _spline_path(rng, times, cam1, frames1, spec.speed_px_per_frame, in_plane)
        path1 = _piecewise_cubic(times, coef, frames1)
        pix2 = _project(cam2, _piecewise_cubic(times, coef, (frames2 - beta) / rho))
        sync2 = _project(cam2, path1)  # camera-2 view at camera-1 instants
        return _project(cam1, path1), pix2, sync2

    return frames1, frames2, track


def _exact_linear_family(spec: SceneSpec, gt: GroundTruth):
    """Frames and track maker of exact-linear scenes (identifiable H with `gt.h`)."""
    beta, rho = spec.beta_gt, spec.rho
    image_wh = np.array(_IMAGE_SIZE, dtype=float)
    center_px = image_wh / 2.0
    frames1 = np.arange(spec.n_frames, dtype=float)
    frames2 = np.arange(_camera2_frames(spec))
    hinv = None if gt.h is None else np.linalg.inv(gt.h.m)

    def track(rng: np.random.Generator):
        a = center_px + rng.uniform(-0.25, 0.25, size=2) * image_wh
        ang = rng.uniform(0.0, 2.0 * math.pi)
        vel = spec.speed_px_per_frame * np.array([math.cos(ang), math.sin(ang)])
        pix2 = a + frames2[:, None] * vel
        truth = a + (beta + rho * frames1)[:, None] * vel  # exact correspondences
        if hinv is not None:
            back = np.column_stack([truth, np.ones(len(truth))]) @ hinv.T
            return back[:, :2] / back[:, 2:3], pix2, truth
        # place camera-1 points on the epipolar lines of the true points
        lines = np.column_stack([truth, np.ones(len(truth))]) @ gt.f.m
        anchor = center_px + rng.uniform(-0.2, 0.2, size=2) * image_wh
        anchor_h = np.array([anchor[0], anchor[1], 1.0])
        g2 = lines[:, 0] ** 2 + lines[:, 1] ** 2
        foot = anchor[None, :] - (lines @ anchor_h / g2)[:, None] * lines[:, :2]
        tang = np.column_stack([-lines[:, 1], lines[:, 0]]) / np.sqrt(g2)[:, None]
        drift = rng.uniform(-60.0, 60.0, size=len(truth))
        return foot + drift[:, None] * tang, pix2, truth

    return frames1, frames2, track


def generate_scene(
    spec: SceneSpec,
) -> tuple[list[Trajectory], list[Trajectory], GroundTruth]:
    """Deterministic scene generation; see module docstring for the families.

    Draws the camera pair, the plane of a planar-smooth or exact-linear H scene,
    then per track the family's draws and the camera-1 and camera-2 pixel noise."""
    rng = np.random.default_rng(spec.seed)
    cam1, cam2 = random_camera_pair(rng)
    exact = spec.motion == EXACT_LINEAR
    planar = spec.motion == PLANAR_SMOOTH or (exact and spec.exact_model == "H")
    in_plane, h = _random_plane(rng, cam1, cam2) if planar else (None, None)
    gt = GroundTruth(f=fundamental_from_calib(cam1, cam2), h=h, beta_gt=spec.beta_gt,
                     rho=spec.rho, cameras=(cam1, cam2))
    frames1, frames2, track = (
        _exact_linear_family(spec, gt) if exact else _smooth_family(spec, gt, in_plane)
    )
    traj1, traj2 = [], []
    for ti in range(spec.n_tracks):
        name = f"t{ti}"
        pix1, pix2, sync2 = track(rng)
        gt.sync_pairs[name] = np.column_stack([pix1, sync2])
        noise1 = rng.normal(0.0, spec.noise_sigma, size=pix1.shape)
        noise2 = rng.normal(0.0, spec.noise_sigma, size=pix2.shape)
        traj1.append(Trajectory("cam1", name, frames1, pix1 + noise1))
        traj2.append(Trajectory("cam2", name, frames2, pix2 + noise2))
    return traj1, traj2, gt


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
