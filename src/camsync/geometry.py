"""Core types for two-view time-shift estimation.

Tracks are sequences of 2D image samples indexed by integer frame. A
``TimeModel`` maps camera-1 frame indices to real-valued camera-2 time via
``j(i) = beta + rho * i``. The camera-2 image curve is approximated around an
anchor frame by a secant, producing a linearized correspondence whose
predicted point at shift ``beta`` is ``u + beta * v``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingFrame, SingularModel, ZeroVector

FUNDAMENTAL = "fundamental"
HOMOGRAPHY = "homography"
MAX_FRAME = 2**63 - 1  # frames are stored as int64


@dataclass(frozen=True)
class ImageSample:
    """One tracked 2D point at an integer frame index."""

    frame: int
    u: float
    v: float

    def __post_init__(self):
        if not 0 <= self.frame <= MAX_FRAME:
            raise ValueError(f"frame must be in [0, 2**63 - 1], got {self.frame}")
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError("sample coordinates must be finite")

    def homogeneous(self) -> np.ndarray:
        return np.array([self.u, self.v, 1.0])

    def xy(self) -> np.ndarray:
        return np.array([self.u, self.v])


@dataclass
class Trajectory:
    """Track of one moving point in one camera, frames strictly increasing.

    ``frames`` (n,) and ``points`` (n, 2) hold the samples as arrays. Frame
    lookups are binary searches over ``frames``, so memory stays proportional
    to the sample count however far apart the frames lie.
    """

    camera_id: str
    track_id: str
    samples: tuple[ImageSample, ...]
    frames: np.ndarray = field(init=False, repr=False, compare=False)
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.samples = tuple(self.samples)
        self.frames = np.array([s.frame for s in self.samples], dtype=np.int64)
        if np.any(np.diff(self.frames) <= 0):
            raise ValueError(
                f"trajectory {self.camera_id}/{self.track_id}: "
                "frames must be strictly increasing"
            )
        self.points = np.empty((len(self.samples), 2))
        self.points[:, 0] = [s.u for s in self.samples]
        self.points[:, 1] = [s.v for s in self.samples]

    def __len__(self) -> int:
        return len(self.samples)

    def runs(self, first: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Locate the frame runs ``first .. first + length`` (length >= 0).

        Returns the sample index of each ``first`` and a mask, True where every
        frame of the run is present. Indices under a False mask are arbitrary.
        """
        n = len(self.frames)
        idx = np.searchsorted(self.frames, first)
        if n == 0:
            return idx, np.zeros(idx.shape, dtype=bool)
        # strictly increasing integers with frames[idx] >= first: reaching
        # first + length in exactly `length` steps leaves no room for a hole
        last = idx + length
        ok = (last < n) & (self.frames[np.minimum(last, n - 1)] == first + length)
        return idx, ok

    def _run(self, first: int, length: int) -> int | None:
        idx, ok = self.runs(np.array([first], dtype=np.int64), length)
        return int(idx[0]) if ok[0] else None

    def has_frame(self, frame: int) -> bool:
        return self._run(frame, 0) is not None

    def sample_at(self, frame: int) -> ImageSample:
        i = self._run(frame, 0)
        if i is None:
            raise MissingFrame(
                f"frame {frame} not in trajectory {self.camera_id}/{self.track_id}"
            )
        return self.samples[i]

    def contiguous(self, frame_a: int, frame_b: int) -> bool:
        """True when every integer frame between a and b (inclusive) is present."""
        lo, hi = min(frame_a, frame_b), max(frame_a, frame_b)
        return self._run(lo, hi - lo) is not None

    @property
    def first_frame(self) -> int:
        return self.samples[0].frame

    @property
    def last_frame(self) -> int:
        return self.samples[-1].frame


@dataclass(frozen=True)
class TimeModel:
    """Affine frame-to-time map: camera-1 frame i happens at camera-2 time beta + rho*i."""

    beta: float
    rho: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive and finite")


def time_map(i: int, model: TimeModel) -> float:
    """Camera-2 time of camera-1 frame i."""
    return model.beta + model.rho * i


@dataclass(frozen=True)
class LinearizedCorrespondence:
    """Secant linearization of the camera-2 curve near one camera-1 sample.

    The camera-2 point predicted at shift ``beta`` is ``u_vec + beta * v_vec``.
    ``v_vec`` is normalized per frame, so ``beta`` is in camera-2 frame units
    regardless of the interpolation distance ``d``.
    """

    u_vec: np.ndarray  # anchor point, pixels (2,)
    v_vec: np.ndarray  # tangent, pixels per camera-2 frame (2,)
    j0: int  # camera-2 anchor frame
    d: int  # signed secant span in camera-2 frames

    def predict(self, beta: float) -> np.ndarray:
        return self.u_vec + beta * self.v_vec

    def u_homogeneous(self) -> np.ndarray:
        return np.array([self.u_vec[0], self.u_vec[1], 1.0])

    def v_homogeneous(self) -> np.ndarray:
        return np.array([self.v_vec[0], self.v_vec[1], 0.0])


def linearize(
    traj2: Trajectory, i: int, beta0: float, rho: float, d: int
) -> LinearizedCorrespondence:
    """Linearize the camera-2 track around the frame matching camera-1 frame i.

    Anchors at j0 = floor(beta0 + rho*i) and takes the secant to j0 + d,
    divided by d. The fractional part of beta0 + rho*i is folded into u so the
    prediction at shift beta interpolates the track exactly when the track is
    an exact line.
    """
    if d == 0:
        raise ValueError("interpolation distance d must be nonzero")
    target = beta0 + rho * i
    j0 = math.floor(target)
    if not (traj2.has_frame(j0) and traj2.has_frame(j0 + d)):
        raise MissingFrame(
            f"frames {j0} and {j0 + d} required in camera-2 track "
            f"{traj2.track_id} (i={i}, beta0={beta0}, rho={rho})"
        )
    if not traj2.contiguous(j0, j0 + d):
        raise MissingFrame(
            f"gap between frames {j0} and {j0 + d} in camera-2 track {traj2.track_id}"
        )
    p0 = traj2.sample_at(j0).xy()
    p1 = traj2.sample_at(j0 + d).xy()
    v = (p1 - p0) / d
    u = p0 + (target - j0) * v - beta0 * v
    return LinearizedCorrespondence(u_vec=u, v_vec=v, j0=j0, d=d)


@dataclass(frozen=True)
class TwoViewModel:
    """Fundamental matrix or homography, unit Frobenius norm, sign-fixed."""

    kind: str
    m: np.ndarray

    @classmethod
    def normalized(cls, kind: str, m: np.ndarray) -> "TwoViewModel":
        m = np.asarray(m, dtype=float)
        n = np.linalg.norm(m)
        if n == 0 or not np.isfinite(n):
            raise ValueError("model matrix must be nonzero and finite")
        m = m / n
        flat = m.ravel()
        if flat[np.argmax(np.abs(flat))] < 0:
            m = -m
        return cls(kind=kind, m=m)

    def rank2_projected(self) -> "TwoViewModel":
        """Zero the smallest singular value (fundamental matrices only)."""
        u, s, vt = np.linalg.svd(self.m)
        s = s.copy()
        s[2] = 0.0
        return TwoViewModel.normalized(self.kind, u @ np.diag(s) @ vt)


def model_distance(a: TwoViewModel, b: TwoViewModel) -> float:
    """Frobenius distance after sign/scale normalization."""
    return float(np.linalg.norm(a.m - b.m))


def _to_h(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape == (2,):
        return np.array([p[0], p[1], 1.0])
    return p


def sampson_distances(f: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """First-order Sampson distance of x2^T F x1 = 0, vectorized over rows.

    x1, x2: (n, 3) homogeneous points. Returns +inf where the constraint
    gradient vanishes with a nonzero residual.
    """
    e = np.einsum("ij,jk,ik->i", x2, f, x1)
    l2 = x1 @ f.T  # epipolar lines in image 2
    l1 = x2 @ f  # epipolar lines in image 1
    g2 = l2[:, 0] ** 2 + l2[:, 1] ** 2 + l1[:, 0] ** 2 + l1[:, 1] ** 2
    out = np.full(e.shape, np.inf)
    ok = g2 > 0
    out[ok] = np.abs(e[ok]) / np.sqrt(g2[ok])
    out[e == 0] = 0.0
    return out


def transfer_distances(h: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Symmetric transfer error of x2 ~ H x1, vectorized over rows.

    Returns +inf where either transfer lands on the plane at infinity.
    """
    det = np.linalg.det(h)
    if abs(det) < 1e-14:
        raise SingularModel(f"homography is singular (det={det:.3e})")
    hinv = np.linalg.inv(h)
    fwd = x1 @ h.T
    bwd = x2 @ hinv.T
    out = np.full(x1.shape[0], np.inf)
    ok = (np.abs(fwd[:, 2]) > 1e-14) & (np.abs(bwd[:, 2]) > 1e-14)
    fw = fwd[ok, :2] / fwd[ok, 2:3]
    bw = bwd[ok, :2] / bwd[ok, 2:3]
    p1 = x1[ok, :2] / x1[ok, 2:3]
    p2 = x2[ok, :2] / x2[ok, 2:3]
    out[ok] = 0.5 * (
        np.linalg.norm(fw - p2, axis=1) + np.linalg.norm(bw - p1, axis=1)
    )
    return out


def epipolar_residual(model: TwoViewModel, s1, s2) -> float:
    """Sampson distance of one correspondence under a fundamental matrix."""
    m = TwoViewModel.normalized(model.kind, model.m).m
    return float(sampson_distances(m, _to_h(s1)[None, :], _to_h(s2)[None, :])[0])


def homography_residual(model: TwoViewModel, s1, s2) -> float:
    """Symmetric transfer error of one correspondence under a homography."""
    m = TwoViewModel.normalized(model.kind, model.m).m
    return float(transfer_distances(m, _to_h(s1)[None, :], _to_h(s2)[None, :])[0])
