"""Core types for two-view time-shift estimation.

Tracks are sequences of 2D image samples indexed by integer frame. Camera-1
frame ``i`` happens at real-valued camera-2 time ``j(i) = beta + rho * i``.
The camera-2 image curve is approximated around an anchor frame by a secant,
producing a linearized correspondence whose predicted point at shift ``beta``
is ``u + beta * v``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingFrame, SingularModel

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


@dataclass(eq=False)
class Trajectory:
    """Track of one moving point in one camera.

    ``frames`` (n,) int64, nonnegative and strictly increasing, and ``points``
    (n, 2) finite float64 hold the samples as read-only copies of the input.
    Frame lookups are binary searches over ``frames``, so memory stays
    proportional to the sample count however far apart the frames lie.
    """

    camera_id: str
    track_id: str
    frames: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        name = f"trajectory {self.camera_id}/{self.track_id}"
        frames = np.array(self.frames, dtype=np.int64)
        points = np.array(self.points, dtype=np.float64)
        if frames.ndim != 1 or points.shape != (len(frames), 2):
            raise ValueError(f"{name}: frames must have shape (n,) and points (n, 2)")
        if np.any(frames[:1] < 0) or np.any(np.diff(frames) <= 0):
            raise ValueError(f"{name}: frames must be nonnegative and strictly increasing")
        if not np.isfinite(points).all():
            raise ValueError(f"{name}: sample coordinates must be finite")
        frames.flags.writeable = points.flags.writeable = False
        self.frames, self.points = frames, points

    def __eq__(self, other):
        return (
            isinstance(other, Trajectory)
            and (self.camera_id, self.track_id) == (other.camera_id, other.track_id)
            and np.array_equal(self.frames, other.frames)
            and np.array_equal(self.points, other.points)
        )

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def samples(self) -> tuple[ImageSample, ...]:
        """The samples as ``ImageSample`` objects, built on each access."""
        return tuple(map(ImageSample, self.frames.tolist(), *self.points.T.tolist()))

    def runs(self, first: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Locate the frame runs ``first .. first + length`` (length >= 0).

        Returns the sample index of each ``first`` and a mask, True where every
        frame of the run is present. Indices under a False mask are arbitrary.
        """
        n = len(self.frames)
        idx = np.searchsorted(self.frames, first)
        if length >= n:  # no run of length + 1 frames; idx + length may overflow
            return idx, np.zeros(idx.shape, dtype=bool)
        # strictly increasing integers with frames[idx] >= first: reaching
        # first + length in exactly `length` steps leaves no room for a hole
        last = idx + length
        ok = (last < n) & (self.frames[np.minimum(last, n - 1)] == first + length)
        return idx, ok


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
    # as in build_correspondences: a camera-2 time outside [0, 2**63) has no
    # frame, and no frame lies past MAX_FRAME
    if not (0 <= target < 2.0**63 and math.floor(target) + d <= MAX_FRAME):
        raise MissingFrame(
            f"no frames at camera-2 time {target} in track {traj2.track_id} "
            f"(i={i}, beta0={beta0}, rho={rho}, d={d})"
        )
    j0 = math.floor(target)
    idx, present = traj2.runs(np.array([j0, j0 + d], dtype=np.int64), 0)
    if not present.all():
        raise MissingFrame(
            f"frames {j0} and {j0 + d} required in camera-2 track "
            f"{traj2.track_id} (i={i}, beta0={beta0}, rho={rho})"
        )
    # frames strictly increase: d frames apart are d samples apart iff no gap
    if idx[1] - idx[0] != d:
        raise MissingFrame(
            f"gap between frames {j0} and {j0 + d} in camera-2 track {traj2.track_id}"
        )
    p0, p1 = traj2.points[idx]
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
        flat = m.ravel(order="K")  # np.linalg.norm(m)'s Frobenius norm
        n = math.sqrt(flat.dot(flat))
        if n == 0 or not math.isfinite(n):
            raise ValueError("model matrix must be nonzero and finite")
        m = m / n
        flat = m.ravel()
        if flat[np.abs(flat).argmax()] < 0:
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


def epipolar_constraint(x2: np.ndarray, f: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """x2_i^T F x1_i per row: ``np.einsum("ij,jk,ik->i", x2, f, x1)``'s bits.

    The einsum adds the nine products (x2_ij F_jk) x1_ik of a row one after
    another, j-major; so does this, one array addition per product, at about
    half the einsum's cost. (``np.add.reduce`` over the nine would add them
    pairwise when there is a single row.) The two differ only in the sign of
    an exact zero.
    """
    terms = f[:, :, None] * x2.T[:, None, :]
    terms *= x1.T
    terms = terms.reshape(9, -1)
    e = terms[0] + terms[1]
    for term in terms[2:]:
        e += term
    return e


def sampson_distances(f: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """First-order Sampson distance of x2^T F x1 = 0, vectorized over rows.

    x1, x2: (n, 3) homogeneous points. Returns 0 where the residual is zero
    and +inf where the constraint gradient vanishes (or is NaN) with a
    nonzero residual.
    """
    e = epipolar_constraint(x2, f, x1)
    l2 = x1 @ f.T  # epipolar lines in image 2
    l1 = x2 @ f  # epipolar lines in image 1
    g2 = l2[:, 0] ** 2 + l2[:, 1] ** 2 + l1[:, 0] ** 2 + l1[:, 1] ** 2
    out = np.full(e.shape, np.inf)
    np.divide(np.abs(e), np.sqrt(g2), out=out, where=g2 > 0)
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
