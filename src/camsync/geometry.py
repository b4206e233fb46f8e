"""Core types for two-view time-shift estimation.

Tracks are sequences of 2D image samples indexed by integer frame. Camera-1
frame ``i`` happens at real-valued camera-2 time ``j(i) = beta + rho * i``.
The camera-2 image curve is approximated around an anchor frame by a secant,
producing a linearized correspondence, built at an offset ``beta0``, whose
predicted point at shift ``beta0 + delta`` is ``u + delta * v``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import MissingFrame, SingularModel

FUNDAMENTAL = "fundamental"
HOMOGRAPHY = "homography"
MAX_FRAME = 2**63 - 1  # frames are stored as int64
# largest |u| or |v| of a sample, far below the double range, so that secant
# differences and squares and products of two coordinates stay finite
MAX_COORD = 1e150


def require_numbers(params, kind: type, *names: str) -> None:
    """ValueError for the first field in ``names`` that is a bool or not a
    ``kind``, ``numbers.Integral`` or ``numbers.Real``."""
    what = "an integer" if kind is numbers.Integral else "a real number"
    for name in names:
        value = getattr(params, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{name} must be {what}, got {value!r}")


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
        if not max(abs(self.u), abs(self.v)) <= MAX_COORD:
            raise ValueError(f"sample coordinates must be at most {MAX_COORD:g} "
                             "in magnitude")


@dataclass(eq=False)
class Trajectory:
    """Track of one moving point in one camera.

    ``frames`` (n,) int64, nonnegative and strictly increasing, and ``points``
    (n, 2) float64, finite and at most ``MAX_COORD`` in magnitude, hold the
    samples as read-only copies of the input. Frame lookups are binary
    searches over ``frames``, so memory stays proportional to the sample count
    however far apart the frames lie.
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
        if not (np.abs(points) <= MAX_COORD).all():
            raise ValueError(f"{name}: sample coordinates must be at most "
                             f"{MAX_COORD:g} in magnitude")
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

    The camera-2 point predicted at shift ``beta0 + delta`` is
    ``u_vec + delta * v_vec``. ``v_vec`` is normalized per frame, so ``delta``
    is in camera-2 frame units regardless of the interpolation distance ``d``.
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
    divided by d. u is the secant's point at camera-2 time beta0 + rho*i, so
    the prediction u + delta*v at the local shift delta = beta - beta0
    interpolates the track exactly when the track is an exact line.
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
    u = p0 + (target - j0) * v
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


def sampson(f: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """First-order Sampson distance of x2^T F x1 = 0 over (n, 3) rows [x, y, 1].

    Returns 0 where the residual is zero and +inf where the constraint
    gradient vanishes (or is NaN) with a nonzero residual.

    The residual adds the nine products (x2_j F_jk) x1_k of a row one after
    another, j-major, as ``np.einsum("ij,jk,ik->i", x2, f, x1)`` does, one
    array addition per product, leaving out the products by the implied 1s.
    (``np.add.reduce`` over the nine would add them pairwise when there is a
    single row.) The two differ only in the sign of an exact zero, which the
    distance does not show.
    """
    fl = f.tolist()
    e = term = None
    for j, a in enumerate((x2[:, 0], x2[:, 1], None)):  # None: the implied 1
        for k, b in enumerate((x1[:, 0], x1[:, 1], None)):
            if a is None and b is None:
                e += fl[j][k]
            elif e is None:  # j = k = 0
                e = np.multiply(a, fl[j][k])
                e *= b
            else:
                term = np.multiply(b if a is None else a, fl[j][k], out=term)
                if a is not None and b is not None:
                    term *= b
                e += term
    # gemm reads a C-ordered copy of F^T faster than the transposed view, with
    # the same bits; a single row runs gemv, whose bits the copy would change
    ft = np.ascontiguousarray(f.T) if len(e) > 1 else f.T
    l2 = x1 @ ft  # epipolar lines in image 2
    l1 = x2 @ f  # epipolar lines in image 1
    g2 = l2[:, 0] ** 2
    g2 += l2[:, 1] ** 2
    g2 += l1[:, 0] ** 2
    g2 += l1[:, 1] ** 2
    out = np.full(e.shape, np.inf)
    np.divide(np.abs(e), np.sqrt(g2), out=out, where=g2 > 0)
    out[e == 0] = 0.0
    return out


def symmetric_transfer(h: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Symmetric transfer error of x2 ~ H x1 over (n, 3) rows [x, y, 1].

    Returns +inf where either transfer lands on the plane at infinity
    (|w| <= 1e-14). Each distance is ``sqrt(dx*dx + dy*dy)``, the two-term
    sum ``np.linalg.norm(axis=1)`` takes, over columns divided one by one.
    """
    det = np.linalg.det(h)
    if abs(det) < 1e-14:
        raise SingularModel(f"homography is singular (det={det:.3e})")
    fwd = x1 @ h.T
    bwd = x2 @ np.linalg.inv(h).T
    # rows mapped to infinity divide by (near) zero; they are set to inf last
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _transfer_distance(fwd, x2)
        out += _transfer_distance(bwd, x1)
    out *= 0.5
    out[~((np.abs(fwd[:, 2]) > 1e-14) & (np.abs(bwd[:, 2]) > 1e-14))] = np.inf
    return out


def _transfer_distance(mapped: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distance from each row of ``mapped``, dehomogenized, to ``x``'s point."""
    w = mapped[:, 2]
    dx = mapped[:, 0] / w
    dx -= x[:, 0]
    dy = mapped[:, 1] / w
    dy -= x[:, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)
