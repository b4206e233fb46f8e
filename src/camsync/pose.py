"""Calibrated pose extraction from a fundamental matrix and pose error metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CheiralityAmbiguous, ZeroVector
from .geometry import FUNDAMENTAL, TwoViewModel


@dataclass(frozen=True)
class CameraCalib:
    """Pinhole camera: intrinsics K and pose (R, t) with P = K [R | t]."""

    K: np.ndarray
    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        if abs(np.linalg.det(self.R) - 1.0) > 1e-6:
            raise ValueError("R must be a proper rotation")
        if np.linalg.norm(self.R @ self.R.T - np.eye(3)) > 1e-6:
            raise ValueError("R must be orthonormal")
        if abs(np.linalg.det(self.K)) < 1e-12:
            raise ValueError("K must be invertible")

    @property
    def center(self) -> np.ndarray:
        return -self.R.T @ self.t


def skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


def relative_pose(c1: CameraCalib, c2: CameraCalib) -> tuple[np.ndarray, np.ndarray]:
    """(R, t) mapping camera-1 coordinates to camera-2 coordinates."""
    r = c2.R @ c1.R.T
    t = c2.t - r @ c1.t
    return r, t


def fundamental_from_calib(c1: CameraCalib, c2: CameraCalib) -> TwoViewModel:
    r, t = relative_pose(c1, c2)
    f = np.linalg.inv(c2.K).T @ skew(t) @ r @ np.linalg.inv(c1.K)
    return TwoViewModel.normalized(FUNDAMENTAL, f)


def triangulate(
    p1: np.ndarray, p2: np.ndarray, x1: np.ndarray, x2: np.ndarray
) -> np.ndarray:
    """DLT triangulation of one point; x1, x2 are pixel (2,) coordinates."""
    a = np.vstack(
        [
            x1[0] * p1[2] - p1[0],
            x1[1] * p1[2] - p1[1],
            x2[0] * p2[2] - p2[0],
            x2[1] * p2[2] - p2[1],
        ]
    )
    _, _, vt = np.linalg.svd(a)
    xh = vt[-1]
    return xh[:3] / xh[3]


def decompose_f(
    model: TwoViewModel,
    k1: np.ndarray,
    k2: np.ndarray,
    probe_pairs: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Recover (R, t) with unit-length t from a fundamental matrix.

    Projects K2^T F K1 onto the essential manifold and picks the candidate
    that places the majority of triangulated probe pairs in front of both
    cameras.
    """
    if not probe_pairs:
        raise ValueError("at least one probe pair is required")
    e = k2.T @ model.m @ k1
    u, s, vt = np.linalg.svd(e)
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t_unit = u[:, 2]
    candidates = [
        (u @ w @ vt, t_unit),
        (u @ w @ vt, -t_unit),
        (u @ w.T @ vt, t_unit),
        (u @ w.T @ vt, -t_unit),
    ]
    p1 = k1 @ np.hstack([np.eye(3), np.zeros((3, 1))])
    counts = []
    for r, t in candidates:
        p2 = k2 @ np.hstack([r, t.reshape(3, 1)])
        n_front = 0
        for x1, x2 in probe_pairs:
            xw = triangulate(p1, p2, np.asarray(x1, float), np.asarray(x2, float))
            z1 = xw[2]
            z2 = (r @ xw + t)[2]
            if z1 > 0 and z2 > 0:
                n_front += 1
        counts.append(n_front)
    order = np.argsort(counts)[::-1]
    if counts[order[0]] == 0 or counts[order[0]] == counts[order[1]]:
        raise CheiralityAmbiguous(
            f"front-point counts {counts} do not single out one pose"
        )
    r, t = candidates[order[0]]
    return r, t / np.linalg.norm(t)


def rotation_error(r: np.ndarray, r_gt: np.ndarray) -> float:
    """Angle of R^T R_gt in degrees, in [0, 180]."""
    c = (np.trace(r.T @ r_gt) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def translation_error(t: np.ndarray, t_gt: np.ndarray) -> float:
    """Distance of unit translation directions, minimized over sign."""
    t = np.asarray(t, float)
    t_gt = np.asarray(t_gt, float)
    nt, ng = np.linalg.norm(t), np.linalg.norm(t_gt)
    if nt == 0 or ng == 0:
        raise ZeroVector("translation vectors must be nonzero")
    a = t / nt
    b = t_gt / ng
    return float(min(np.linalg.norm(b - a), np.linalg.norm(b + a)))
