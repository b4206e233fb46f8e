"""Ground-truth checks computed apart from camsync.

Every error here is measured with this file's own numpy code against the
scene generator's ground truth (clean synchronized pairs, injected outlier
labels) or recounted from the trajectory CSV, never against a stored copy of
an earlier output.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# An estimate whose median error on clean synchronized pairs exceeds this is
# wrong: it is twice the pixel noise the scenes add to each camera.
MODEL_ERR_PX = 1.0
MIN_F1 = 0.95


def _hom(x: np.ndarray) -> np.ndarray:
    return np.column_stack([x, np.ones(len(x))])


def _hartley(x: np.ndarray) -> np.ndarray:
    c = x.mean(axis=0)
    s = np.sqrt(2.0) / np.mean(np.linalg.norm(x - c, axis=1))
    return np.array([[s, 0.0, -s * c[0]], [0.0, s, -s * c[1]], [0.0, 0.0, 1.0]])


def rank2(f: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Nearest rank-2 matrix to F, taken in Hartley-normalized coordinates.

    In pixel coordinates the entries of F differ by orders of magnitude, so
    the nearest rank-2 matrix there can move the epipolar lines by pixels.
    """
    t1, t2 = _hartley(x1), _hartley(x2)
    fn = np.linalg.inv(t2).T @ np.asarray(f, float) @ np.linalg.inv(t1)
    u, s, vt = np.linalg.svd(fn)
    return t2.T @ (u @ np.diag([s[0], s[1], 0.0]) @ vt) @ t1


def sampson_px(f: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Sampson distance of x2^T F x1 = 0 for (n, 2) pixel rows."""
    h1, h2 = _hom(x1), _hom(x2)
    fx1 = h1 @ f.T
    ftx2 = h2 @ f
    e = np.sum(h2 * fx1, axis=1)
    g = fx1[:, 0] ** 2 + fx1[:, 1] ** 2 + ftx2[:, 0] ** 2 + ftx2[:, 1] ** 2
    return np.abs(e) / np.sqrt(g)


def transfer_px(h: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Symmetric transfer error of x2 ~ H x1 for (n, 2) pixel rows."""
    fwd = _hom(x1) @ np.asarray(h, float).T
    bwd = _hom(x2) @ np.linalg.inv(h).T
    fwd = fwd[:, :2] / fwd[:, 2:3]
    bwd = bwd[:, :2] / bwd[:, 2:3]
    return 0.5 * (np.linalg.norm(fwd - x2, axis=1) + np.linalg.norm(bwd - x1, axis=1))


def clean_pairs(gt) -> np.ndarray:
    """(n, 4) rows x1, y1, x2, y2 of noise-free synchronized pixels."""
    return np.vstack([gt.sync_pairs[t] for t in sorted(gt.sync_pairs)])


def model_err_px(is_f: bool, m: np.ndarray, pairs: np.ndarray) -> float:
    """Median Sampson (F, rank-2 projected) or transfer (H) error on ``pairs``."""
    x1, x2 = pairs[:, :2], pairs[:, 2:]
    if is_f:
        return float(np.median(sampson_px(rank2(m, x1, x2), x1, x2)))
    return float(np.median(transfer_px(m, x1, x2)))


def f1_score(pred: np.ndarray, truth: np.ndarray) -> float:
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    fn = int(np.sum(~pred & truth))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def inlier_truth(keys, traj1, labels) -> np.ndarray:
    """True where the camera-1 sample of a (track, frame) key was not replaced."""
    index = {t.track_id: {s.frame: i for i, s in enumerate(t.samples)} for t in traj1}
    return np.array([not labels[tr][index[tr][fr]] for tr, fr in keys], dtype=bool)


def count_rows(csv_path, d: int, beta0: float = 0.0, rho: float = 1.0) -> int:
    """Camera-1 samples whose camera-2 frames j0 .. j0+d are all present.

    j0 = floor(beta0 + rho * i); cameras are ordered by id and tracks are
    paired by id, as the CLI does.
    """
    frames: dict[str, dict[str, set[int]]] = {}
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for cam, track, frame, _, _ in reader:
            frames.setdefault(cam, {}).setdefault(track, set()).add(int(frame))
    cam1, cam2 = (frames[c] for c in sorted(frames))
    lo, hi = min(0, d), max(0, d)
    total = 0
    for track, f1 in cam1.items():
        f2 = cam2.get(track, set())
        for i in f1:
            j0 = math.floor(beta0 + rho * i)
            total += all(j0 + k in f2 for k in range(lo, hi + 1))
    return total
