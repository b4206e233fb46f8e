"""Trajectory CSV and sync-report JSON serialization.

Trajectory CSV: header ``camera_id,track_id,frame,u,v``, UTF-8 (an optional
byte-order mark is skipped), LF line endings. Floats are written with ``repr``
so parsing reproduces the exact double. The reader converts and checks whole
columns, and on an error reads the file again row by row to name the first bad
line. Sync reports are JSON with sorted keys for byte-stable output.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict

import numpy as np

from .errors import TrajectoryFormatError
from .geometry import ImageSample, Trajectory, TwoViewModel

CSV_HEADER = ["camera_id", "track_id", "frame", "u", "v"]


def trajectories_to_csv_text(trajectories: list[Trajectory]) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_HEADER) + "\n")
    for t in trajectories:
        for f, (u, v) in zip(t.frames.tolist(), t.points.tolist()):
            buf.write(f"{t.camera_id},{t.track_id},{f},{u!r},{v!r}\n")
    return buf.getvalue()


def write_trajectories(path, trajectories: list[Trajectory]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trajectories_to_csv_text(trajectories))


def _read_columns(rows) -> dict[str, list[Trajectory]]:
    """Trajectories of the CSV rows; any bad row raises ValueError, OverflowError
    or csv.Error, and the caller then reads the file again row by row."""
    if [h.strip() for h in next(rows, [])] != CSV_HEADER:
        raise ValueError("bad header")
    ids: dict[tuple[str, str], int] = {}  # stripped (camera_id, track_id) -> group
    groups: dict[tuple[str, str], int] = {}  # the same, keyed by the raw cells
    group, frame, u, v = [], [], [], []
    for row in rows:
        if len(row) != 5:
            if len(row) > 1 or (row and row[0].strip()):
                raise ValueError("expected 5 fields")
            continue
        cam, track, f, x, y = row
        g = groups.get((cam, track))
        if g is None:
            g = groups[cam, track] = ids.setdefault((cam.strip(), track.strip()), len(ids))
        group.append(g)
        frame.append(f)
        u.append(x)
        v.append(y)
    # strip as the row-wise read does: int("\x1c1") fails, "\x1c1".strip() is "1"
    n = len(group)
    frames = np.fromiter(map(int, map(str.strip, frame)), np.int64, n)
    points = np.column_stack([np.fromiter(map(float, map(str.strip, c)), float, n)
                              for c in (u, v)])
    gid = np.array(group, dtype=np.intp)
    order = np.lexsort((frames, gid))
    cuts = np.cumsum(np.bincount(gid))[:-1]
    out: dict[str, list[Trajectory]] = defaultdict(list)
    # each track's frames in order: Trajectory raises ValueError on a negative
    # or repeated frame and on a coordinate that is not finite or past MAX_COORD
    for (cam, track), t_frames, t_points in zip(
        ids, np.split(frames[order], cuts), np.split(points[order], cuts)
    ):
        out[cam].append(Trajectory(cam, track, t_frames, t_points))
    return {cam: sorted(ts, key=lambda t: t.track_id) for cam, ts in out.items()}


def _raise_first_error(path) -> None:
    """Read ``path`` row by row and raise the error of its first bad line."""
    lineno, seen = 0, set()

    def bad(message):
        return TrajectoryFormatError(f"{path}:{lineno}: {message}")
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None:
                raise TrajectoryFormatError(f"{path}: empty file")
            lineno = 1
            if [h.strip() for h in header] != CSV_HEADER:
                raise bad(f"expected header {','.join(CSV_HEADER)}")
            for lineno, row in enumerate(rows, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 5:
                    raise bad("expected 5 fields")
                cam, track, frame, u, v = (c.strip() for c in row)
                try:
                    key = (cam, track, ImageSample(int(frame), float(u), float(v)).frame)
                except ValueError as exc:
                    raise bad(exc) from None
                if key in seen:
                    raise bad(f"duplicate (camera_id, track_id, frame) {key}")
                seen.add(key)
    except UnicodeDecodeError as exc:
        raise TrajectoryFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # raised while reading the row after `lineno`
        raise TrajectoryFormatError(f"{path}:{lineno + 1}: {exc}") from None
    raise TrajectoryFormatError(f"{path}: changed while it was read")


def read_trajectories(path) -> dict[str, list[Trajectory]]:
    """Parse a trajectory CSV into {camera_id: [Trajectory, ...] by track id}."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return _read_columns(csv.reader(fh))
    except (ValueError, OverflowError, csv.Error):  # incl. UnicodeDecodeError
        _raise_first_error(path)


def sync_report_json(
    beta: float,
    rho: float,
    model: TwoViewModel,
    inliers: int,
    total: int,
    log: list[dict],
    seed: int,
    config: dict,
) -> str:
    """The sync report: sorted-key JSON with the model matrix row-major."""
    payload = {
        "beta": float(beta),
        "rho": float(rho),
        "model": {"kind": model.kind, "matrix": [float(x) for x in model.m.ravel()]},
        "inliers": int(inliers),
        "total": int(total),
        "log": log,
        "seed": int(seed),
        "config": config,
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
