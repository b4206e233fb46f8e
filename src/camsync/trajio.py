"""Trajectory CSV and sync-report JSON serialization.

Trajectory CSV: header ``camera_id,track_id,frame,u,v``, UTF-8 (an optional
byte-order mark is skipped), LF line endings. Floats are written with ``repr``
so parsing reproduces the exact double, and the writer refuses an id that
would not read back as itself.

The reader reads the file once and converts whole columns. A plain file, with
no quote, NUL or CR, at least one data row and no line longer than the
shorter of two limits, ``csv.field_size_limit()`` and the int digit limit
(131,072 and 4,300 characters by default), is parsed by numpy's C reader in
one call. Every other file, and every file that reader rejects or warns on,
is parsed by the ``csv`` module; both parses give the same trajectories. On
an error the file is read again row by row to name the first bad line. Sync
reports are JSON with sorted keys for byte-stable output."""

from __future__ import annotations

import csv
import io
import json
import sys
import warnings
from collections import defaultdict

import numpy as np

from .errors import TrajectoryFormatError
from .geometry import ImageSample, Trajectory, TwoViewModel

CSV_HEADER = ["camera_id", "track_id", "frame", "u", "v"]


def _check_ids(t: Trajectory) -> None:
    """Raise ValueError unless both ids are strings that read back from a CSV
    as themselves: the reader strips each cell, ends a row at CR or LF,
    splits it at commas and unquotes a cell that starts with a double quote."""
    for name, cell in (("camera_id", t.camera_id), ("track_id", t.track_id)):
        if (not isinstance(cell, str) or cell != cell.strip() or cell.startswith('"')
                or any(c in cell for c in ",\r\n")):
            raise ValueError(f"trajectory {t.camera_id!r}/{t.track_id!r}: {name} "
                             f"would not read back from a trajectory CSV")


def trajectories_to_csv_text(trajectories: list[Trajectory]) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_HEADER) + "\n")
    for t in trajectories:
        _check_ids(t)
        for f, (u, v) in zip(t.frames.tolist(), t.points.tolist()):
            buf.write(f"{t.camera_id},{t.track_id},{f},{u!r},{v!r}\n")
    return buf.getvalue()


def write_trajectories(path, trajectories: list[Trajectory]) -> None:
    # encoded before the file is opened, so that an error truncates nothing
    data = trajectories_to_csv_text(trajectories).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


# one row of a trajectory CSV for numpy's C reader: the ids as raw cells
_ROW = np.dtype([("camera_id", object), ("track_id", object), ("frame", np.int64),
                 ("u", np.float64), ("v", np.float64)])


def _has_long_line(text: str, limit: int) -> bool:
    """Whether a line of ``text`` holds more than ``limit`` characters before
    its LF; each step jumps to the last LF within ``limit + 1`` characters."""
    start = 0
    while len(text) - start > limit:
        end = text.rfind("\n", start, start + limit + 1)
        if end < 0:
            return True
        start = end + 1
    return False


def _c_cells(text: str):
    """The columns of a plain file by numpy's C reader, or None where its
    parse could differ from the ``csv`` path's:

    - a quote, NUL or CR changes how ``csv`` splits rows;
    - a body with no comma has no data row, and loadtxt warns on it;
    - a cell past ``csv.field_size_limit()`` or an int past the digit limit
      is an error to the ``csv`` path that loadtxt accepts, so no line may
      be longer than either;
    - a row loadtxt rejects (an underscore or non-ASCII digit in a number,
      a whitespace-only line, a wrong field count) declines the file, and so
      does any warning loadtxt gives.

    A row loadtxt parses gives the raw id cells and, for the numbers, what
    ``int`` and ``float`` give for the stripped cells. That holds for the
    frame because loadtxt rejects an int64 cell in float syntax, such as
    ``1.0``; older numpy parsed it through float with a DeprecationWarning,
    which declines the file.
    """
    header, _, body = text.partition("\n")
    limit = min(csv.field_size_limit(), sys.get_int_max_str_digits() or sys.maxsize)
    if ('"' in text or "\0" in text or "\r" in text or "," not in body
            or [h.strip() for h in header.split(",")] != CSV_HEADER
            or _has_long_line(text, limit)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.StringIO(body), dtype=_ROW, delimiter=",",
                              comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    return (rows["camera_id"], rows["track_id"], rows["frame"],
            np.column_stack((rows["u"], rows["v"])))


def _csv_cells(text: str):
    """The columns of any file by the ``csv`` module; a bad row raises
    ValueError, OverflowError or csv.Error."""
    rows = csv.reader(io.StringIO(text, newline=""))
    if [h.strip() for h in next(rows, [])] != CSV_HEADER:
        raise ValueError("bad header")
    cam, track, frame, u, v = [], [], [], [], []
    for row in rows:
        if len(row) == 5:
            c_cell, t_cell, f_cell, u_cell, v_cell = row
            cam.append(c_cell)
            track.append(t_cell)
            frame.append(f_cell)
            u.append(u_cell)
            v.append(v_cell)
        elif len(row) > 1 or (row and row[0].strip()):
            raise ValueError("expected 5 fields")
    # strip as the row-wise read does: int("\x1c1") fails, "\x1c1".strip() is "1"
    n = len(cam)
    frames = np.fromiter(map(int, map(str.strip, frame)), np.int64, n)
    points = np.column_stack([np.fromiter(map(float, map(str.strip, c)), float, n)
                              for c in (u, v)])
    return np.array(cam, dtype=object), np.array(track, dtype=object), frames, points


def _read_columns(text: str) -> dict[str, list[Trajectory]]:
    """Trajectories of a CSV's text, by numpy's C reader where it accepts the
    file and by the ``csv`` module otherwise; a bad row raises ValueError,
    OverflowError or csv.Error, and the caller then reads the file again row
    by row."""
    cams, tracks, frames, points = _c_cells(text) or _csv_cells(text)
    # group by the stripped ids; a track's rows mostly come together, so the
    # ids are stripped and looked up once per run of equal raw cells
    n = len(frames)
    new = np.ones(n, dtype=bool)
    new[1:] = (cams[1:] != cams[:-1]) | (tracks[1:] != tracks[:-1])
    starts = np.flatnonzero(new)
    ids: dict[tuple[str, str], int] = {}
    run_gid = [ids.setdefault((cam.strip(), track.strip()), len(ids))
               for cam, track in zip(cams[starts].tolist(), tracks[starts].tolist())]
    gid = np.repeat(np.array(run_gid, dtype=np.intp), np.diff(starts, append=n))
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
            return _read_columns(fh.read())
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
