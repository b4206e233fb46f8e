"""Trajectory CSV and sync-report JSON serialization.

Trajectory CSV: header ``camera_id,track_id,frame,u,v``, UTF-8, LF line
endings. Floats are written with ``repr`` so parsing reproduces the exact
double. Sync reports are JSON with sorted keys for byte-stable output.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import TrajectoryFormatError
from .geometry import ImageSample, Trajectory, TwoViewModel

CSV_HEADER = ["camera_id", "track_id", "frame", "u", "v"]


def trajectories_to_csv_text(trajectories: list[Trajectory]) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_HEADER) + "\n")
    for t in trajectories:
        for s in t.samples:
            buf.write(f"{t.camera_id},{t.track_id},{s.frame},{s.u!r},{s.v!r}\n")
    return buf.getvalue()


def write_trajectories(path, trajectories: list[Trajectory]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trajectories_to_csv_text(trajectories))


def _read_samples(path, fh) -> dict[tuple[str, str], list[ImageSample]]:
    """Samples of each (camera_id, track_id) in file order."""
    rows: dict[tuple[str, str], list[ImageSample]] = defaultdict(list)
    seen: set[tuple[str, str, int]] = set()
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise TrajectoryFormatError(f"{path}: empty file") from None
    if [h.strip() for h in header] != CSV_HEADER:
        raise TrajectoryFormatError(
            f"{path}:1: expected header {','.join(CSV_HEADER)}"
        )
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 5:
            raise TrajectoryFormatError(f"{path}:{lineno}: expected 5 fields")
        cam, track, frame_s, u_s, v_s = (c.strip() for c in row)
        try:
            # ImageSample rejects negative frames and non-finite coordinates
            sample = ImageSample(frame=int(frame_s), u=float(u_s), v=float(v_s))
        except ValueError as exc:
            raise TrajectoryFormatError(f"{path}:{lineno}: {exc}") from None
        key = (cam, track, sample.frame)
        if key in seen:
            raise TrajectoryFormatError(
                f"{path}:{lineno}: duplicate (camera_id, track_id, frame) {key}"
            )
        seen.add(key)
        rows[(cam, track)].append(sample)
    return rows


def read_trajectories(path) -> dict[str, list[Trajectory]]:
    """Parse a trajectory CSV into {camera_id: [Trajectory, ...]}."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = _read_samples(path, fh)
    except UnicodeDecodeError as exc:
        raise TrajectoryFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out: dict[str, list[Trajectory]] = defaultdict(list)
    for (cam, track), samples in rows.items():
        samples.sort(key=lambda s: s.frame)
        out[cam].append(Trajectory(camera_id=cam, track_id=track, samples=samples))
    for cam in out:
        out[cam].sort(key=lambda t: t.track_id)
    return dict(out)


@dataclass
class SyncReport:
    beta: float
    rho: float
    model_kind: str
    matrix: list[float]  # row-major, unit-norm
    inliers: int
    total: int
    log: list[dict]
    seed: int
    config: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        beta: float,
        rho: float,
        model: TwoViewModel,
        inliers: int,
        total: int,
        log: list[dict],
        seed: int,
        config: dict,
    ) -> "SyncReport":
        return cls(
            beta=float(beta),
            rho=float(rho),
            model_kind=model.kind,
            matrix=[float(x) for x in np.asarray(model.m).ravel()],
            inliers=int(inliers),
            total=int(total),
            log=log,
            seed=int(seed),
            config=config,
        )

    def to_json(self) -> str:
        payload = {
            "beta": self.beta,
            "rho": self.rho,
            "model": {"kind": self.model_kind, "matrix": self.matrix},
            "inliers": self.inliers,
            "total": self.total,
            "log": self.log,
            "seed": self.seed,
            "config": self.config,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SyncReport":
        data = json.loads(text)
        return cls(
            beta=data["beta"],
            rho=data["rho"],
            model_kind=data["model"]["kind"],
            matrix=list(data["model"]["matrix"]),
            inliers=data["inliers"],
            total=data["total"],
            log=data["log"],
            seed=data["seed"],
            config=data.get("config", {}),
        )
