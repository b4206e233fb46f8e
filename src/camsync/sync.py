"""Iterative large-offset synchronization.

Greedy loop over integer frame offsets. Each iteration runs RANSAC from the
next and then the previous d-th sample and keeps the result with strictly more
inliers (so +d wins a tie). It accepts that step when it has more inliers than
the last accepted step and the offset it moves to still has enough d = 1 rows
for a minimal sample: the offset advances by the rounded shift estimate.
Otherwise it widens the interpolation distance through powers of two (cycling
back to 2^0 after 2^p_max). A direction without enough rows to sample is
passed over; if neither direction of the first iteration has them, the +d
call's ``NotEnoughCorrespondences`` is raised. The loop stops once every
distance has been tried without improvement at the current offset, or after
k_max - 1 accepted steps. The recovered total shift is the accumulated integer
offset plus the last accepted subframe estimate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NeverImproved, NotEnoughCorrespondences
from .geometry import Trajectory, require_numbers
from .robust import (
    RansacParams,
    RansacResult,
    count_correspondences,
    ransac_estimate,
    solver_kind,
)
# not called here; the benchmark's traced run wraps this binding
from .robust import build_correspondences  # noqa: F401


@dataclass(frozen=True)
class IterParams:
    kind: str
    k_max: int = 20
    p_min: int = 0
    p_max: int = 5
    ransac: RansacParams = field(default_factory=RansacParams)

    def __post_init__(self):
        require_numbers(self, numbers.Integral, "k_max", "p_min", "p_max")
        if not solver_kind(self.kind).estimates_beta:  # the loop steps by the shift
            raise ValueError(f"solver kind {self.kind!r} does not estimate the shift")
        if self.k_max < 2:  # the loop takes at most k_max - 1 steps
            raise ValueError("k_max must be >= 2")
        if not (0 <= self.p_min <= self.p_max):
            raise ValueError("need 0 <= p_min <= p_max")
        if self.p_max > 62:  # d = 2**p_max must fit in int64
            raise ValueError("p_max must be <= 62")


@dataclass
class IterationRecord:
    k: int
    d: int
    direction: int
    inlier_count: int
    beta_k: float
    accepted: bool
    j_after: int
    skipped_after: int


@dataclass
class SyncRun:
    beta_total: float
    model: object  # TwoViewModel of the last accepted iteration
    iterations: list[IterationRecord]
    ransac_calls: int
    accepted_steps: int
    total_correspondences: int  # rows the last accepted RANSAC call scored against


def _round_half_away(x: float) -> int:
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def _derived_seed(seed: int, k: int, direction: int) -> int:
    ss = np.random.SeedSequence([int(seed) & (2**63 - 1), k, direction & 0xFF])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def iterative_sync(
    traj1: list[Trajectory], traj2: list[Trajectory], params: IterParams
) -> SyncRun:
    """Recover a time shift of up to hundreds of frames; see module docstring."""
    rho = params.ransac.rho
    need = solver_kind(params.kind).sample_size  # d = 1 rows a new offset must keep
    offset = 0  # accumulated integer camera-2 offset (j - i)
    p = params.p_min
    skipped = 0
    last: tuple[RansacResult, float] | None = None  # last accepted result, beta_rel
    log: list[IterationRecord] = []
    calls = 0
    accepted_steps = 0

    while accepted_steps + 1 < params.k_max and skipped <= params.p_max:
        k = accepted_steps + 1  # k advances only on an accepted step
        d = 2**p
        found: tuple[int, RansacResult] | None = None
        short: list[NotEnoughCorrespondences] = []
        for direction in (+1, -1):
            seed = _derived_seed(params.ransac.seed, k, direction)
            rp = replace(params.ransac, seed=seed, d=direction * d, beta0=float(offset))
            calls += 1
            try:
                res = ransac_estimate(traj1, traj2, params.kind, rp)
            except NotEnoughCorrespondences as exc:
                short.append(exc)
                continue
            # strictly more inliers: on a tie the +d result, tried first, stays
            if found is None or res.inlier_count > found[1].inlier_count:
                found = (direction, res)
        if found is None:  # neither direction has the rows to sample
            if not log:
                raise short[0]
            skipped += 1
            p = (p + 1) % (params.p_max + 1)
            continue
        direction, res = found
        beta_rel = res.best.beta - offset
        step = _round_half_away(beta_rel)
        improved = res.inlier_count > (last[0].inlier_count if last else 0) and (
            count_correspondences(traj1, traj2, float(offset + step), rho, d=1) >= need
        )
        if improved:
            offset += step
            last = (res, beta_rel)
            skipped = 0
            accepted_steps += 1
        else:
            skipped += 1
            p = (p + 1) % (params.p_max + 1)
        log.append(IterationRecord(
            k=k, d=direction * d, direction=direction, inlier_count=res.inlier_count,
            beta_k=beta_rel, accepted=improved, j_after=offset, skipped_after=skipped,
        ))

    if last is None:
        raise NeverImproved("no iteration ever beat zero inliers", log=log)
    res, beta_rel = last
    # traveled offset plus the last accepted estimate, taken at the offset it
    # was estimated from (its rounded part is already inside `offset`)
    return SyncRun(
        beta_total=offset - _round_half_away(beta_rel) + beta_rel,
        model=res.best.model,
        iterations=log,
        ransac_calls=calls,
        accepted_steps=accepted_steps,
        total_correspondences=res.total_correspondences,
    )
