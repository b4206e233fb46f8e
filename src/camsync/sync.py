"""Iterative large-offset synchronization.

Greedy loop over integer frame offsets: each iteration runs RANSAC twice,
interpolating from both the next and the previous d-th sample, keeps the
direction with more inliers, and either advances the offset by the rounded
shift estimate or widens the interpolation distance through powers of two
(cycling back to 2^0 after 2^p_max). The loop stops once every distance has
been tried without improvement at the current offset, or after k_max accepted
steps. The recovered total shift is the accumulated integer offset plus the
last accepted subframe estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NeverImproved, NotEnoughCorrespondences
from .geometry import Trajectory
from .robust import (
    RansacParams,
    RansacResult,
    count_correspondences,
    ransac_estimate,
    solver_kind,
)
# not called here; the benchmark's traced run wraps this binding
from .robust import build_correspondences  # noqa: F401
from .solvers import SolverCandidate


@dataclass(frozen=True)
class IterParams:
    kind: str
    k_max: int = 20
    p_min: int = 0
    p_max: int = 5
    ransac: RansacParams = field(default_factory=RansacParams)

    def __post_init__(self):
        solver_kind(self.kind)
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
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


def _enough_overlap(
    traj1: list[Trajectory], traj2: list[Trajectory], beta0: float, rho: float, kind: str
) -> bool:
    return count_correspondences(traj1, traj2, beta0, rho, d=1) >= solver_kind(kind).sample_size


def iterative_sync(
    traj1: list[Trajectory], traj2: list[Trajectory], params: IterParams
) -> SyncRun:
    """Recover a time shift of up to hundreds of frames; see module docstring."""
    rho = params.ransac.rho
    offset = 0  # accumulated integer camera-2 offset (j - i)
    p = params.p_min
    skipped = 0
    last_inliers = 0
    last_total = 0
    last_beta_rel: float | None = None
    last_model = None
    log: list[IterationRecord] = []
    calls = 0
    accepted_steps = 0

    while accepted_steps + 1 < params.k_max and skipped <= params.p_max:
        k = accepted_steps + 1  # k advances only on an accepted step
        d = 2**p
        results: list[tuple[int, RansacResult | None]] = []
        for direction in (+1, -1):
            rp = replace(
                params.ransac,
                seed=_derived_seed(params.ransac.seed, k, direction),
                d=direction * d,
                beta0=float(offset),
            )
            calls += 1
            try:
                results.append((direction, ransac_estimate(traj1, traj2, params.kind, rp)))
            except NotEnoughCorrespondences:
                if not log:
                    raise
                results.append((direction, None))
        usable = [(dr, r) for dr, r in results if r is not None]
        improved = False
        if usable:
            # tie on inliers prefers the +d direction (listed first)
            direction, res = max(usable, key=lambda pr: pr[1].inlier_count)
            best: SolverCandidate = res.best
            beta_rel = best.beta - offset
            step = _round_half_away(beta_rel)
            in_bounds = _enough_overlap(traj1, traj2, float(offset + step), rho, params.kind)
            improved = res.inlier_count > last_inliers and in_bounds
        if improved:
            offset += step
            last_inliers = res.inlier_count
            last_total = res.total_correspondences
            last_beta_rel = beta_rel
            last_model = best.model
            skipped = 0
            accepted_steps += 1
        else:
            skipped += 1
            p = p + 1 if p < params.p_max else 0
        if usable:
            log.append(
                IterationRecord(
                    k=k,
                    d=direction * d,
                    direction=direction,
                    inlier_count=res.inlier_count,
                    beta_k=beta_rel,
                    accepted=improved,
                    j_after=offset,
                    skipped_after=skipped,
                )
            )

    if last_model is None or last_beta_rel is None:
        raise NeverImproved("no iteration ever beat zero inliers", log=log)
    # traveled offset plus the last accepted estimate, taken at the offset it
    # was estimated from (its rounded part is already inside `offset`)
    return SyncRun(
        beta_total=offset - _round_half_away(last_beta_rel) + last_beta_rel,
        model=last_model,
        iterations=log,
        ransac_calls=calls,
        accepted_steps=accepted_steps,
        total_correspondences=last_total,
    )
