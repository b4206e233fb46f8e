"""Seeded RANSAC over the time-shift solvers.

Hypotheses are scored against every valid correspondence using the same
linearized prediction ``u + beta * v`` the solvers fit, with the Sampson
distance for fundamental matrices and the symmetric transfer error for
homographies. Per-iteration RNG streams are derived as ``seed XOR iteration``
so results are deterministic and independent of evaluation order.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllDegenerate,
    DegenerateInput,
    NoRealSolution,
    NotEnoughCorrespondences,
    SingularModel,
)
from .geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    MAX_FRAME,
    Trajectory,
    sampson_distances,
    transfer_distances,
)
from .solvers import (
    CorrSet,
    SolverCandidate,
    fit_beta_at_model,
    fit_model_at_beta,
    solve_4pt_h,
    solve_7pt_f,
    solve_gep_f_beta,
    solve_min_f_beta,
    solve_min_h_beta,
)
# scalar reference of build_correspondences; the benchmark's traced run counts
# calls through this binding
from .geometry import linearize  # noqa: F401

KIND_F_GEP = "f-gep"
KIND_F_MIN = "f-min"
KIND_H_MIN = "h-min"
KIND_F_7PT = "f-7pt"
KIND_H_4PT = "h-4pt"

CONFIDENCE = 0.995  # adaptive termination: wanted chance that some draw is all inliers
REFINE_ROUNDS = 2  # post-consensus least-squares rounds


@dataclass(frozen=True)
class SolverKind:
    """What a RANSAC solver kind is: its minimal sample, its geometry and
    whether it estimates the shift (the classical baselines hold it at beta0)."""

    sample_size: int
    geometry: str  # FUNDAMENTAL or HOMOGRAPHY
    estimates_beta: bool


SOLVER_KINDS = {
    KIND_F_GEP: SolverKind(9, FUNDAMENTAL, True),
    KIND_F_MIN: SolverKind(8, FUNDAMENTAL, True),
    KIND_H_MIN: SolverKind(5, HOMOGRAPHY, True),
    KIND_F_7PT: SolverKind(7, FUNDAMENTAL, False),
    KIND_H_4PT: SolverKind(4, HOMOGRAPHY, False),
}


def solver_kind(kind: str) -> SolverKind:
    """The table entry of ``kind``; ValueError names an unknown kind."""
    try:
        return SOLVER_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown solver kind {kind!r}") from None


@dataclass(frozen=True)
class RansacParams:
    threshold: float = 1.0
    max_iterations: int = 1000
    seed: int = 0
    d: int = 1
    beta0: float = 0.0
    rho: float = 1.0
    beta_max: float | None = None  # window around beta0; default 10 * max(|d|, 1)

    def __post_init__(self):
        if not self.threshold > 0:  # also rejects NaN
            raise ValueError("threshold must be positive")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive and finite")
        if self.d == 0:
            raise ValueError("d must be nonzero")
        if not abs(self.d) <= MAX_FRAME:  # the secant's frames are int64
            raise ValueError("|d| must be <= 2**63 - 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.beta_max is not None and not self.beta_max >= 0:  # also rejects NaN
            raise ValueError("beta_max must be non-negative")
        if not 0 <= self.seed <= 2**64 - 1:  # each draw's stream is uint64(seed) ^ it
            raise ValueError("seed must be in [0, 2**64 - 1]")

    @property
    def window(self) -> tuple[float, float]:
        """The (lo, hi) bounds of the shifts RANSAC accepts."""
        half = self.beta_max if self.beta_max is not None else 10.0 * max(abs(self.d), 1)
        return self.beta0 - half, self.beta0 + half


@dataclass
class RansacResult:
    best: SolverCandidate
    inlier_mask: np.ndarray
    inlier_count: int
    iterations_run: int
    total_correspondences: int
    keys: list  # (track_id, frame) per correspondence


def _matched_tracks(
    traj1: list[Trajectory],
    traj2: list[Trajectory],
    beta0: float,
    rho: float,
    d: int,
) -> Iterator[tuple]:
    """Pair tracks by id and locate each camera-1 frame's secant in camera 2.

    Yields ``(t1, t2, target, j0, first, ok)`` per matched track, in camera-1
    track order: ``target`` is the camera-2 time of each camera-1 frame,
    ``j0`` its floor, ``ok`` True where the secant frames j0 .. j0+d are all
    present and ``first`` the sample index of the lower of j0, j0+d.
    """
    if d == 0:
        raise ValueError("interpolation distance d must be nonzero")
    by_id2 = {t.track_id: t for t in traj2}
    for t1 in traj1:
        t2 = by_id2.get(t1.track_id)
        if t2 is None:
            continue
        target = beta0 + rho * t1.frames
        # a camera-2 time outside [0, 2**63) has no frame: anchoring it at -1
        # instead of casting it leaves its row not ok
        inside = (target >= 0) & (target < 2.0**63)
        j0 = np.floor(np.where(inside, target, -1.0)).astype(np.int64)
        # the secant's frames run from min(j0, j0 + d); p0 is at j0, p1 at j0 + d
        first, ok = t2.runs(j0 + min(d, 0), abs(d))
        yield t1, t2, target, j0, first, ok


def count_correspondences(
    traj1: list[Trajectory],
    traj2: list[Trajectory],
    beta0: float,
    rho: float,
    d: int,
) -> int:
    """Row count of ``build_correspondences`` without building the rows."""
    return sum(int(ok.sum()) for *_, ok in _matched_tracks(traj1, traj2, beta0, rho, d))


def build_correspondences(
    traj1: list[Trajectory],
    traj2: list[Trajectory],
    beta0: float,
    rho: float,
    d: int,
) -> tuple[CorrSet, list[tuple[str, int]]]:
    """Pair camera-1 samples with camera-2 linearizations by shared track id.

    Row for row the same arithmetic as ``linearize``, gathered per track:
    camera-1 frames whose secant frames j0 .. j0+d are not all present (gap or
    boundary) are dropped. Returns the stacked arrays plus (track_id, frame)
    keys aligned with rows, in camera-1 track then frame order.
    """
    # seeded with empty blocks so that no matched track stacks to (0, 3) arrays
    s1, u, v = [np.zeros((0, 2))], [np.zeros((0, 2))], [np.zeros((0, 2))]
    keys: list[tuple[str, int]] = []
    for t1, t2, target, j0, first, ok in _matched_tracks(traj1, traj2, beta0, rho, d):
        target, j0 = target[ok], j0[ok]
        i0 = first[ok] - min(d, 0)
        p0 = t2.points[i0]
        p1 = t2.points[i0 + d]
        vv = (p1 - p0) / d
        s1.append(t1.points[ok])
        u.append(p0 + (target - j0)[:, None] * vv - beta0 * vv)
        v.append(vv)
        keys.extend(zip([t1.track_id] * len(j0), t1.frames[ok].tolist()))
    n = len(keys)
    corr = CorrSet(
        np.column_stack([np.concatenate(s1), np.ones(n)]),
        np.column_stack([np.concatenate(u), np.ones(n)]),
        np.column_stack([np.concatenate(v), np.zeros(n)]),
    )
    return corr, keys


def _generate(
    kind: str, sub: CorrSet, beta0: float, window: tuple[float, float]
) -> list[SolverCandidate]:
    # f-gep builds no model for a shift outside the window; the other solvers'
    # per-root filters decide whether a draw is valid, so they build them all
    if kind == KIND_F_GEP:
        return solve_gep_f_beta(sub, window)
    if kind == KIND_F_MIN:
        return solve_min_f_beta(sub)
    if kind == KIND_H_MIN:
        return solve_min_h_beta(sub)
    # the classical baselines: models of the prediction at beta0, the shift
    # held there
    held = CorrSet(sub.s1, sub.u + beta0 * sub.v, sub.v)
    models = solve_7pt_f(held) if kind == KIND_F_7PT else [solve_4pt_h(held)]
    return [
        SolverCandidate(beta=beta0, model=m, algebraic_residual=0.0) for m in models
    ]


def score_candidate(
    kind: str, cand: SolverCandidate, corr: CorrSet, threshold: float
) -> tuple[np.ndarray, float]:
    """Inlier mask and summed inlier residual of one hypothesis over all rows."""
    pred = corr.u + cand.beta * corr.v
    if solver_kind(kind).geometry == FUNDAMENTAL:
        res = sampson_distances(cand.model.m, corr.s1, pred)
    else:
        res = transfer_distances(cand.model.m, corr.s1, pred)
    mask = res <= threshold
    return mask, float(res[mask].sum())


def refine_candidate(
    kind: str,
    cand: SolverCandidate,
    mask: np.ndarray,
    res: float,
    corr: CorrSet,
    params: RansacParams,
) -> tuple[SolverCandidate, np.ndarray, int]:
    """Alternate model/shift least squares over the consensus set.

    Starts from ``cand`` with its inlier ``mask`` and summed inlier residual
    ``res``, as ``score_candidate`` gave them. Up to ``REFINE_ROUNDS`` rounds
    of ``fit_model_at_beta`` then, for the kinds that estimate the shift,
    ``fit_beta_at_model``; the classical baselines keep their shift fixed at
    beta0. Each round is kept only if it does not lose inliers; the incumbent
    wins ties.
    """
    best, best_mask, best_res = cand, mask, res
    best_count = int(mask.sum())
    lo, hi = params.window
    spec = solver_kind(kind)
    for _ in range(REFINE_ROUNDS):
        idx = np.flatnonzero(best_mask)
        if len(idx) < spec.sample_size:
            break
        sub = corr.take(idx)
        try:
            model = fit_model_at_beta(spec.geometry, sub, best.beta)
            beta = best.beta
            if spec.estimates_beta:
                beta = fit_beta_at_model(spec.geometry, sub, model)
        except (DegenerateInput, np.linalg.LinAlgError):
            break
        beta = min(max(beta, lo), hi)
        trial = SolverCandidate(
            beta=beta, model=model, algebraic_residual=best.algebraic_residual
        )
        try:
            mask_t, res_t = score_candidate(kind, trial, corr, params.threshold)
        except SingularModel:
            break
        count_t = int(mask_t.sum())
        if count_t < best_count or (count_t == best_count and res_t >= best_res):
            break
        best, best_mask, best_count, best_res = trial, mask_t, count_t, res_t
    return best, best_mask, best_count


def ransac_estimate(
    traj1: list[Trajectory],
    traj2: list[Trajectory],
    kind: str,
    params: RansacParams,
) -> RansacResult:
    """Hypothesize-and-verify estimation of (beta, model) over full trajectories.

    Deterministic for fixed seed and inputs. Sampled sets rejected by the
    solver do not count toward the adaptive termination rule.
    """
    m = solver_kind(kind).sample_size
    corr, keys = build_correspondences(traj1, traj2, params.beta0, params.rho, params.d)
    n = len(corr)
    if n < m:
        raise NotEnoughCorrespondences(
            f"{n} valid correspondences, solver {kind} needs {m}"
        )
    best = None
    best_mask = None
    best_count = -1
    best_res = math.inf
    needed = params.max_iterations
    valid_draws = 0
    iterations = 0
    lo, hi = params.window
    for it in range(params.max_iterations):
        if valid_draws >= needed:
            break
        iterations = it + 1
        rng = np.random.default_rng(np.uint64(params.seed) ^ np.uint64(it))
        idx = rng.choice(n, size=m, replace=False)
        try:
            cands = _generate(kind, corr.take(idx), params.beta0, (lo, hi))
        except (DegenerateInput, NoRealSolution):
            continue
        valid_draws += 1
        for cand in cands:
            if not (lo <= cand.beta <= hi):
                continue
            try:
                mask, res = score_candidate(kind, cand, corr, params.threshold)
            except SingularModel:
                continue
            count = int(mask.sum())
            if count > best_count or (count == best_count and res < best_res):
                best, best_mask, best_count, best_res = cand, mask, count, res
        if best_count > 0:
            w = best_count / n
            if w >= 1.0:
                needed = valid_draws
            else:
                denom = math.log1p(-min(w**m, 1.0 - 1e-15))
                if denom == 0.0:  # w**m underflowed; no early stop
                    needed = params.max_iterations
                else:
                    needed = min(
                        params.max_iterations,
                        math.ceil(math.log(1.0 - CONFIDENCE) / denom),
                    )
    if best is None:
        raise AllDegenerate(
            f"no usable hypothesis in {iterations} iterations ({valid_draws} valid draws)"
        )
    best, best_mask, best_count = refine_candidate(
        kind, best, best_mask, best_res, corr, params
    )
    return RansacResult(
        best=best,
        inlier_mask=best_mask,
        inlier_count=best_count,
        iterations_run=iterations,
        total_correspondences=n,
        keys=keys,
    )

