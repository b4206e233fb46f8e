"""Seeded RANSAC over the time-shift solvers, in the local shift beta - beta0.

Hypotheses are scored against every valid correspondence using the same
linearized prediction ``u + delta * v`` the solvers fit, with the Sampson
distance for fundamental matrices and the symmetric transfer error for
homographies. Per-iteration RNG streams are derived as ``seed XOR iteration``
so results are deterministic and independent of evaluation order.
"""

from __future__ import annotations

import math
import numbers
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
    require_numbers,
    sampson,
    symmetric_transfer,
)
from .solvers import (
    CorrSet,
    SolverCandidate,
    fit_beta_at_model,
    fit_model_at_beta,
    prepare_f_draws,  # noqa: F401 (each block step is looked up by its SolverKind.prepare)
    prepare_h_draws,  # noqa: F401
    solve_4pt_h,  # noqa: F401 (each solver is looked up by its SolverKind.solver)
    solve_7pt_f,  # noqa: F401
    solve_gep_f_beta,  # noqa: F401
    solve_min_f_beta,  # noqa: F401
    solve_min_h_beta,  # noqa: F401
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
DRAW_BLOCK = 64  # most samples prepared at once; blocks grow 4, 8, ... to it


@dataclass(frozen=True)
class SolverKind:
    """What a RANSAC solver kind is: its minimal sample, its geometry, whether
    it estimates the shift (the classical baselines hold it at beta0), the
    name this module binds its solver to and that of the block step preparing
    its draws, or None. RANSAC looks both up when it runs, so a rebinding of
    ``robust.solve_*`` or ``robust.prepare_*`` sees every call."""

    sample_size: int
    geometry: str  # FUNDAMENTAL or HOMOGRAPHY
    estimates_beta: bool
    solver: str
    prepare: str | None


SOLVER_KINDS = {
    KIND_F_GEP: SolverKind(9, FUNDAMENTAL, True, "solve_gep_f_beta", "prepare_f_draws"),
    KIND_F_MIN: SolverKind(8, FUNDAMENTAL, True, "solve_min_f_beta", "prepare_f_draws"),
    KIND_H_MIN: SolverKind(5, HOMOGRAPHY, True, "solve_min_h_beta", "prepare_h_draws"),
    KIND_F_7PT: SolverKind(7, FUNDAMENTAL, False, "solve_7pt_f", None),
    KIND_H_4PT: SolverKind(4, HOMOGRAPHY, False, "solve_4pt_h", None),
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
        require_numbers(self, numbers.Integral, "max_iterations", "seed", "d")
        require_numbers(self, numbers.Real, "threshold", "rho", "beta0")
        if self.beta_max is not None:
            require_numbers(self, numbers.Real, "beta_max")
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError("threshold must be positive and finite")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive and finite")
        if self.d == 0:
            raise ValueError("d must be nonzero")
        if not abs(self.d) <= MAX_FRAME:  # the secant's frames are int64
            raise ValueError("|d| must be <= 2**63 - 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.beta_max is not None and not 0 <= self.beta_max < math.inf:  # rejects NaN
            raise ValueError("beta_max must be non-negative and finite")
        if not 0 <= self.seed <= 2**64 - 1:  # each draw's stream is uint64(seed) ^ it
            raise ValueError("seed must be in [0, 2**64 - 1]")

    @property
    def window(self) -> tuple[float, float]:
        """The (lo, hi) bounds of the local shifts beta - beta0 RANSAC accepts."""
        half = self.beta_max if self.beta_max is not None else 10.0 * max(abs(self.d), 1)
        return -half, half


@dataclass
class RansacResult:
    best: SolverCandidate  # its beta is absolute: beta0 plus the local shift
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

    Row for row the same arithmetic as ``linearize``, gathered per track, so
    ``u + delta * v`` predicts the camera-2 point at beta0 + rho * i + delta.
    Camera-1 frames whose secant frames j0 .. j0+d are not all present (gap or
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
        u.append(p0 + (target - j0)[:, None] * vv)
        v.append(vv)
        keys.extend(zip([t1.track_id] * len(j0), t1.frames[ok].tolist()))
    n = len(keys)
    corr = CorrSet(
        np.column_stack([np.concatenate(s1), np.ones(n)]),
        np.column_stack([np.concatenate(u), np.ones(n)]),
        np.column_stack([np.concatenate(v), np.zeros(n)]),
    )
    return corr, keys


def _samples(kind: str, corr: CorrSet, params: RansacParams) -> Iterator[CorrSet]:
    """Each draw's sample, in draw order, up to ``params.max_iterations``.

    Draw ``it`` takes the indices of ``default_rng(seed ^ it)``, so drawing
    ahead changes no stream. Prepared kinds draw in blocks of 4, 8, ... up to
    ``DRAW_BLOCK`` and prepare each block with one call of their block step;
    samples drawn past the point where the caller stops are never solved.
    """
    spec = solver_kind(kind)
    n = len(corr)

    def draw(it):
        rng = np.random.default_rng(np.uint64(params.seed) ^ np.uint64(it))
        return rng.choice(n, size=spec.sample_size, replace=False)

    if spec.prepare is None:
        for it in range(params.max_iterations):
            yield corr.take(draw(it))
        return
    prepare = globals()[spec.prepare]
    it, block = 0, min(4, DRAW_BLOCK)
    while it < params.max_iterations:
        count = min(block, params.max_iterations - it)
        idx = np.array([draw(k) for k in range(it, it + count)])
        yield from prepare(corr.s1[idx], corr.u[idx], corr.v[idx])
        it += count
        block = min(2 * block, DRAW_BLOCK)


def score_candidate(
    kind: str, cand: SolverCandidate, corr: CorrSet, threshold: float
) -> tuple[np.ndarray, float]:
    """Inlier mask and summed inlier residual of one hypothesis over all rows."""
    s1, pred = corr.points_at(cand.beta)
    if solver_kind(kind).geometry == FUNDAMENTAL:
        res = sampson(cand.model.m, s1, pred)
    else:
        res = symmetric_transfer(cand.model.m, s1, pred)
    mask = res <= threshold
    return mask, float(res.compress(mask).sum())


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
    ``fit_beta_at_model``; the classical baselines keep their local shift at
    0. Each round is kept only if it does not lose inliers; the incumbent
    wins ties.
    """
    best, best_mask, best_res = cand, mask, res
    best_count = int(np.count_nonzero(mask))
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
        trial = SolverCandidate(beta=beta, model=model)
        try:
            mask_t, res_t = score_candidate(kind, trial, corr, params.threshold)
        except SingularModel:
            break
        count_t = int(np.count_nonzero(mask_t))
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
    spec = solver_kind(kind)
    m = spec.sample_size
    solve = globals()[spec.solver]
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
    window = params.window
    for it, sub in enumerate(_samples(kind, corr, params)):
        iterations = it + 1
        try:
            cands = solve(sub, window)
        except (DegenerateInput, NoRealSolution):
            continue
        valid_draws += 1
        for cand in cands:
            try:
                mask, res = score_candidate(kind, cand, corr, params.threshold)
            except SingularModel:
                continue
            count = int(np.count_nonzero(mask))
            if count > best_count or (count == best_count and res < best_res):
                best, best_mask, best_count, best_res = cand, mask, count, res
        if best_count > 0:
            w = best_count / n
            # at w = 1 the clamp makes the formula ask for one valid draw
            denom = math.log1p(-min(w**m, 1.0 - 1e-15))
            if denom == 0.0:  # w**m underflowed; no early stop
                needed = params.max_iterations
            else:
                needed = min(
                    params.max_iterations, math.ceil(math.log(1.0 - CONFIDENCE) / denom)
                )
        if valid_draws >= needed:  # before the next sample is drawn or prepared
            break
    if best is None:
        raise AllDegenerate(
            f"no usable hypothesis in {iterations} iterations ({valid_draws} valid draws)"
        )
    best, best_mask, best_count = refine_candidate(
        kind, best, best_mask, best_res, corr, params
    )
    return RansacResult(
        best=SolverCandidate(beta=params.beta0 + best.beta, model=best.model),
        inlier_mask=best_mask,
        inlier_count=best_count,
        iterations_run=iterations,
        total_correspondences=n,
        keys=keys,
    )

