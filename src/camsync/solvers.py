"""Closed-form solvers for two-view geometry with an unknown time shift.

All solvers consume linearized correspondences: a camera-1 point ``s`` paired
with a camera-2 anchor ``u`` and per-frame tangent ``v``, so the camera-2
point at shift ``beta`` is ``u + beta * v``. The epipolar constraint becomes
``(u + beta v)^T F s = 0``, linear in F and affine in beta; the homography
constraint is handled through the skew-symmetric elimination of the projective
scale.

Solvers, each called as ``solve(corr, window=None)``; each returns the
``SolverCandidate``s with lo <= beta <= hi of a ``window = (lo, hi)``:
  - solve_gep_f_beta: 9 correspondences, generalized eigenvalue problem,
    compressed to 6x6 using the rank deficiency of the beta coefficient matrix.
  - solve_min_f_beta: 8 correspondences plus det(F) = 0; the same compression
    to a 5x6 pencil makes it a degree-16 polynomial, sampled on the window.
  - solve_min_h_beta: 5 correspondences (two equations each for four, one for
    the fifth), nullspace parametrization and a 3x3 eigenvalue problem.
  - solve_7pt_f / solve_4pt_h: classical baselines ignoring the time shift;
    their candidates hold it at 0.
  - fit_model_at_beta / fit_beta_at_model: the least-squares fits that
    RANSAC's refinement alternates over a consensus set.

Only this module computes in normalized coordinates: every solver and fit
conditions both images with isotropic (Hartley-style) normalization, and
every solver maps its matrices back to pixel-model candidates with ``_candidates``.

The shift-estimating solvers run inside RANSAC on tiny arrays, where
numpy's per-call overhead costs more than the arithmetic. So
``prepare_f_draws`` compresses a whole block of RANSAC's samples at once
(normalization, pencil, one stacked QR) and runs each sample's ``dtrtrs``
back-substitution, and ``prepare_h_draws`` takes h-min's normalization,
SVD, solve and eig once per block; each solver call then takes one prepared
sample, and a plain ``CorrSet`` is prepared as a block of one. f-gep's
pencil goes to ``dggev`` directly. Each step gives the bits of
the per-sample numpy or scipy function it stands for, as do the stacked
minors and the written-out reductions; ``tests/reference_kernels.py`` holds
those plain forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dggev, dtrtrs

from .errors import DegenerateInput, NoRealSolution
from .geometry import FUNDAMENTAL, HOMOGRAPHY, TwoViewModel

# eigenvalues with |imag| <= IMAG_TOL * (1 + |real|) are accepted as real
IMAG_TOL = 1e-6
BETA_SPAN = 16.0  # solve_min_f_beta without a window samples on [-BETA_SPAN, BETA_SPAN]
COLLINEAR_TOL = 1e-9  # triangle area, relative to the squared coordinate scale
_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SolverCandidate:
    """One (beta, model) hypothesis."""

    beta: float
    model: TwoViewModel


@dataclass
class CorrSet:
    """Stacked correspondence arrays in the form of the secant model.

    s1: (n, 3) camera-1 points [x, y, 1]
    u:  (n, 3) camera-2 anchors [x, y, 1]
    v:  (n, 3) camera-2 tangents [vx, vy, 0]

    The solvers assume this form; ``points_at`` checks it when the set is
    first scored.
    """

    s1: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.s1 = np.asarray(self.s1, float)
        self.u = np.asarray(self.u, float)
        self.v = np.asarray(self.v, float)
        if not (self.s1.shape == self.u.shape == self.v.shape):
            raise ValueError("s1, u, v must share the same shape")

    def __len__(self) -> int:
        return self.s1.shape[0]

    def take(self, idx) -> "CorrSet":
        return CorrSet(self.s1[idx], self.u[idx], self.v[idx])

    def points_at(self, beta: float) -> tuple[np.ndarray, np.ndarray]:
        """The camera-1 points and the prediction ``u + beta * v`` as the
        residual kernels read them: column-major (n, 3) rows, the
        prediction's x and y with the bits of that expression.

        s1 and the columns of u and v are copied out on the first call and
        kept with the set, whose arrays must not change after it; a set not
        in the form raises ValueError there. The prediction is written into
        one (n, 3) buffer kept with them, whose third column stays 1: the rows
        one call returns hold only until the next.
        """
        s1, u, v, pred = self._columns
        xy = pred.T[:2]  # the buffer's x and y columns, a C-contiguous view
        np.multiply(v[:2], beta, out=xy)
        xy += u[:2]
        return s1, pred

    @functools.cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """s1 column-major, u's and v's columns as rows, the prediction buffer."""
        s1 = np.asfortranarray(self.s1)
        u = np.ascontiguousarray(self.u.T)
        v = np.ascontiguousarray(self.v.T)
        if not ((s1[:, 2] == 1).all() and (u[2] == 1).all() and (v[2] == 0).all()):
            raise ValueError("rows must be s1, u = [x, y, 1] and v = [vx, vy, 0]")
        return s1, u, v, np.ones((len(self), 3), order="F")


# ---------------------------------------------------------------------------
# conditioning


def _normalizing_transforms(points: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Isotropic transforms moving the centroid to the origin, mean norm
    sqrt(2): ``points`` is (..., n, 2) and the transforms (..., 3, 3), one per
    point set. Also ``coincident``: None, or True for each point set whose
    mean distance to its centroid is below 1e-12. Such a set gets a finite
    transform, as if that distance were 1.

    The reductions are the ones ``points.mean(axis=0)`` and
    ``np.linalg.norm(points - c, axis=1).mean()`` run on each set, called
    without their wrappers; the bits are the same.
    """
    n = points.shape[-2]
    c = np.add.reduce(points, axis=-2) / n
    d = points - c[..., None, :]
    scale = np.add.reduce(np.sqrt(np.add.reduce(d * d, axis=-1)), axis=-1) / n
    coincident = scale < 1e-12
    if coincident.any():
        scale = np.where(coincident, 1.0, scale)
    else:
        coincident = None
    s = _SQRT2 / scale
    t = np.zeros(points.shape[:-2] + (3, 3))
    t[..., 0, 0] = t[..., 1, 1] = s
    t[..., :2, 2] = -s[..., None] * c
    t[..., 2, 2] = 1.0
    return t, coincident


def _normalize_draws(s1: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple:
    """Normalize a block of (B, m, 3) samples at once: the normalized s1, u
    and v, the transforms t1 and t2, and per sample whether its points are
    not coincident. Each sample gets the bits of a block of its own."""
    t, coincident = _normalizing_transforms(np.stack([s1[..., :2], u[..., :2]], axis=-3))
    t1, t2 = t[:, 0], t[:, 1]
    fine = [True] * len(s1) if coincident is None else (~coincident.any(axis=1)).tolist()
    t1t, t2t = np.swapaxes(t1, -1, -2), np.swapaxes(t2, -1, -2)
    return s1 @ t1t, u @ t2t, v @ t2t, t1, t2, fine


def _normalize_corr(corr: CorrSet) -> tuple[CorrSet, np.ndarray, np.ndarray]:
    ns1, nu, nv, t1, t2, fine = _normalize_draws(corr.s1[None], corr.u[None], corr.v[None])
    if not fine[0]:
        raise DegenerateInput("coincident points, cannot normalize")
    return CorrSet(ns1[0], nu[0], nv[0]), t1[0], t2[0]


def _kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise kron of (..., n, 3) rows: row r is the coefficient vector of
    a_r^T X b_r in vec(X)."""
    return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (9,))


def _skew_rows(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """First two rows of [a]_x H s = 0 per sample, interleaved, in vec(H).

    s, a: (..., n, 3) with a[..., 2] the homogeneous coordinate; the rows are
    (..., 2n, 9). Row 2r is [0, -s_r, a_r[1] s_r] and row 2r+1 is
    [s_r, 0, -a_r[0] s_r]; their last three columns are the coefficients of
    the third row of H, the only one that a[..., :2] multiplies.
    """
    rows = np.zeros(s.shape[:-1] + (2, 9))
    rows[..., 0, 3:6] = -s
    rows[..., 0, 6:] = a[..., 1:2] * s
    rows[..., 1, :3] = s
    rows[..., 1, 6:] = -a[..., 0:1] * s
    return rows.reshape(s.shape[:-2] + (-1, 9))


def _split_real(values, column=None, window=None):
    """Filter near-real finite eigenvalues; yields (beta, vec) pairs, so a
    caller that only asks whether there is one stops at the first.

    With ``window = (lo, hi)`` only values whose real part lies in it, both
    ends inclusive, are considered.

    With ``column``, which gives a value's eigenvector from its index, each
    passing value's vector is rotated by the conjugate phase of its largest
    entry and dropped if its norm is zero or its imaginary part then exceeds
    1e-4 of its norm. Values are tested as Python floats and each norm is
    ``sqrt(x.dot(x))`` on the view ``np.linalg.norm`` takes: numpy's bits.
    """
    lo, hi = (-math.inf, math.inf) if window is None else window
    for i, lam in enumerate(np.atleast_1d(values).tolist()):
        beta, leak = lam.real, abs(lam.imag)
        if not (lo <= beta <= hi and math.isfinite(beta) and math.isfinite(leak)):
            continue
        if leak > IMAG_TOL * (1.0 + abs(beta)):
            continue
        vec = None
        if column is not None:
            vraw = column(i)
            # rotate the global phase away before measuring the imaginary leak
            phase = vraw[np.abs(vraw).argmax()]
            if abs(phase) > 0:
                vraw = vraw * (phase.conjugate() / abs(phase))
            vec = vraw.real
            if vraw.dtype.kind == "c":
                im = vraw.imag
                nrm = math.sqrt(vec.dot(vec) + im.dot(im))
                if nrm == 0:
                    continue
                im = im.copy()  # np.linalg.norm ravels the strided view into a copy
                leak = max(leak, math.sqrt(im.dot(im)) / nrm)
                if leak > 1e-4:
                    continue
            elif vec.dot(vec) == 0:
                continue
        yield beta, vec


def _candidates(geometry: str, t1, t2, found) -> list[SolverCandidate]:
    """Candidates of normalized ``(beta, m)`` pairs, in order, with pixel models
    F = t2^T m t1 or H = t2^-1 m t1, the inverse taken once per sample; an m
    that ``TwoViewModel.normalized`` rejects is dropped."""
    left = t2.T if geometry == FUNDAMENTAL else np.linalg.inv(t2)
    out = []
    for beta, m in found:
        try:
            out.append(SolverCandidate(beta, TwoViewModel.normalized(geometry, left @ m @ t1)))
        except ValueError:
            continue
    return out


def _in_window(cands: list[SolverCandidate], window) -> list[SolverCandidate]:
    """The candidates with lo <= beta <= hi, in order; all without a window."""
    lo, hi = (-math.inf, math.inf) if window is None else window
    return [c for c in cands if lo <= c.beta <= hi]


# ---------------------------------------------------------------------------
# generalized eigenvalue solver, 9 correspondences


# the Euclidean norms scipy.linalg.eig normalizes real, then complex, vectors with
_NRM2 = [scipy.linalg.get_blas_funcs("nrm2", dtype=dt, ilp64="preferred")
         for dt in (np.float64, np.complex128)]


@functools.cache
def _ggev_lwork(n: int) -> int:
    """dggev's optimal workspace for n x n pencils; it depends on n only."""
    zeros = np.zeros((n, n))
    return int(dggev(zeros, zeros, lwork=-1)[-2][0])


def _gep_real(a: np.ndarray, b: np.ndarray, window) -> list[tuple[float, np.ndarray]]:
    """``_split_real``'s pairs in ``window`` of ``scipy.linalg.eig(a, b)``, bit for
    bit, by one ``dggev`` call and scipy's post-processing, with vectors only for
    values that pass the value tests. NoRealSolution if none passes anywhere;
    DegenerateInput for non-finite input or vectors, no finite value or LAPACK failure."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DegenerateInput("GEP failed: pencil has non-finite entries")
    alphar, alphai, beta, _, vr, _, info = dggev(a, b, 0, 1, _ggev_lwork(a.shape[0]))
    if info != 0:
        raise DegenerateInput(f"GEP failed: dggev info={info}")
    alpha = alphar + 1j * alphai
    if beta.all():
        w = alpha / beta
    else:  # scipy's masks: inf at beta = 0, nan at 0 / 0
        w, zero = np.empty_like(alpha), beta == 0
        w[~zero] = alpha[~zero] / beta[~zero]
        nan = np.nan if np.all(alpha.imag == 0) else complex(np.nan, np.nan)
        w[zero] = np.where(alpha[zero] == 0, nan, np.inf)
    # scipy's pair assembly, in column order: a pair's first column takes the
    # next as its imaginary part, then its conjugate replaces that column
    wi = w.imag.tolist()
    if complex_pairs := any(wi):
        pair = [x > 0 or y < 0 for x, y in zip(wi, wi[1:] + [0.0])]
        real_of = list(range(len(wi)))
        for i, starts in enumerate(pair):
            if starts:
                real_of[i + 1] = real_of[i]
    if not np.isfinite(vr).all():  # scipy's norm rejects it
        raise DegenerateInput("GEP failed: non-finite eigenvectors")
    if not np.isfinite(w).any():
        raise DegenerateInput("pencil is singular for all beta")
    nrm2 = _NRM2[complex_pairs]

    def column(i):
        col = vr[:, i]
        if complex_pairs:
            col = vr[:, real_of[i]].astype(complex)
            if pair[i]:
                col.imag = vr[:, i + 1]
            elif i and pair[i - 1]:
                np.negative(vr[:, i], out=col.imag)
        return col / nrm2(col)

    real = list(_split_real(w, column, window))
    # valid if any value passes: a unit f6 gives an F that only overflow rejects
    if not real and not any(_split_real(w, column)):
        raise NoRealSolution("all generalized eigenvalues complex or infinite")
    return real


@dataclass
class PreparedF(CorrSet):
    """One F-solver sample with its compression done, as ``prepare_f_draws``
    gives it: the sample rows and either ``error``, the ``DegenerateInput``
    its solver raises, or the compressed system. That is the lower pencil rows
    ``a`` and ``c`` (6x6 for f-gep, 5x6 for f-min), ``g`` = R^-1 [A3 C3] and
    the normalizing transforms ``t1`` and ``t2``."""

    a: np.ndarray | None = None
    c: np.ndarray | None = None
    g: np.ndarray | None = None
    t1: np.ndarray | None = None
    t2: np.ndarray | None = None
    error: Exception | None = None

    def f_of(self, betas, f6: np.ndarray) -> np.ndarray:
        """The normalized F of each row of ``f6`` at its shift, one of the
        (k, 1) ``betas`` or a single shift: f3 = -(g[:, :6] + beta g[:, 6:]) f6."""
        g = self.g
        f3 = -(f6 @ g[:, :6].T + betas * (f6 @ g[:, 6:].T))
        return np.concatenate([f6, f3], axis=1).reshape(-1, 3, 3)


def prepare_f_draws(s1: np.ndarray, u: np.ndarray, v: np.ndarray) -> list[PreparedF]:
    """Both F solvers' compression of (M1 + beta M2) f = 0 for a block of
    samples: ``s1``, ``u`` and ``v`` are (B, m, 3), m = 9 or 8.

    The tangent has no homogeneous component, so M2 has three zero columns
    and the QR of M1's third-row columns splits each system into a pencil
    (A + beta C) f6 = 0, 6x6 or 5x6, and a triangular R f3 = -(A3 + beta C3)
    f6. Normalization, pencils, QR and compression run on the whole block;
    then each sample gets its own ``dtrtrs`` solve, which reads only R's
    upper triangle. Coincident points or a singular R mark only their own
    sample degenerate. Every result has the bits of its sample compressed
    alone.
    """
    ns1, nu, nv, t1, t2, fine = _normalize_draws(s1, u, v)
    m1, m2 = _kron_rows(nu, ns1), _kron_rows(nv, ns1)
    q, r = np.linalg.qr(m1[..., 6:9], mode="complete")
    qt = np.swapaxes(q, -1, -2)
    a, c = qt @ m1[..., :6], qt @ m2[..., :6]
    rhs = np.concatenate([a[:, :3], c[:, :3]], axis=-1)
    out = []
    for k, ok in enumerate(fine):
        draw = PreparedF(s1[k], u[k], v[k])
        if not ok:
            draw.error = DegenerateInput("coincident points, cannot normalize")
        else:
            g, info = dtrtrs(r[k, :3], rhs[k])
            if info != 0:
                draw.error = DegenerateInput("camera-1 points collinear, R is singular")
            else:
                draw.a, draw.c, draw.g = a[k, 3:], c[k, 3:], g
                draw.t1, draw.t2 = t1[k], t2[k]
        out.append(draw)
    return out


def _prepared(corr: CorrSet, prepared: type, prepare):
    """``corr`` if it is a ``prepared`` sample, else ``prepare``'s block of
    one; a sample that stored an error raises it."""
    if not isinstance(corr, prepared):
        corr = prepare(corr.s1[None], corr.u[None], corr.v[None])[0]
    if corr.error is not None:
        raise corr.error.with_traceback(None)
    return corr


def solve_gep_f_beta(corr: CorrSet, window=None) -> list[SolverCandidate]:
    """Fundamental matrix + time shift from 9 correspondences via a 6x6 GEP.

    ``corr`` is 9 rows, or one sample of ``prepare_f_draws``, whose
    compression reduces the 9x9 pencil to a 6x6 one with the same finite
    eigenvalues. The returned F is not rank-2 in general.

    With ``window = (lo, hi)`` only the candidates with lo <= beta <= hi are
    built and returned, in the same order as without it. A pencil with real
    eigenvalues, all outside the window, gives an empty list; one with none
    raises ``NoRealSolution`` either way.
    """
    if len(corr) != 9:
        raise ValueError(f"solve_gep_f_beta needs 9 correspondences, got {len(corr)}")
    draw = _prepared(corr, PreparedF, prepare_f_draws)
    # one row per candidate: a one-row matmul runs gemv, a stacked one gemm,
    # and a candidate's bits must not depend on how many the window keeps
    found = [(beta, draw.f_of(beta, f6[None])[0])
             for beta, f6 in _gep_real(draw.a, -draw.c, window)]
    return _candidates(FUNDAMENTAL, draw.t1, draw.t2, found)


# ---------------------------------------------------------------------------
# minimal 8-point solver, det F(beta) = 0 as a degree-16 polynomial


# 17 Chebyshev nodes on [-1, 1] and the inverse of their Chebyshev-Vandermonde
# matrix, which maps samples at the nodes to the degree-16 interpolant
_NODES = np.cos(np.pi * (np.arange(17) + 0.5) / 17)
_NODES_TO_CHEB = np.linalg.inv(np.polynomial.chebyshev.chebvander(_NODES, 16))
# columns of the k-th 5x5 minor of a 5x6 matrix (column k deleted) and its sign
_MINOR5_COLS = np.array([[c for c in range(6) if c != k] for k in range(6)])
_MINOR5_SIGNS = np.array([(-1.0) ** k for k in range(6)])


def solve_min_f_beta(corr: CorrSet, window=None) -> list[SolverCandidate]:
    """Minimal fundamental matrix + time shift from 8 correspondences.

    ``corr`` is 8 rows, or one sample of ``prepare_f_draws``, whose
    compression splits (M1 + beta M2) f = 0 into a 5x6 pencil
    (A + beta C) f6 = 0 and a triangular R f3 = -(A3 + beta C3) f6. f6 is
    the pencil's six signed 5x5 minors, of degree <= 5, so f3 has degree
    <= 6 and det F = (f6[:3] x f6[3:]) . f3 has degree <= 16. It is
    sampled at 17 Chebyshev nodes on ``window = (lo, hi)``, or on
    [-BETA_SPAN, BETA_SPAN] without one or for an empty or unbounded one,
    and its roots come from the colleague matrix. Only the real roots in the
    window get models: the pencil's SVD gives f6 and drops a root of rank
    below 5. As for ``solve_gep_f_beta``, real roots all outside the window
    give [], and no real root raises ``NoRealSolution``.
    """
    if len(corr) != 8:
        raise ValueError(f"solve_min_f_beta needs 8 correspondences, got {len(corr)}")
    draw = _prepared(corr, PreparedF, prepare_f_draws)
    a5, c5 = draw.a, draw.c
    lo, hi = (-BETA_SPAN, BETA_SPAN) if window is None else window
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if not 0 < half < math.inf:
        mid, half = (mid if math.isfinite(mid) else 0.0), BETA_SPAN
    nodes = mid + half * _NODES
    pencils = a5 + nodes[:, None, None] * c5
    minors = np.linalg.det(np.swapaxes(pencils[..., _MINOR5_COLS], -3, -2))
    samples = np.linalg.det(draw.f_of(nodes[:, None], _MINOR5_SIGNS * minors))
    scale = np.max(np.abs(samples))
    if scale == 0 or not np.isfinite(scale):
        raise DegenerateInput("determinant polynomial vanished identically")
    # a constant polynomial has no root: NoRealSolution below
    coeffs = np.polynomial.chebyshev.chebtrim(_NODES_TO_CHEB @ (samples / scale), 1e-13)
    roots = mid + half * np.polynomial.chebyshev.chebroots(coeffs)

    real = list(_split_real(roots, window=window))
    if not real:
        if not any(_split_real(roots)):
            raise NoRealSolution("no real root of the determinant polynomial")
        return []
    betas = np.array([beta for beta, _ in real])
    _, sing, vt = np.linalg.svd(a5 + betas[:, None, None] * c5)
    keep = ~(sing[:, -1] < 1e-8 * sing[:, 0])
    fs = draw.f_of(betas[:, None], vt[:, -1])
    found = [(beta, f) for (beta, _), ok, f in zip(real, keep, fs) if ok]
    return _candidates(FUNDAMENTAL, draw.t1, draw.t2, found)


# ---------------------------------------------------------------------------
# minimal homography solver, 5 correspondences


@dataclass
class PreparedH(CorrSet):
    """One h-min sample as ``prepare_h_draws`` gives it: the rows and either
    ``error``, the exception its solver raises, or the nullspace rows ``null``
    (3x12), the action matrix's eigen``values`` and ``vectors``, ``t1``, ``t2``."""

    null: np.ndarray | None = None
    values: np.ndarray | None = None
    vectors: np.ndarray | None = None
    t1: np.ndarray | None = None
    t2: np.ndarray | None = None
    error: Exception | None = None


def prepare_h_draws(s1: np.ndarray, u: np.ndarray, v: np.ndarray) -> list[PreparedH]:
    """h-min's steps up to its eigenproblem for a block of (B, 5, 3) samples:
    normalization, skew rows and the 9x12 SVDs, then, where the rank test
    passes, the action matrices' solve and eig, each run once on the block
    with the bits of each sample's own call. A stacked ``eig`` is complex for
    all if any sample's values are, so one whose values are all real takes
    the real parts, as its own call does. A sample stores what its solver
    raises; a stacked call that fails makes the block run one sample at a time."""
    draws = [PreparedH(*rows) for rows in zip(s1, u, v)]
    try:
        _solve_h_block(draws, s1, u, v)
    except (np.linalg.LinAlgError, DegenerateInput) as exc:
        if len(draws) > 1:
            return [prepare_h_draws(s1[k:k + 1], u[k:k + 1], v[k:k + 1])[0]
                    for k in range(len(draws))]
        draws[0].error = draws[0].error or exc  # an earlier step's error comes first
    return draws


def _solve_h_block(draws: list[PreparedH], s1, u, v) -> None:
    """``prepare_h_draws``' steps; each sample's error is set before the next."""
    ns1, nu, nv, t1, t2, fine = _normalize_draws(s1, u, v)
    for draw, ok in zip(draws, fine):
        if not ok:
            draw.error = DegenerateInput("coincident points, cannot normalize")
    # 12-monomial basis [h11..h33, beta*h31, beta*h32, beta*h33]: the third
    # component of u + beta v is 1, so beta only multiplies the third row of H
    rows = np.concatenate([_skew_rows(ns1, nu), _skew_rows(ns1, nv)[..., 6:]], axis=-1)
    _, sing, vt = np.linalg.svd(rows[:, :9])  # 9 x 12 each
    for draw, rank_low in zip(draws, (sing[:, 8] < 1e-10 * sing[:, 0]).tolist()):
        if rank_low and draw.error is None:
            draw.error = DegenerateInput("nullspace dimension exceeds 3 (degenerate samples)")
    live = [k for k, draw in enumerate(draws) if draw.error is None]
    # constraints w[9+k] = beta * w[6+k], k = 0..2, in monomials
    # [beta*g1, beta*g2, beta, g1, g2, 1] with w = g1 n1 + g2 n2 + n3;
    # row k of p holds -n[6+k], row k of q holds n[9+k]
    null = vt[live, -3:]  # rows n1, n2, n3 of each sample
    p, q = -np.swapaxes(null[..., 6:9], -1, -2), np.swapaxes(null[..., 9:12], -1, -2)
    try:
        action = -np.linalg.solve(p, q)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInput("quadratic system is rank-deficient") from exc
    values, vectors = np.linalg.eig(action)
    for k, n, w, vec in zip(live, null, values, vectors):
        if not w.imag.any():
            w, vec = w.real, vec.real
        draws[k].null, draws[k].values, draws[k].vectors = n, w, vec
        draws[k].t1, draws[k].t2 = t1[k], t2[k]


def solve_min_h_beta(corr: CorrSet, window=None) -> list[SolverCandidate]:
    """Homography + time shift from 5 correspondences (4.5-sample problem).

    Uses both independent rows of the skew-symmetric constraint for the first
    four samples and the first row for the fifth. The 3-dimensional nullspace
    of the 9x12 system is reduced, via the three monomial dependencies, to a
    3x3 eigenvalue problem with up to three real solutions. Every real root
    gets its model, so ``NoRealSolution`` is raised only when none gives one;
    then the candidates are filtered to ``window = (lo, hi)``.

    ``corr`` is 5 rows, prepared as a block of one, or one sample of
    ``prepare_h_draws``; what a sample stored is raised here.
    """
    if len(corr) != 5:
        raise ValueError(f"solve_min_h_beta needs 5 correspondences, got {len(corr)}")
    draw = _prepared(corr, PreparedH, prepare_h_draws)
    n1, n2, n3 = draw.null
    found = []
    for beta, vec in _split_real(draw.values, lambda i: draw.vectors[:, i]):
        if abs(vec[2]) < 1e-10:
            continue
        g1, g2 = vec[0] / vec[2], vec[1] / vec[2]
        found.append((beta, (g1 * n1 + g2 * n2 + n3)[:9].reshape(3, 3)))
    candidates = _candidates(HOMOGRAPHY, draw.t1, draw.t2, found)
    if not candidates:
        raise NoRealSolution("all eigenvalues complex")
    return _in_window(candidates, window)


# ---------------------------------------------------------------------------
# classical baselines (no time shift; anchors used as camera-2 points)


def solve_7pt_f(corr: CorrSet, window=None) -> list[SolverCandidate]:
    """Classical seven-point fundamental matrix on the anchor correspondences:
    one candidate per real root of the cubic, with beta = 0, as for the anchors
    ``u``. Like h-min, it raises before it filters to ``window``."""
    if len(corr) != 7:
        raise ValueError(f"solve_7pt_f needs 7 correspondences, got {len(corr)}")
    ncorr, t1, t2 = _normalize_corr(corr)
    m = _kron_rows(ncorr.u, ncorr.s1)
    _, sing, vt = np.linalg.svd(m)
    if sing[6] < 1e-12 * sing[0]:
        raise DegenerateInput("coefficient matrix rank below 7")
    f1 = vt[-1].reshape(3, 3)
    f2 = vt[-2].reshape(3, 3)
    # det(x*f1 + (1-x)*f2) is cubic in x; recover coefficients by evaluation
    xs = np.array([0.0, 1.0, 2.0, -1.0])
    ys = np.array([np.linalg.det(x * f1 + (1 - x) * f2) for x in xs])
    poly = np.polynomial.polynomial.polyfit(xs, ys, 3)
    poly = np.polynomial.polynomial.polytrim(poly, tol=1e-14 * max(1.0, np.abs(ys).max()))
    if len(poly) < 2:
        raise DegenerateInput("determinant polynomial is constant")
    roots = np.polynomial.polynomial.polyroots(poly)
    found = [(0.0, x * f1 + (1 - x) * f2) for x, _ in _split_real(roots)]
    candidates = _candidates(FUNDAMENTAL, t1, t2, found)
    if not candidates:
        raise NoRealSolution("no real root of the cubic")
    return _in_window(candidates, window)


def _collinear_triple(points: np.ndarray) -> bool:
    """True when any 3 of the given 2D points are collinear (area test)."""
    n = points.shape[0]
    scale = max(1.0, np.abs(points).max())
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = points[i], points[j], points[k]
                area = abs(
                    (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
                )
                if area < COLLINEAR_TOL * scale * scale:
                    return True
    return False


def solve_4pt_h(corr: CorrSet, window=None) -> list[SolverCandidate]:
    """Classical DLT homography from 4 anchor correspondences: one candidate,
    with beta = 0, or none for a ``window`` that leaves out 0."""
    if len(corr) != 4:
        raise ValueError(f"solve_4pt_h needs 4 correspondences, got {len(corr)}")
    if _collinear_triple(corr.s1[:, :2]) or _collinear_triple(corr.u[:, :2]):
        raise DegenerateInput("three collinear points in a 4-point homography sample")
    ncorr, t1, t2 = _normalize_corr(corr)
    _, _, vt = np.linalg.svd(_skew_rows(ncorr.s1, ncorr.u))
    found = [(0.0, vt[-1].reshape(3, 3))]
    return _in_window(_candidates(HOMOGRAPHY, t1, t2, found), window)


# ---------------------------------------------------------------------------
# least-squares refits over a consensus set


def fit_model_at_beta(geometry: str, sub: CorrSet, beta: float) -> TwoViewModel:
    """Least-squares model over a consensus set with the shift held fixed:
    the smallest right singular vector of the normalized constraint rows, as
    the eigenvector of their 9x9 normal matrix (O(n), not an n x 9 SVD)."""
    sub_n, t1, t2 = _normalize_corr(sub)
    pred = sub_n.u + beta * sub_n.v
    if geometry == FUNDAMENTAL:
        rows = _kron_rows(pred, sub_n.s1)
    else:
        rows = _skew_rows(sub_n.s1, pred)
    _, vecs = np.linalg.eigh(rows.T @ rows)
    left = t2.T if geometry == FUNDAMENTAL else np.linalg.inv(t2)
    return TwoViewModel.normalized(geometry, left @ vecs[:, 0].reshape(3, 3) @ t1)


def fit_beta_at_model(geometry: str, sub: CorrSet, model: TwoViewModel) -> float:
    """Closed-form least-squares shift with the model held fixed: the beta
    minimizing |a + beta b|^2, with a and b the epipolar constraint's terms
    (F) or the anchor's offset from the transferred point and the tangent (H)."""
    if geometry == FUNDAMENTAL:
        a = np.einsum("ij,ij->i", sub.u @ model.m, sub.s1)
        b = np.einsum("ij,ij->i", sub.v @ model.m, sub.s1)
    else:
        hx = sub.s1 @ model.m.T
        if np.any(np.abs(hx[:, 2]) < 1e-12):
            raise DegenerateInput("mapped point at infinity")
        a = (sub.u[:, :2] - hx[:, :2] / hx[:, 2:3]).ravel()
        b = sub.v[:, :2].ravel()
    denom = float(b @ b)
    if denom < 1e-18:
        raise DegenerateInput("shift unobservable on this consensus set")
    return float(-(a @ b) / denom)
