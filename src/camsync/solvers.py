"""Closed-form solvers for two-view geometry with an unknown time shift.

All solvers consume linearized correspondences: a camera-1 point ``s`` paired
with a camera-2 anchor ``u`` and per-frame tangent ``v``, so the camera-2
point at shift ``beta`` is ``u + beta * v``. The epipolar constraint becomes
``(u + beta v)^T F s = 0``, linear in F and affine in beta; the homography
constraint is handled through the skew-symmetric elimination of the projective
scale.

Solvers:
  - solve_gep_f_beta: 9 correspondences, generalized eigenvalue problem,
    compressed to 6x6 using the rank deficiency of the beta coefficient matrix.
  - solve_min_f_beta: 8 correspondences plus det(F) = 0, hidden-variable
    elimination producing a univariate polynomial in beta.
  - solve_min_h_beta: 5 correspondences (two equations each for four, one for
    the fifth), nullspace parametrization and a 3x3 eigenvalue problem.
  - solve_7pt_f / solve_4pt_h: classical baselines ignoring the time shift.
  - fit_model_at_beta / fit_beta_at_model: the least-squares fits that
    RANSAC's refinement alternates over a consensus set.

Only this module computes in normalized coordinates: every solver and fit
conditions both images with isotropic (Hartley-style) normalization, maps its
matrices back to pixels with ``_to_pixels``, and the time-shift solvers build
their residual-sorted candidates with ``_candidates``.

The GEP solver runs inside RANSAC on 9-row arrays, where numpy's per-call
overhead costs more than the arithmetic. So it calls LAPACK directly:
``dgeqrf`` and ``dorgqr`` for the compression, ``dggev`` for the pencil and
``dgelsd`` for the back-substitution. Each call gives the bits of the numpy
or scipy function it stands for (``np.linalg.qr``, ``scipy.linalg.eig``,
``np.linalg.lstsq``), as do the normalization's and the residuals' written-out
reductions; ``tests/reference_kernels.py`` holds those plain forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgelsd, dgelsd_lwork, dgeqrf, dggev, dorgqr

from .errors import DegenerateInput, NoRealSolution
from .geometry import FUNDAMENTAL, HOMOGRAPHY, TwoViewModel, epipolar_constraint

# eigenvalues with |imag| <= IMAG_TOL * (1 + |real|) are accepted as real
IMAG_TOL = 1e-6
BETA_SPAN = 16.0  # solve_min_f_beta samples det F(beta) on [-BETA_SPAN, BETA_SPAN]
RESIDUAL_TOL = 1e-6  # and drops the roots whose residual exceeds RESIDUAL_TOL
_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SolverCandidate:
    """One (beta, model) hypothesis with its backsubstitution residual."""

    beta: float
    model: TwoViewModel
    algebraic_residual: float
    imag_leak: float = 0.0


@dataclass
class CorrSet:
    """Stacked correspondence arrays: s1 homogeneous, u and v homogeneous.

    s1: (n, 3) camera-1 points [x, y, 1]
    u:  (n, 3) camera-2 anchors [x, y, 1]
    v:  (n, 3) camera-2 tangents [vx, vy, 0]
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


# ---------------------------------------------------------------------------
# conditioning


def normalizing_transform(points: np.ndarray) -> np.ndarray:
    """Isotropic transform moving the centroid to the origin, mean norm sqrt(2).

    ``points`` is (..., n, 2) and the result (..., 3, 3): one transform per
    point set. The reductions are the ones ``points.mean(axis=0)`` and
    ``np.linalg.norm(points - c, axis=1).mean()`` run on each set, called
    without their wrappers; the bits are the same.
    """
    n = points.shape[-2]
    c = np.add.reduce(points, axis=-2) / n
    d = points - c[..., None, :]
    scale = np.add.reduce(np.sqrt(np.add.reduce(d * d, axis=-1)), axis=-1) / n
    if (scale < 1e-12).any():
        raise DegenerateInput("coincident points, cannot normalize")
    s = _SQRT2 / scale
    t = np.zeros(points.shape[:-2] + (3, 3))
    t[..., 0, 0] = t[..., 1, 1] = s
    t[..., :2, 2] = -s[..., None] * c
    t[..., 2, 2] = 1.0
    return t


def _normalize_corr(corr: CorrSet) -> tuple[CorrSet, np.ndarray, np.ndarray]:
    t1, t2 = normalizing_transform(np.stack([corr.s1[:, :2], corr.u[:, :2]]))
    return (
        CorrSet(corr.s1 @ t1.T, corr.u @ t2.T, corr.v @ t2.T),
        t1,
        t2,
    )


def _kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise kron: row r is the coefficient vector of a_r^T X b_r in vec(X)."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], 9)


def _skew_rows(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """First two rows of [a]_x H s = 0 per sample, interleaved, in vec(H).

    s, a: (n, 3) with a[:, 2] the homogeneous coordinate. Row 2r is
    [0, -s_r, a_r[1] s_r] and row 2r+1 is [s_r, 0, -a_r[0] s_r]; their last
    three columns are the coefficients of the third row of H, the only one
    that a[:, :2] multiplies.
    """
    n = s.shape[0]
    rows = np.zeros((n, 2, 9))
    rows[:, 0, 3:6] = -s
    rows[:, 0, 6:] = a[:, 1:2] * s
    rows[:, 1, :3] = s
    rows[:, 1, 6:] = -a[:, 0:1] * s
    return rows.reshape(2 * n, 9)


def _split_real(values, vectors=None, window=None):
    """Filter near-real finite eigenvalues; returns (beta, vec, imag_leak) triples.

    With ``window = (lo, hi)`` only values whose real part lies in it, both
    ends inclusive, are considered.

    With ``vectors`` (one column per value), each kept column is rotated by
    the conjugate phase of its largest entry; it is dropped if its norm is
    zero or its imaginary part then exceeds 1e-4 of its norm. The values are
    tested as Python floats, and each norm is ``sqrt(x.dot(x))`` on the view
    ``np.linalg.norm`` would take, so the bits are those of the numpy forms.
    """
    lo, hi = (-math.inf, math.inf) if window is None else window
    out = []
    for i, lam in enumerate(np.atleast_1d(values).tolist()):
        beta, leak = lam.real, abs(lam.imag)
        if not (lo <= beta <= hi and math.isfinite(beta) and math.isfinite(leak)):
            continue
        if leak > IMAG_TOL * (1.0 + abs(beta)):
            continue
        vec = None
        if vectors is not None:
            vraw = vectors[:, i]
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
        out.append((beta, vec, leak))
    return out


def _f_residual(corr: CorrSet, beta: float, f: np.ndarray) -> float:
    """Max normalized epipolar residual |(u + beta v)^T F s| over the set."""
    a = corr.u + beta * corr.v
    num = np.abs(epipolar_constraint(a, f, corr.s1))
    # np.linalg.norm(x, axis=1)'s reduction
    den = np.sqrt(np.add.reduce(a * a, axis=1)) * np.sqrt(
        np.add.reduce(corr.s1 * corr.s1, axis=1)
    )
    return float((num / np.maximum(den, 1e-12)).max())


def _h_residual(corr: CorrSet, beta: float, h: np.ndarray) -> float:
    """Max normalized cross-product residual of H s ~ (u + beta v)."""
    a = corr.u + beta * corr.v
    hs = corr.s1 @ h.T
    cross = np.cross(a, hs)
    num = np.linalg.norm(cross, axis=1)
    den = np.linalg.norm(a, axis=1) * np.linalg.norm(hs, axis=1)
    return float(np.max(num / np.maximum(den, 1e-12)))


def _to_pixels(geometry: str, t1: np.ndarray, t2: np.ndarray):
    """The map of a normalized-coordinate matrix m to its pixel model: F is
    ``t2^T m t1`` and H ``t2^-1 m t1``, the inverse taken once per sample.
    Like ``TwoViewModel.normalized`` it raises ValueError for a zero or
    non-finite matrix."""
    left = t2.T if geometry == FUNDAMENTAL else np.linalg.inv(t2)
    return lambda m: TwoViewModel.normalized(geometry, left @ m @ t1)


def _candidates(corr: CorrSet, to_pixels, found) -> list[SolverCandidate]:
    """Candidates of normalized ``(beta, m, leak)`` triples, sorted by their
    algebraic residual over the pixel-coordinate ``corr``; an m that
    ``to_pixels`` rejects is dropped."""
    out = []
    for beta, m, leak in found:
        try:
            model = to_pixels(m)
        except ValueError:
            continue
        residual = _f_residual if model.kind == FUNDAMENTAL else _h_residual
        out.append(SolverCandidate(beta, model, residual(corr, beta, model.m), leak))
    out.sort(key=lambda c: c.algebraic_residual)
    return out


# ---------------------------------------------------------------------------
# generalized eigenvalue solver, 9 correspondences


def build_f_pencil(corr: CorrSet) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient matrices of (M1 + beta M2) f = 0 with f = vec(F) row-major."""
    return _kron_rows(corr.u, corr.s1), _kron_rows(corr.v, corr.s1)


# the Euclidean norm scipy.linalg.eig normalizes eigenvectors with
_NRM2 = {
    dt: scipy.linalg.get_blas_funcs("nrm2", dtype=dt, ilp64="preferred")
    for dt in (np.float64, np.complex128)
}


@functools.cache
def _ggev_lwork(n: int) -> int:
    """dggev's optimal workspace for n x n pencils; it depends on n only."""
    zeros = np.zeros((n, n))
    return int(dggev(zeros, zeros, lwork=-1)[-2][0])


def _ggev(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.eig(a, b)`` for real square a, b, bit for bit.

    One ``dggev`` call with a cached workspace size, then scipy's own
    post-processing: ``alpha / beta`` as a complex division, with scipy's
    masks for inf at beta = 0 and nan at 0 / 0 applied only when some beta
    is 0; complex-pair eigenvectors assembled from the real and imaginary
    columns; each column divided by its BLAS ``nrm2``. Skips scipy's
    argument validation and its per-call workspace query. Non-finite input
    and LAPACK failures raise ``DegenerateInput``.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DegenerateInput("GEP failed: pencil has non-finite entries")
    alphar, alphai, beta, _, vr, _, info = dggev(a, b, 0, 1, _ggev_lwork(a.shape[0]))
    if info != 0:
        raise DegenerateInput(f"GEP failed: dggev info={info}")
    alpha = alphar + 1j * alphai
    if beta.all():
        w = alpha / beta
    else:
        w = np.empty_like(alpha)
        alpha_zero = alpha == 0
        beta_zero = beta == 0
        w[~beta_zero] = alpha[~beta_zero] / beta[~beta_zero]
        w[~alpha_zero & beta_zero] = np.inf
        if np.all(alpha.imag == 0):
            w[alpha_zero & beta_zero] = np.nan
        else:
            w[alpha_zero & beta_zero] = complex(np.nan, np.nan)
    wi = w.imag.tolist()
    if any(wi):
        v = np.array(vr, dtype=w.dtype)
        n = len(wi)
        for i in range(n):
            if wi[i] > 0 or (i + 1 < n and wi[i + 1] < 0):
                v.imag[:, i] = vr[:, i + 1]
                np.conj(v[:, i], v[:, i + 1])
        vr = v
    if not np.isfinite(vr).all():  # scipy's norm rejects it
        raise DegenerateInput("GEP failed: non-finite eigenvectors")
    nrm2 = _NRM2[vr.dtype.type]
    vr /= [nrm2(col) for col in vr.T]
    return w, vr


@functools.cache
def _gelsd_args(m: int, n: int) -> tuple[int, int, float]:
    """dgelsd's workspace sizes for one right-hand side and numpy's rcond."""
    rcond = float(np.finfo(float).eps * max(m, n))
    work, iwork, _ = dgelsd_lwork(m, n, 1, rcond)
    return int(work), int(iwork), rcond


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(a, b, rcond=None)[0]`` for a 1-D b, bit for bit.

    One direct ``dgelsd`` call with numpy's default rcond and cached
    workspace sizes.
    """
    n = a.shape[1]
    x, _, _, info = dgelsd(a, b[:, None], *_gelsd_args(*a.shape))
    if info != 0:
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    return x[:n, 0]


def _complete_q(a: np.ndarray) -> np.ndarray:
    """``np.linalg.qr(a, mode="complete")[0]`` for a tall a, bit for bit.

    ``dgeqrf`` then ``dorgqr`` on the m x m matrix that holds the reflectors
    in its first columns, as numpy does; returned in numpy's C order.
    """
    m, n = a.shape
    qr, tau, _, info = dgeqrf(a)
    full = np.empty((m, m), order="F")
    full[:, :n] = qr
    q, _, info2 = dorgqr(full, tau, overwrite_a=1)
    if info or info2:
        raise np.linalg.LinAlgError("QR factorization failed")
    return np.ascontiguousarray(q)


def solve_gep_f_beta(
    corr: CorrSet, window: tuple[float, float] | None = None
) -> list[SolverCandidate]:
    """Fundamental matrix + time shift from 9 correspondences via a 6x6 GEP.

    The beta coefficient matrix has three identically-zero columns (the
    tangent has no homogeneous component), so the 9x9 pencil is compressed to
    a 6x6 problem with the same finite eigenvalues. The returned F is not
    rank-2 in general.

    With ``window = (lo, hi)`` only the candidates with lo <= beta <= hi are
    built and returned, in the same order as without it. A pencil with real
    eigenvalues, all outside the window, gives an empty list; one with none
    raises ``NoRealSolution`` either way.
    """
    if len(corr) != 9:
        raise ValueError(f"solve_gep_f_beta needs 9 correspondences, got {len(corr)}")
    ncorr, t1, t2 = _normalize_corr(corr)
    m1, m2 = build_f_pencil(ncorr)
    # columns 6..8 (third row of F) carry no beta term
    b3 = m1[:, 6:9]
    q2 = _complete_q(b3)[:, 3:]
    a6 = q2.T @ m1[:, :6]
    c6 = q2.T @ m2[:, :6]
    values, vectors = _ggev(a6, -c6)
    if not np.isfinite(values).any():
        raise DegenerateInput("pencil is singular for all beta")
    real = _split_real(values, vectors, window)
    # f6 is a unit eigenvector, so the F built below is nonzero and
    # ``_to_pixels`` rejects it only if the back-substitution overflows, far
    # beyond any window. A draw is therefore valid exactly when some eigenvalue
    # passes _split_real, and those outside the window need no model to decide.
    if not real and not _split_real(values, vectors):
        raise NoRealSolution("all generalized eigenvalues complex or infinite")
    found = []
    for beta, f6, leak in real:
        f3 = _lstsq(b3, -(m1[:, :6] + beta * m2[:, :6]) @ f6)
        found.append((beta, np.concatenate([f6, f3]).reshape(3, 3), leak))
    return _candidates(corr, _to_pixels(FUNDAMENTAL, t1, t2), found)


# ---------------------------------------------------------------------------
# minimal 8-point solver, hidden-variable polynomial in beta


# Chebyshev nodes on [-1, 1] at which det(F(beta)) is sampled
_CHEB_NODES = np.cos(np.pi * (np.arange(40) + 0.5) / 40)
# columns of the k-th 8x8 minor (column k deleted) and its cofactor sign
_MINOR_COLS = np.array([[c for c in range(9) if c != k] for k in range(9)])
_MINOR_SIGNS = np.array([(-1.0) ** k for k in range(9)])


def _stacked_minor_nullvectors(ms: np.ndarray) -> np.ndarray:
    """Nullspace of each 8x9 matrix in a (..., 8, 9) stack as its nine
    signed 8x8 minors.

    One gather builds all (..., 9, 8, 8) minors and one stacked ``det`` takes
    them; LAPACK factors each minor as it would alone, so the bits match.
    """
    sub = np.swapaxes(ms[..., _MINOR_COLS], -3, -2)
    return _MINOR_SIGNS * np.linalg.det(sub)


def solve_min_f_beta(corr: CorrSet) -> list[SolverCandidate]:
    """Minimal fundamental matrix + time shift from 8 correspondences.

    Hidden-variable technique: for fixed beta the 8 epipolar constraints are
    linear in F, with nullspace given by the signed 8x8 minors of the 8x9
    system, each a polynomial of degree <= 8 in beta. Substituting into
    det(F) = 0 yields a univariate polynomial of degree <= 24 whose real roots
    are candidate shifts. Coefficients are recovered by evaluation at 40
    Chebyshev nodes on [-BETA_SPAN, BETA_SPAN] and the roots by the companion
    (colleague) matrix.

    Each stage runs as one stacked LAPACK call per draw: the 40 x 9 minors
    in one ``det``, the 40 sampled determinants in another, and the
    nullspaces of all real roots in one ``svd``. Roots whose 8x9 system has
    rank below 8, whose F is not singular (|det F| > 1e-8) or whose
    residual exceeds ``RESIDUAL_TOL`` are dropped.
    """
    if len(corr) != 8:
        raise ValueError(f"solve_min_f_beta needs 8 correspondences, got {len(corr)}")
    ncorr, t1, t2 = _normalize_corr(corr)
    m1, m2 = build_f_pencil(ncorr)

    nodes = _CHEB_NODES * BETA_SPAN
    nullvecs = _stacked_minor_nullvectors(m1 + nodes[:, None, None] * m2)
    samples = np.linalg.det(nullvecs.reshape(-1, 3, 3))
    scale = np.max(np.abs(samples))
    if scale == 0 or not np.isfinite(scale):
        raise DegenerateInput("determinant polynomial vanished identically")
    coeffs = np.polynomial.chebyshev.chebfit(_CHEB_NODES, samples / scale, 24)
    coeffs = np.polynomial.chebyshev.chebtrim(coeffs, tol=1e-13)
    if len(coeffs) < 2:
        raise DegenerateInput("determinant polynomial is constant")
    roots = np.polynomial.chebyshev.chebroots(coeffs) * BETA_SPAN

    real = _split_real(roots)
    if not real:
        raise NoRealSolution("no real root of the determinant polynomial")
    betas = np.array([beta for beta, _, _ in real])
    _, sing, vt = np.linalg.svd(m1 + betas[:, None, None] * m2)
    # a root whose 8x9 system has rank below 8 has no unique nullspace
    found = [
        (beta, null.reshape(3, 3), leak)
        for (beta, _, leak), sv, null in zip(real, sing, vt[:, -1])
        if not sv[-1] < 1e-8 * sv[0]
    ]
    candidates = [
        c for c in _candidates(corr, _to_pixels(FUNDAMENTAL, t1, t2), found)
        if not (abs(np.linalg.det(c.model.m)) > 1e-8
                or c.algebraic_residual > RESIDUAL_TOL)
    ]
    if not candidates:
        raise NoRealSolution("no real root passed the residual filter")
    return candidates


# ---------------------------------------------------------------------------
# minimal homography solver, 5 correspondences


def solve_min_h_beta(corr: CorrSet) -> list[SolverCandidate]:
    """Homography + time shift from 5 correspondences (4.5-sample problem).

    Uses both independent rows of the skew-symmetric constraint for the first
    four samples and the first row for the fifth. The 3-dimensional nullspace
    of the 9x12 system is reduced, via the three monomial dependencies, to a
    3x3 eigenvalue problem with up to three real solutions.
    """
    if len(corr) != 5:
        raise ValueError(f"solve_min_h_beta needs 5 correspondences, got {len(corr)}")
    ncorr, t1, t2 = _normalize_corr(corr)
    # 12-monomial basis [h11..h33, beta*h31, beta*h32, beta*h33]: the third
    # component of u + beta v is 1, so beta only multiplies the third row of H
    rows = np.hstack(
        [_skew_rows(ncorr.s1, ncorr.u), _skew_rows(ncorr.s1, ncorr.v)[:, 6:]]
    )
    m = rows[:9]  # 9 x 12
    _, sing, vt = np.linalg.svd(m)
    if sing[8] < 1e-10 * sing[0]:
        raise DegenerateInput("nullspace dimension exceeds 3 (degenerate samples)")
    null = vt[-3:]  # rows n1, n2, n3
    n1, n2, n3 = null

    # constraints w[9+k] = beta * w[6+k], k = 0..2, in monomials
    # [beta*g1, beta*g2, beta, g1, g2, 1] with w = g1 n1 + g2 n2 + n3;
    # row k of p holds -n[6+k], row k of q holds n[9+k]
    p, q = -null[:, 6:9].T, null[:, 9:12].T
    try:
        action = -np.linalg.solve(p, q)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInput("quadratic system is rank-deficient") from exc
    values, vectors = np.linalg.eig(action)
    found = []
    for beta, vec, leak in _split_real(values, vectors):
        if abs(vec[2]) < 1e-10:
            continue
        g1, g2 = vec[0] / vec[2], vec[1] / vec[2]
        found.append((beta, (g1 * n1 + g2 * n2 + n3)[:9].reshape(3, 3), leak))
    candidates = _candidates(corr, _to_pixels(HOMOGRAPHY, t1, t2), found)
    if not candidates:
        raise NoRealSolution("all eigenvalues complex")
    return candidates


# ---------------------------------------------------------------------------
# classical baselines (no time shift; anchors used as camera-2 points)


def solve_7pt_f(corr: CorrSet) -> list[TwoViewModel]:
    """Classical seven-point fundamental matrix on the anchor correspondences."""
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
    to_pixels = _to_pixels(FUNDAMENTAL, t1, t2)
    models = []
    for x, _, _ in _split_real(roots):
        try:
            models.append(to_pixels(x * f1 + (1 - x) * f2))
        except ValueError:
            continue
    if not models:
        raise NoRealSolution("no real root of the cubic")
    return models


def _collinear_triple(points: np.ndarray, tol: float = 1e-9) -> bool:
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
                if area < tol * scale * scale:
                    return True
    return False


def solve_4pt_h(corr: CorrSet) -> TwoViewModel:
    """Classical DLT homography from 4 anchor correspondences."""
    if len(corr) != 4:
        raise ValueError(f"solve_4pt_h needs 4 correspondences, got {len(corr)}")
    if _collinear_triple(corr.s1[:, :2]) or _collinear_triple(corr.u[:, :2]):
        raise DegenerateInput("three collinear points in a 4-point homography sample")
    ncorr, t1, t2 = _normalize_corr(corr)
    _, _, vt = np.linalg.svd(_skew_rows(ncorr.s1, ncorr.u))
    return _to_pixels(HOMOGRAPHY, t1, t2)(vt[-1].reshape(3, 3))


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
    return _to_pixels(geometry, t1, t2)(vecs[:, 0].reshape(3, 3))


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
