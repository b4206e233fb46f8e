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

Inputs are conditioned with isotropic (Hartley-style) normalization of each
image before the eigenproblems are formed; models are denormalized afterwards.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dggev

from .errors import DegenerateInput, NoRealSolution
from .geometry import FUNDAMENTAL, HOMOGRAPHY, TwoViewModel

# eigenvalues with |imag| <= IMAG_TOL * (1 + |real|) are accepted as real
IMAG_TOL = 1e-6
RANK_TOL = 1e-10


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
    """Isotropic transform moving the centroid to the origin, mean norm sqrt(2)."""
    c = points.mean(axis=0)
    scale = np.linalg.norm(points - c, axis=1).mean()
    if scale < 1e-12:
        raise DegenerateInput("coincident points, cannot normalize")
    s = np.sqrt(2.0) / scale
    return np.array([[s, 0.0, -s * c[0]], [0.0, s, -s * c[1]], [0.0, 0.0, 1.0]])


def _normalize_corr(corr: CorrSet) -> tuple[CorrSet, np.ndarray, np.ndarray]:
    t1 = normalizing_transform(corr.s1[:, :2])
    t2 = normalizing_transform(corr.u[:, :2])
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


def _split_real(values, vectors=None):
    """Filter near-real finite eigenvalues; returns (beta, vec, imag_leak) triples."""
    out = []
    for i, lam in enumerate(np.atleast_1d(values)):
        if not np.isfinite(lam):
            continue
        if abs(lam.imag) > IMAG_TOL * (1.0 + abs(lam.real)):
            continue
        vec = None
        leak = abs(lam.imag)
        if vectors is not None:
            vraw = vectors[:, i]
            # rotate the global phase away before measuring the imaginary leak
            phase = vraw[np.argmax(np.abs(vraw))]
            if abs(phase) > 0:
                vraw = vraw * (np.conj(phase) / abs(phase))
            nrm = np.linalg.norm(vraw)
            if nrm == 0:
                continue
            leak = max(leak, float(np.linalg.norm(vraw.imag) / nrm))
            if leak > 1e-4:
                continue
            vec = vraw.real
        out.append((float(lam.real), vec, leak))
    return out


def _f_residual(corr: CorrSet, beta: float, f: np.ndarray) -> float:
    """Max normalized epipolar residual |(u + beta v)^T F s| over the set."""
    a = corr.u + beta * corr.v
    num = np.abs(np.einsum("ij,jk,ik->i", a, f, corr.s1))
    den = np.linalg.norm(a, axis=1) * np.linalg.norm(corr.s1, axis=1)
    return float(np.max(num / np.maximum(den, 1e-12)))


def _h_residual(corr: CorrSet, beta: float, h: np.ndarray) -> float:
    """Max normalized cross-product residual of H s ~ (u + beta v)."""
    a = corr.u + beta * corr.v
    hs = corr.s1 @ h.T
    cross = np.cross(a, hs)
    num = np.linalg.norm(cross, axis=1)
    den = np.linalg.norm(a, axis=1) * np.linalg.norm(hs, axis=1)
    return float(np.max(num / np.maximum(den, 1e-12)))


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
    post-processing: ``alpha / beta`` with inf for beta = 0 and nan for
    0 / 0, complex-pair eigenvectors assembled from the real and imaginary
    columns, and each column divided by its BLAS ``nrm2``. Skips scipy's
    argument validation and its per-call workspace query. Non-finite input
    and LAPACK failures raise ``DegenerateInput``.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DegenerateInput("GEP failed: pencil has non-finite entries")
    alphar, alphai, beta, _, vr, _, info = dggev(a, b, 0, 1, _ggev_lwork(a.shape[0]))
    if info != 0:
        raise DegenerateInput(f"GEP failed: dggev info={info}")
    alpha = alphar + 1j * alphai
    w = np.empty_like(alpha)
    alpha_zero = alpha == 0
    beta_zero = beta == 0
    w[~beta_zero] = alpha[~beta_zero] / beta[~beta_zero]
    w[~alpha_zero & beta_zero] = np.inf
    if np.all(alpha.imag == 0):
        w[alpha_zero & beta_zero] = np.nan
    else:
        w[alpha_zero & beta_zero] = complex(np.nan, np.nan)
    if not np.all(w.imag == 0.0):
        v = np.array(vr, dtype=w.dtype)
        pair = w.imag > 0
        pair[:-1] |= w.imag[1:] < 0
        for i in np.flatnonzero(pair):
            v.imag[:, i] = vr[:, i + 1]
            np.conj(v[:, i], v[:, i + 1])
        vr = v
    if not np.isfinite(vr).all():  # scipy's norm rejects it
        raise DegenerateInput("GEP failed: non-finite eigenvectors")
    nrm2 = _NRM2[vr.dtype.type]
    for i in range(vr.shape[1]):
        vr[:, i] /= nrm2(vr[:, i])
    return w, vr


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
    q, _ = np.linalg.qr(b3, mode="complete")
    q2 = q[:, 3:]
    a6 = q2.T @ m1[:, :6]
    c6 = q2.T @ m2[:, :6]
    values, vectors = _ggev(a6, -c6)
    if not np.any(np.isfinite(values)):
        raise DegenerateInput("pencil is singular for all beta")
    lo, hi = (-np.inf, np.inf) if window is None else window
    inside = (lo <= values.real) & (values.real <= hi)
    real = _split_real(values[inside], vectors[:, inside])
    # f6 is a unit eigenvector, so fmat below is nonzero and ``normalized``
    # rejects it only if the back-substitution overflows, far beyond any
    # window. A draw is therefore valid exactly when some eigenvalue passes
    # _split_real, and those outside the window need no model to decide it.
    if not real and not _split_real(values[~inside], vectors[:, ~inside]):
        raise NoRealSolution("all generalized eigenvalues complex or infinite")
    candidates = []
    for beta, f6, leak in real:
        rhs = -(m1[:, :6] + beta * m2[:, :6]) @ f6
        f3, *_ = np.linalg.lstsq(b3, rhs, rcond=None)
        fmat_n = np.concatenate([f6, f3]).reshape(3, 3)
        fmat = t2.T @ fmat_n @ t1
        try:
            model = TwoViewModel.normalized(FUNDAMENTAL, fmat)
        except ValueError:
            continue
        res = _f_residual(corr, beta, model.m)
        candidates.append(
            SolverCandidate(beta=beta, model=model, algebraic_residual=res, imag_leak=leak)
        )
    candidates.sort(key=lambda c: c.algebraic_residual)
    return candidates


def raw_pencil_eigenvalues(corr: CorrSet) -> np.ndarray:
    """Eigenvalues of the uncompressed 9x9 pencil (diagnostics and tests)."""
    ncorr, _, _ = _normalize_corr(corr)
    m1, m2 = build_f_pencil(ncorr)
    return scipy.linalg.eig(m1, -m2, right=False)


# ---------------------------------------------------------------------------
# minimal 8-point solver, hidden-variable polynomial in beta


def _minor_nullvector(m: np.ndarray) -> np.ndarray:
    """Nullspace of an 8x9 matrix as its nine signed 8x8 minors.

    Scalar reference of ``_stacked_minor_nullvectors``, kept for the tests.
    """
    sub = np.stack([np.delete(m, k, axis=1) for k in range(9)])
    dets = np.linalg.det(sub)
    signs = np.array([(-1.0) ** k for k in range(9)])
    return signs * dets


# Chebyshev nodes on [-1, 1] at which det(F(beta)) is sampled
_CHEB_NODES = np.cos(np.pi * (np.arange(40) + 0.5) / 40)
# columns of the k-th 8x8 minor (column k deleted) and its cofactor sign
_MINOR_COLS = np.array([[c for c in range(9) if c != k] for k in range(9)])
_MINOR_SIGNS = np.array([(-1.0) ** k for k in range(9)])


def _stacked_minor_nullvectors(ms: np.ndarray) -> np.ndarray:
    """``_minor_nullvector`` of each 8x9 matrix in a (..., 8, 9) stack.

    One gather builds all (..., 9, 8, 8) minors and one stacked ``det`` takes
    them; LAPACK factors each minor as it would alone, so the bits match.
    """
    sub = np.swapaxes(ms[..., _MINOR_COLS], -3, -2)
    return _MINOR_SIGNS * np.linalg.det(sub)


def solve_min_f_beta(
    corr: CorrSet, beta_span: float = 16.0, residual_tol: float = 1e-6
) -> list[SolverCandidate]:
    """Minimal fundamental matrix + time shift from 8 correspondences.

    Hidden-variable technique: for fixed beta the 8 epipolar constraints are
    linear in F, with nullspace given by the signed 8x8 minors of the 8x9
    system, each a polynomial of degree <= 8 in beta. Substituting into
    det(F) = 0 yields a univariate polynomial of degree <= 24 whose real roots
    are candidate shifts. Coefficients are recovered by evaluation at 40
    Chebyshev nodes on [-beta_span, beta_span] and the roots by the companion
    (colleague) matrix.

    Each stage runs as one stacked LAPACK call per draw: the 40 x 9 minors
    in one ``det``, the 40 sampled determinants in another, and the
    nullspaces of all real roots in one ``svd``. Roots whose 8x9 system has
    rank below 8, whose F is not singular (|det F| > 1e-8) or whose
    residual exceeds ``residual_tol`` are dropped.
    """
    if len(corr) != 8:
        raise ValueError(f"solve_min_f_beta needs 8 correspondences, got {len(corr)}")
    ncorr, t1, t2 = _normalize_corr(corr)
    m1, m2 = build_f_pencil(ncorr)

    nodes = _CHEB_NODES * beta_span
    nullvecs = _stacked_minor_nullvectors(m1 + nodes[:, None, None] * m2)
    samples = np.linalg.det(nullvecs.reshape(-1, 3, 3))
    scale = np.max(np.abs(samples))
    if scale == 0 or not np.isfinite(scale):
        raise DegenerateInput("determinant polynomial vanished identically")
    coeffs = np.polynomial.chebyshev.chebfit(nodes / beta_span, samples / scale, 24)
    coeffs = np.polynomial.chebyshev.chebtrim(coeffs, tol=1e-13)
    if len(coeffs) < 2:
        raise DegenerateInput("determinant polynomial is constant")
    roots = np.polynomial.chebyshev.chebroots(coeffs) * beta_span

    real = _split_real(roots)
    if not real:
        raise NoRealSolution("no real root of the determinant polynomial")
    betas = np.array([beta for beta, _, _ in real])
    _, sing, vt = np.linalg.svd(m1 + betas[:, None, None] * m2)
    candidates = []
    for (beta, _, leak), sv, null in zip(real, sing, vt[:, -1]):
        if sv[-1] < 1e-8 * sv[0]:
            continue  # rank below 8: nullspace not unique, spurious root
        fmat = t2.T @ null.reshape(3, 3) @ t1
        try:
            model = TwoViewModel.normalized(FUNDAMENTAL, fmat)
        except ValueError:
            continue
        if abs(np.linalg.det(model.m)) > 1e-8:
            continue
        res = _f_residual(corr, beta, model.m)
        if res > residual_tol:
            continue
        candidates.append(
            SolverCandidate(beta=beta, model=model, algebraic_residual=res, imag_leak=leak)
        )
    if not candidates:
        raise NoRealSolution("no real root passed the residual filter")
    candidates.sort(key=lambda c: c.algebraic_residual)
    return candidates


# ---------------------------------------------------------------------------
# minimal homography solver, 5 correspondences


def solve_min_h_beta(corr: CorrSet, fifth_row: int = 0) -> list[SolverCandidate]:
    """Homography + time shift from 5 correspondences (4.5-sample problem).

    Uses both independent rows of the skew-symmetric constraint for the first
    four samples and one row (``fifth_row`` in {0, 1}) for the fifth. The
    3-dimensional nullspace of the 9x12 system is reduced, via the three
    monomial dependencies, to a 3x3 eigenvalue problem with up to three real
    solutions.
    """
    if len(corr) != 5:
        raise ValueError(f"solve_min_h_beta needs 5 correspondences, got {len(corr)}")
    if fifth_row not in (0, 1):
        raise ValueError("fifth_row must be 0 or 1")
    ncorr, t1, t2 = _normalize_corr(corr)
    # 12-monomial basis [h11..h33, beta*h31, beta*h32, beta*h33]: the third
    # component of u + beta v is 1, so beta only multiplies the third row of H
    rows = np.hstack(
        [_skew_rows(ncorr.s1, ncorr.u), _skew_rows(ncorr.s1, ncorr.v)[:, 6:]]
    )
    m = rows[[0, 1, 2, 3, 4, 5, 6, 7, 8 + fifth_row]]  # 9 x 12
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
    t2_inv = np.linalg.inv(t2)
    candidates = []
    for beta, vec, leak in _split_real(values, vectors):
        if abs(vec[2]) < 1e-10:
            continue
        g1, g2 = vec[0] / vec[2], vec[1] / vec[2]
        w = g1 * n1 + g2 * n2 + n3
        hmat = t2_inv @ w[:9].reshape(3, 3) @ t1
        try:
            model = TwoViewModel.normalized(HOMOGRAPHY, hmat)
        except ValueError:
            continue
        res = _h_residual(corr, beta, model.m)
        candidates.append(
            SolverCandidate(beta=beta, model=model, algebraic_residual=res, imag_leak=leak)
        )
    if not candidates:
        raise NoRealSolution("all eigenvalues complex")
    candidates.sort(key=lambda c: c.algebraic_residual)
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
    models = []
    for x, _, _ in _split_real(roots):
        fmat = t2.T @ (x * f1 + (1 - x) * f2) @ t1
        try:
            models.append(TwoViewModel.normalized(FUNDAMENTAL, fmat))
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
    hmat = np.linalg.inv(t2) @ vt[-1].reshape(3, 3) @ t1
    return TwoViewModel.normalized(HOMOGRAPHY, hmat)
