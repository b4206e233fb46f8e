"""The straightforward numpy forms of the solver and scoring kernels.

``camsync`` computes these same results with fewer numpy calls: direct
LAPACK calls, reductions written out, scalar tests on Python floats. The
functions here are the plain forms it must match bit for bit. Each one is
the code the package ran before those rewrites, calling ``np.mean``,
``np.linalg.norm``, ``np.linalg.qr``, ``np.linalg.lstsq``,
``scipy.linalg.eig``'s post-processing and ``np.einsum`` directly, so a test
can hold the two side by side, or patch ``camsync.robust``'s bindings with
these and compare whole RANSAC runs. Every solver and refit here maps its
normalized-coordinate matrix back to pixels on its own line, as each did
before ``camsync.solvers`` gave them one shared mapping and candidate step.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dggev

from camsync import solvers
from camsync.errors import DegenerateInput, NoRealSolution
from camsync.geometry import FUNDAMENTAL, HOMOGRAPHY, TwoViewModel, transfer_distances
from camsync.robust import solver_kind
from camsync.solvers import (
    BETA_SPAN,
    IMAG_TOL,
    RESIDUAL_TOL,
    CorrSet,
    SolverCandidate,
    _collinear_triple,
    _ggev_lwork,
    _h_residual,
    _kron_rows,
    _skew_rows,
    _stacked_minor_nullvectors,
    build_f_pencil,
)


def normalized_model(kind: str, m: np.ndarray) -> TwoViewModel:
    """``TwoViewModel.normalized``."""
    m = np.asarray(m, dtype=float)
    n = np.linalg.norm(m)
    if n == 0 or not np.isfinite(n):
        raise ValueError("model matrix must be nonzero and finite")
    m = m / n
    flat = m.ravel()
    if flat[np.argmax(np.abs(flat))] < 0:
        m = -m
    return TwoViewModel(kind=kind, m=m)


def normalizing_transform(points: np.ndarray) -> np.ndarray:
    c = points.mean(axis=0)
    scale = np.linalg.norm(points - c, axis=1).mean()
    if scale < 1e-12:
        raise DegenerateInput("coincident points, cannot normalize")
    s = np.sqrt(2.0) / scale
    return np.array([[s, 0.0, -s * c[0]], [0.0, s, -s * c[1]], [0.0, 0.0, 1.0]])


def normalize_corr(corr: CorrSet) -> tuple[CorrSet, np.ndarray, np.ndarray]:
    t1 = normalizing_transform(corr.s1[:, :2])
    t2 = normalizing_transform(corr.u[:, :2])
    return (
        CorrSet(corr.s1 @ t1.T, corr.u @ t2.T, corr.v @ t2.T),
        t1,
        t2,
    )


def split_real(values, vectors=None):
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


def f_residual(corr: CorrSet, beta: float, f: np.ndarray) -> float:
    a = corr.u + beta * corr.v
    num = np.abs(np.einsum("ij,jk,ik->i", a, f, corr.s1))
    den = np.linalg.norm(a, axis=1) * np.linalg.norm(corr.s1, axis=1)
    return float(np.max(num / np.maximum(den, 1e-12)))


_NRM2 = {
    dt: scipy.linalg.get_blas_funcs("nrm2", dtype=dt, ilp64="preferred")
    for dt in (np.float64, np.complex128)
}


def ggev(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.eig(a, b)``'s post-processing, one mask at a time."""
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
    if not np.isfinite(vr).all():
        raise DegenerateInput("GEP failed: non-finite eigenvectors")
    nrm2 = _NRM2[vr.dtype.type]
    for i in range(vr.shape[1]):
        vr[:, i] /= nrm2(vr[:, i])
    return w, vr


def solve_gep_f_beta(corr: CorrSet, window=None) -> list[SolverCandidate]:
    if len(corr) != 9:
        raise ValueError(f"solve_gep_f_beta needs 9 correspondences, got {len(corr)}")
    ncorr, t1, t2 = normalize_corr(corr)
    m1, m2 = build_f_pencil(ncorr)
    b3 = m1[:, 6:9]
    q, _ = np.linalg.qr(b3, mode="complete")
    q2 = q[:, 3:]
    a6 = q2.T @ m1[:, :6]
    c6 = q2.T @ m2[:, :6]
    values, vectors = ggev(a6, -c6)
    if not np.any(np.isfinite(values)):
        raise DegenerateInput("pencil is singular for all beta")
    lo, hi = (-np.inf, np.inf) if window is None else window
    inside = (lo <= values.real) & (values.real <= hi)
    real = split_real(values[inside], vectors[:, inside])
    if not real and not split_real(values[~inside], vectors[:, ~inside]):
        raise NoRealSolution("all generalized eigenvalues complex or infinite")
    candidates = []
    for beta, f6, leak in real:
        rhs = -(m1[:, :6] + beta * m2[:, :6]) @ f6
        f3, *_ = np.linalg.lstsq(b3, rhs, rcond=None)
        fmat_n = np.concatenate([f6, f3]).reshape(3, 3)
        fmat = t2.T @ fmat_n @ t1
        try:
            model = normalized_model(FUNDAMENTAL, fmat)
        except ValueError:
            continue
        res = f_residual(corr, beta, model.m)
        candidates.append(
            SolverCandidate(beta=beta, model=model, algebraic_residual=res, imag_leak=leak)
        )
    candidates.sort(key=lambda c: c.algebraic_residual)
    return candidates


def minor_nullvector(m: np.ndarray) -> np.ndarray:
    """Nullspace of an 8x9 matrix as its nine signed 8x8 minors: one matrix
    of ``solvers._stacked_minor_nullvectors``'s stack."""
    sub = np.stack([np.delete(m, k, axis=1) for k in range(9)])
    dets = np.linalg.det(sub)
    signs = np.array([(-1.0) ** k for k in range(9)])
    return signs * dets


def solve_min_f_beta(corr: CorrSet) -> list[SolverCandidate]:
    if len(corr) != 8:
        raise ValueError(f"solve_min_f_beta needs 8 correspondences, got {len(corr)}")
    ncorr, t1, t2 = normalize_corr(corr)
    m1, m2 = build_f_pencil(ncorr)
    nodes = solvers._CHEB_NODES * BETA_SPAN
    nullvecs = _stacked_minor_nullvectors(m1 + nodes[:, None, None] * m2)
    samples = np.linalg.det(nullvecs.reshape(-1, 3, 3))
    scale = np.max(np.abs(samples))
    if scale == 0 or not np.isfinite(scale):
        raise DegenerateInput("determinant polynomial vanished identically")
    coeffs = np.polynomial.chebyshev.chebfit(nodes / BETA_SPAN, samples / scale, 24)
    coeffs = np.polynomial.chebyshev.chebtrim(coeffs, tol=1e-13)
    if len(coeffs) < 2:
        raise DegenerateInput("determinant polynomial is constant")
    roots = np.polynomial.chebyshev.chebroots(coeffs) * BETA_SPAN
    real = split_real(roots)
    if not real:
        raise NoRealSolution("no real root of the determinant polynomial")
    betas = np.array([beta for beta, _, _ in real])
    _, sing, vt = np.linalg.svd(m1 + betas[:, None, None] * m2)
    candidates = []
    for (beta, _, leak), sv, null in zip(real, sing, vt[:, -1]):
        if sv[-1] < 1e-8 * sv[0]:
            continue
        fmat = t2.T @ null.reshape(3, 3) @ t1
        try:
            model = normalized_model(FUNDAMENTAL, fmat)
        except ValueError:
            continue
        if abs(np.linalg.det(model.m)) > 1e-8:
            continue
        res = f_residual(corr, beta, model.m)
        if res > RESIDUAL_TOL:
            continue
        candidates.append(
            SolverCandidate(beta=beta, model=model, algebraic_residual=res, imag_leak=leak)
        )
    if not candidates:
        raise NoRealSolution("no real root passed the residual filter")
    candidates.sort(key=lambda c: c.algebraic_residual)
    return candidates


def solve_min_h_beta(corr: CorrSet) -> list[SolverCandidate]:
    if len(corr) != 5:
        raise ValueError(f"solve_min_h_beta needs 5 correspondences, got {len(corr)}")
    ncorr, t1, t2 = normalize_corr(corr)
    rows = np.hstack(
        [_skew_rows(ncorr.s1, ncorr.u), _skew_rows(ncorr.s1, ncorr.v)[:, 6:]]
    )
    m = rows[[0, 1, 2, 3, 4, 5, 6, 7, 8]]
    _, sing, vt = np.linalg.svd(m)
    if sing[8] < 1e-10 * sing[0]:
        raise DegenerateInput("nullspace dimension exceeds 3 (degenerate samples)")
    null = vt[-3:]
    n1, n2, n3 = null
    p, q = -null[:, 6:9].T, null[:, 9:12].T
    try:
        action = -np.linalg.solve(p, q)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInput("quadratic system is rank-deficient") from exc
    values, vectors = np.linalg.eig(action)
    t2_inv = np.linalg.inv(t2)
    candidates = []
    for beta, vec, leak in split_real(values, vectors):
        if abs(vec[2]) < 1e-10:
            continue
        g1, g2 = vec[0] / vec[2], vec[1] / vec[2]
        w = g1 * n1 + g2 * n2 + n3
        hmat = t2_inv @ w[:9].reshape(3, 3) @ t1
        try:
            model = normalized_model(HOMOGRAPHY, hmat)
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


def solve_7pt_f(corr: CorrSet) -> list[TwoViewModel]:
    if len(corr) != 7:
        raise ValueError(f"solve_7pt_f needs 7 correspondences, got {len(corr)}")
    ncorr, t1, t2 = normalize_corr(corr)
    m = _kron_rows(ncorr.u, ncorr.s1)
    _, sing, vt = np.linalg.svd(m)
    if sing[6] < 1e-12 * sing[0]:
        raise DegenerateInput("coefficient matrix rank below 7")
    f1 = vt[-1].reshape(3, 3)
    f2 = vt[-2].reshape(3, 3)
    xs = np.array([0.0, 1.0, 2.0, -1.0])
    ys = np.array([np.linalg.det(x * f1 + (1 - x) * f2) for x in xs])
    poly = np.polynomial.polynomial.polyfit(xs, ys, 3)
    poly = np.polynomial.polynomial.polytrim(poly, tol=1e-14 * max(1.0, np.abs(ys).max()))
    if len(poly) < 2:
        raise DegenerateInput("determinant polynomial is constant")
    roots = np.polynomial.polynomial.polyroots(poly)
    models = []
    for x, _, _ in split_real(roots):
        fmat = t2.T @ (x * f1 + (1 - x) * f2) @ t1
        try:
            models.append(normalized_model(FUNDAMENTAL, fmat))
        except ValueError:
            continue
    if not models:
        raise NoRealSolution("no real root of the cubic")
    return models


def solve_4pt_h(corr: CorrSet) -> TwoViewModel:
    if len(corr) != 4:
        raise ValueError(f"solve_4pt_h needs 4 correspondences, got {len(corr)}")
    if _collinear_triple(corr.s1[:, :2]) or _collinear_triple(corr.u[:, :2]):
        raise DegenerateInput("three collinear points in a 4-point homography sample")
    ncorr, t1, t2 = normalize_corr(corr)
    _, _, vt = np.linalg.svd(_skew_rows(ncorr.s1, ncorr.u))
    hmat = np.linalg.inv(t2) @ vt[-1].reshape(3, 3) @ t1
    return normalized_model(HOMOGRAPHY, hmat)


def fit_model_at_beta(geometry: str, sub: CorrSet, beta: float) -> TwoViewModel:
    sub_n, t1, t2 = normalize_corr(sub)
    pred = sub_n.u + beta * sub_n.v
    if geometry == FUNDAMENTAL:
        rows = _kron_rows(pred, sub_n.s1)
        _, vecs = np.linalg.eigh(rows.T @ rows)
        return normalized_model(FUNDAMENTAL, t2.T @ vecs[:, 0].reshape(3, 3) @ t1)
    rows = _skew_rows(sub_n.s1, pred)
    _, vecs = np.linalg.eigh(rows.T @ rows)
    hn = vecs[:, 0].reshape(3, 3)
    return normalized_model(HOMOGRAPHY, np.linalg.inv(t2) @ hn @ t1)


def fit_beta_at_model(geometry: str, sub: CorrSet, model: TwoViewModel) -> float:
    if geometry == FUNDAMENTAL:
        a = np.einsum("ij,ij->i", sub.u @ model.m, sub.s1)
        b = np.einsum("ij,ij->i", sub.v @ model.m, sub.s1)
        denom = float(b @ b)
        if denom < 1e-18:
            raise DegenerateInput("shift unobservable on this consensus set")
        return float(-(a @ b) / denom)
    hx = sub.s1 @ model.m.T
    if np.any(np.abs(hx[:, 2]) < 1e-12):
        raise DegenerateInput("mapped point at infinity")
    hx = hx[:, :2] / hx[:, 2:3]
    diff = (hx - sub.u[:, :2]).ravel()
    v2 = sub.v[:, :2].ravel()
    denom = float(v2 @ v2)
    if denom < 1e-18:
        raise DegenerateInput("shift unobservable on this consensus set")
    return float((v2 @ diff) / denom)


def sampson_distances(f: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    e = np.einsum("ij,jk,ik->i", x2, f, x1)
    l2 = x1 @ f.T
    l1 = x2 @ f
    g2 = l2[:, 0] ** 2 + l2[:, 1] ** 2 + l1[:, 0] ** 2 + l1[:, 1] ** 2
    out = np.full(e.shape, np.inf)
    ok = g2 > 0
    out[ok] = np.abs(e[ok]) / np.sqrt(g2[ok])
    out[e == 0] = 0.0
    return out


def score_candidate(kind, cand, corr, threshold):
    pred = corr.u + cand.beta * corr.v
    if solver_kind(kind).geometry == FUNDAMENTAL:
        res = sampson_distances(cand.model.m, corr.s1, pred)
    else:
        res = transfer_distances(cand.model.m, corr.s1, pred)
    mask = res <= threshold
    return mask, float(res[mask].sum())


# camsync.robust's bindings of the rewritten kernels and their plain forms
ROBUST_BINDINGS = {
    "solve_gep_f_beta": solve_gep_f_beta,
    "solve_min_f_beta": solve_min_f_beta,
    "solve_min_h_beta": solve_min_h_beta,
    "solve_7pt_f": solve_7pt_f,
    "solve_4pt_h": solve_4pt_h,
    "score_candidate": score_candidate,
    "fit_model_at_beta": fit_model_at_beta,
    "fit_beta_at_model": fit_beta_at_model,
}
