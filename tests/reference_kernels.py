"""The straightforward numpy forms of the solver and scoring kernels.

``camsync`` computes these same results with fewer numpy calls: direct
LAPACK calls, reductions written out, scalar tests on Python floats. The
functions here are the plain forms it must match bit for bit. Each one is
the code the package ran before those rewrites, calling ``np.mean``,
``np.linalg.norm``, ``np.linalg.qr``, ``scipy.linalg.solve_triangular``,
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
from camsync.errors import DegenerateInput, NoRealSolution, SingularModel
from camsync.geometry import FUNDAMENTAL, HOMOGRAPHY, TwoViewModel
from camsync.robust import solver_kind
from camsync.solvers import (
    BETA_SPAN,
    IMAG_TOL,
    CorrSet,
    SolverCandidate,
    _collinear_triple,
    _ggev_lwork,
    _kron_rows,
    _skew_rows,
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


def model_distance(a: TwoViewModel, b: TwoViewModel) -> float:
    """Frobenius distance of two models, each sign- and scale-normalized.

    Not a kernel: the tests' measure of how far an estimate lies from the
    truth.
    """
    return float(np.linalg.norm(a.m - b.m))


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


def build_f_pencil(corr: CorrSet) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient matrices of (M1 + beta M2) f = 0 with f = vec(F) row-major."""
    return _kron_rows(corr.u, corr.s1), _kron_rows(corr.v, corr.s1)


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
        out.append((float(lam.real), vec))
    return out


def f_residual(corr: CorrSet, beta: float, f: np.ndarray) -> float:
    """Max normalized epipolar residual |(u + beta v)^T F s| over the set."""
    a = corr.u + beta * corr.v
    num = np.abs(np.einsum("ij,jk,ik->i", a, f, corr.s1))
    den = np.linalg.norm(a, axis=1) * np.linalg.norm(corr.s1, axis=1)
    return float(np.max(num / np.maximum(den, 1e-12)))


def h_residual(corr: CorrSet, beta: float, h: np.ndarray) -> float:
    """Max normalized cross-product residual of H s ~ (u + beta v)."""
    a = corr.u + beta * corr.v
    hs = corr.s1 @ h.T
    num = np.linalg.norm(np.cross(a, hs), axis=1)
    den = np.linalg.norm(a, axis=1) * np.linalg.norm(hs, axis=1)
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


def gep_real(values, vectors, window=None):
    """The real eigenpairs f-gep keeps in ``window`` of ``scipy.linalg.eig``'s
    output; NoRealSolution when it keeps none anywhere."""
    if not np.any(np.isfinite(values)):
        raise DegenerateInput("pencil is singular for all beta")
    lo, hi = (-np.inf, np.inf) if window is None else window
    inside = (lo <= values.real) & (values.real <= hi)
    real = split_real(values[inside], vectors[:, inside])
    if not real and not split_real(values[~inside], vectors[:, ~inside]):
        raise NoRealSolution("all generalized eigenvalues complex or infinite")
    return real


def compress_f(corr: CorrSet):
    """One sample's compressed F system, as ``solvers.prepare_f_draws`` gives
    it for each sample of a block: the lower pencil rows a and c, g with
    R f3 = -(g[:, :6] + beta g[:, 6:]) f6, and the normalizing transforms."""
    ncorr, t1, t2 = normalize_corr(corr)
    m1, m2 = build_f_pencil(ncorr)
    q, r = np.linalg.qr(m1[:, 6:9], mode="complete")
    a = q.T @ m1[:, :6]
    c = q.T @ m2[:, :6]
    try:
        g = scipy.linalg.solve_triangular(r[:3], np.hstack([a[:3], c[:3]]))
    except np.linalg.LinAlgError as exc:
        raise DegenerateInput("camera-1 points collinear, R is singular") from exc
    return a[3:], c[3:], g, t1, t2


def solve_gep_f_beta(corr: CorrSet, window=None) -> list[SolverCandidate]:
    if len(corr) != 9:
        raise ValueError(f"solve_gep_f_beta needs 9 correspondences, got {len(corr)}")
    a6, c6, g, t1, t2 = compress_f(corr)
    ga, gc = g[:, :6], g[:, 6:]
    candidates = []
    for beta, f6 in gep_real(*ggev(a6, -c6), window):
        f3 = -(f6 @ ga.T + beta * (f6 @ gc.T))
        fmat_n = np.concatenate([f6, f3]).reshape(3, 3)
        fmat = t2.T @ fmat_n @ t1
        try:
            model = normalized_model(FUNDAMENTAL, fmat)
        except ValueError:
            continue
        candidates.append(SolverCandidate(beta=beta, model=model))
    return candidates


def solve_min_f_beta(corr: CorrSet, window=None) -> list[SolverCandidate]:
    if len(corr) != 8:
        raise ValueError(f"solve_min_f_beta needs 8 correspondences, got {len(corr)}")
    a5, c5, g, t1, t2 = compress_f(corr)
    ga, gc = g[:, :6], g[:, 6:]
    lo, hi = (-BETA_SPAN, BETA_SPAN) if window is None else window
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if not 0 < half < np.inf:
        mid, half = (mid if np.isfinite(mid) else 0.0), BETA_SPAN
    nodes = mid + half * solvers._NODES
    signs = np.array([(-1.0) ** k for k in range(6)])
    f6 = []
    for beta in nodes:
        pencil = a5 + beta * c5
        f6.append(signs * np.linalg.det(np.stack([np.delete(pencil, k, axis=1) for k in range(6)])))
    f6 = np.array(f6)
    f3 = -(f6 @ ga.T + nodes[:, None] * (f6 @ gc.T))
    samples = np.linalg.det(np.concatenate([f6, f3], axis=1).reshape(-1, 3, 3))
    scale = np.max(np.abs(samples))
    if scale == 0 or not np.isfinite(scale):
        raise DegenerateInput("determinant polynomial vanished identically")
    coeffs = np.polynomial.chebyshev.chebtrim(solvers._NODES_TO_CHEB @ (samples / scale), tol=1e-13)
    roots = mid + half * np.polynomial.chebyshev.chebroots(coeffs)
    if window is None:
        inside = np.ones(roots.shape, bool)
    else:
        inside = (window[0] <= roots.real) & (roots.real <= window[1])
    real = split_real(roots[inside])
    if not real and not split_real(roots[~inside]):
        raise NoRealSolution("no real root of the determinant polynomial")
    betas = np.array([beta for beta, _ in real])
    _, sing, vt = np.linalg.svd(a5 + betas[:, None, None] * c5)
    f6 = vt[:, -1]
    # stacked as in camsync: a one-row matmul calls gemv, not gemm
    f3 = -(f6 @ ga.T + betas[:, None] * (f6 @ gc.T))
    candidates = []
    for (beta, _), sv, f6_r, f3_r in zip(real, sing, f6, f3):
        if sv[-1] < 1e-8 * sv[0]:
            continue
        fmat = t2.T @ np.concatenate([f6_r, f3_r]).reshape(3, 3) @ t1
        try:
            model = normalized_model(FUNDAMENTAL, fmat)
        except ValueError:
            continue
        candidates.append(SolverCandidate(beta=beta, model=model))
    return candidates


def in_window(candidates, window):
    if window is None:
        return candidates
    return [c for c in candidates if window[0] <= c.beta <= window[1]]


def solve_min_h_beta(corr: CorrSet, window=None) -> list[SolverCandidate]:
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
    for beta, vec in split_real(values, vectors):
        if abs(vec[2]) < 1e-10:
            continue
        g1, g2 = vec[0] / vec[2], vec[1] / vec[2]
        w = g1 * n1 + g2 * n2 + n3
        hmat = t2_inv @ w[:9].reshape(3, 3) @ t1
        try:
            model = normalized_model(HOMOGRAPHY, hmat)
        except ValueError:
            continue
        candidates.append(SolverCandidate(beta=beta, model=model))
    if not candidates:
        raise NoRealSolution("all eigenvalues complex")
    return in_window(candidates, window)


def solve_7pt_f(corr: CorrSet, window=None) -> list[SolverCandidate]:
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
    candidates = []
    for x, _ in split_real(roots):
        fmat = t2.T @ (x * f1 + (1 - x) * f2) @ t1
        try:
            model = normalized_model(FUNDAMENTAL, fmat)
        except ValueError:
            continue
        candidates.append(SolverCandidate(beta=0.0, model=model))
    if not candidates:
        raise NoRealSolution("no real root of the cubic")
    return in_window(candidates, window)


def solve_4pt_h(corr: CorrSet, window=None) -> list[SolverCandidate]:
    if len(corr) != 4:
        raise ValueError(f"solve_4pt_h needs 4 correspondences, got {len(corr)}")
    if _collinear_triple(corr.s1[:, :2]) or _collinear_triple(corr.u[:, :2]):
        raise DegenerateInput("three collinear points in a 4-point homography sample")
    ncorr, t1, t2 = normalize_corr(corr)
    _, _, vt = np.linalg.svd(_skew_rows(ncorr.s1, ncorr.u))
    hmat = np.linalg.inv(t2) @ vt[-1].reshape(3, 3) @ t1
    model = normalized_model(HOMOGRAPHY, hmat)
    return in_window([SolverCandidate(beta=0.0, model=model)], window)


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


def transfer_distances(h: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    det = np.linalg.det(h)
    if abs(det) < 1e-14:
        raise SingularModel(f"homography is singular (det={det:.3e})")
    hinv = np.linalg.inv(h)
    fwd = x1 @ h.T
    bwd = x2 @ hinv.T
    out = np.full(x1.shape[0], np.inf)
    ok = (np.abs(fwd[:, 2]) > 1e-14) & (np.abs(bwd[:, 2]) > 1e-14)
    fw = fwd[ok, :2] / fwd[ok, 2:3]
    bw = bwd[ok, :2] / bwd[ok, 2:3]
    p1 = x1[ok, :2] / x1[ok, 2:3]
    p2 = x2[ok, :2] / x2[ok, 2:3]
    out[ok] = 0.5 * (
        np.linalg.norm(fw - p2, axis=1) + np.linalg.norm(bw - p1, axis=1)
    )
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
