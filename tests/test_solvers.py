"""Minimal solvers: joint geometry + time-shift, and classical baselines."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from camsync import (
    DegenerateInput,
    NoRealSolution,
    ImageSample,
    SceneSpec,
    Trajectory,
    TwoViewModel,
    generate_scene,
    model_distance,
    solve_4pt_h,
    solve_7pt_f,
    solve_gep_f_beta,
    solve_min_f_beta,
    solve_min_h_beta,
)
from camsync.geometry import FUNDAMENTAL, HOMOGRAPHY
from camsync.robust import build_correspondences
from camsync import solvers
from camsync.solvers import (
    CorrSet,
    _complete_q,
    _ggev,
    _lstsq,
    _normalize_corr,
    _split_real,
    _stacked_minor_nullvectors,
    build_f_pencil,
    normalizing_transform,
)

import reference_kernels as ref


def exact_corr(seed, beta_gt, d, n_pick, n_tracks=3, exact_model="F"):
    """Sample n_pick correspondences from exact constant-velocity image tracks.

    Picks cycle across tracks with spread frame indices: consecutive samples
    of a single track are collinear and make every minimal problem degenerate.
    """
    spec = SceneSpec(
        seed=seed,
        beta_gt=float(beta_gt),
        noise_sigma=0.0,
        motion="exact-linear",
        n_tracks=n_tracks,
        exact_model=exact_model,
        n_frames=60,
    )
    t1, t2, gt = generate_scene(spec)
    corr, keys = build_correspondences(t1, t2, 0.0, 1.0, d)
    by_track = {}
    for row, (track, _frame) in enumerate(keys):
        by_track.setdefault(track, []).append(row)
    tracks = sorted(by_track)
    counters = dict.fromkeys(tracks, 0)
    idx = []
    k = 0
    while len(idx) < n_pick:
        rows = by_track[tracks[k % len(tracks)]]
        idx.append(rows[counters[tracks[k % len(tracks)]] * 9 % len(rows)])
        counters[tracks[k % len(tracks)]] += 1
        k += 1
    return corr.take(np.array(idx)), gt


def best_beta_match(cands, beta_gt):
    return min(cands, key=lambda c: abs(c.beta - beta_gt))


def random_corrset(rng):
    """Nine correspondences with uniform random points and tangents."""
    return CorrSet(
        s1=np.column_stack([rng.uniform(0, 1000, (9, 2)), np.ones(9)]),
        u=np.column_stack([rng.uniform(0, 1000, (9, 2)), np.ones(9)]),
        v=np.column_stack([rng.uniform(-10, 10, (9, 2)), np.zeros(9)]),
    )


class TestGepFBeta:
    def test_synchronized_exact_data(self):
        corr, gt = exact_corr(seed=0, beta_gt=0.0, d=1, n_pick=9)
        cands = solve_gep_f_beta(corr)
        best = best_beta_match(cands, 0.0)
        assert abs(best.beta) < 1e-8
        assert best.algebraic_residual < 1e-10

    def test_shifted_exact_data_identifiable(self):
        for beta_gt, d in [(3.0, 1), (-2.0, 2), (4.0, 4)]:
            corr, gt = exact_corr(seed=1, beta_gt=beta_gt, d=d, n_pick=9)
            cands = solve_gep_f_beta(corr)
            best = best_beta_match(cands, beta_gt)
            assert abs(best.beta - beta_gt) < 1e-6
            assert model_distance(best.model, gt.f) < 1e-6

    def test_candidate_count_bounded_by_six(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            corr = random_corrset(rng)
            try:
                cands = solve_gep_f_beta(corr)
            except (DegenerateInput, NoRealSolution):
                continue
            assert len(cands) <= 6

    def test_second_pencil_matrix_rank_six(self):
        rng = np.random.default_rng(3)
        corr = random_corrset(rng)
        _, m2 = build_f_pencil(corr)
        assert np.linalg.matrix_rank(m2, tol=1e-8) == 6

    def test_raw_pencil_has_three_infinite_eigenvalues(self):
        # the uncompressed 9x9 pencil (M1 + beta M2) f = 0
        m1, m2 = build_f_pencil(random_corrset(np.random.default_rng(4)))
        vals = scipy.linalg.eig(m1, -m2, right=False)
        n_inf = np.sum(~np.isfinite(vals))
        assert n_inf >= 3

    def test_compressed_matches_raw_pencil(self):
        sub, _ = exact_corr(seed=5, beta_gt=2.0, d=1, n_pick=9)
        m1, m2 = build_f_pencil(_normalize_corr(sub)[0])
        raw = scipy.linalg.eig(m1, -m2, right=False)
        finite = np.sort(raw[np.isfinite(raw) & (np.abs(raw.imag) < 1e-6)].real)
        cands = solve_gep_f_beta(sub)
        betas = np.sort([c.beta for c in cands])
        # every reported beta appears among the raw pencil's finite eigenvalues
        for b in betas:
            assert np.min(np.abs(finite - b)) < 1e-6

    def test_beta_invariant_to_image_similarity(self):
        sub, _ = exact_corr(seed=6, beta_gt=3.0, d=1, n_pick=9)
        t_shift = np.array([123.0, -45.0])
        scale = 2.5
        moved = CorrSet(
            s1=np.column_stack(
                [scale * sub.s1[:, :2] + t_shift, np.ones(len(sub))]
            ),
            u=np.column_stack([scale * sub.u[:, :2] + t_shift, np.ones(len(sub))]),
            v=np.column_stack([scale * sub.v[:, :2], np.zeros(len(sub))]),
        )
        b0 = best_beta_match(solve_gep_f_beta(sub), 3.0).beta
        b1 = best_beta_match(solve_gep_f_beta(moved), 3.0).beta
        assert abs(b0 - b1) < 1e-9


# solver, sample size, scene model, |beta - beta_gt| and model-distance bounds
EXACT_SOLVERS = {
    "f-gep": (solve_gep_f_beta, 9, "F", 1e-7, 1e-6),
    "f-min": (solve_min_f_beta, 8, "F", 1e-5, 1e-4),
    "h-min": (solve_min_h_beta, 5, "H", 1e-7, 1e-6),
}


def exact_draw(kind, seed, beta_gt, d):
    solver, n, model, _, _ = EXACT_SOLVERS[kind]
    corr, gt = exact_corr(seed=seed, beta_gt=beta_gt, d=d, n_pick=n,
                          n_tracks=5 if model == "H" else 3, exact_model=model)
    return corr, gt.f if model == "F" else gt.h


class TestExactSceneProperties:
    """The joint solvers on exact-linear scenes, over seeds, shifts and d."""

    @pytest.mark.parametrize("kind", sorted(EXACT_SOLVERS))
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), beta_gt=st.floats(-6, 6), d=st.sampled_from([1, 2, 4]))
    def test_ground_truth_among_candidates(self, kind, seed, beta_gt, d):
        solver, _, _, beta_tol, model_tol = EXACT_SOLVERS[kind]
        corr, model_gt = exact_draw(kind, seed, beta_gt, d)
        best = best_beta_match(solver(corr), beta_gt)
        assert abs(best.beta - beta_gt) < beta_tol
        assert model_distance(best.model, model_gt) < model_tol

    @pytest.mark.parametrize("kind", sorted(EXACT_SOLVERS))
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000), beta_gt=st.floats(-6, 6), d=st.sampled_from([1, 2, 4]),
        angle=st.floats(0, 2 * np.pi), log_scale=st.floats(-1, 1),
        shift=st.tuples(st.floats(-500, 500), st.floats(-500, 500)),
    )
    def test_beta_invariant_to_image_similarity(
        self, kind, seed, beta_gt, d, angle, log_scale, shift
    ):
        solver, n, _, beta_tol, _ = EXACT_SOLVERS[kind]
        corr, _ = exact_draw(kind, seed, beta_gt, d)
        c, s = np.cos(angle), np.sin(angle)
        lin = 10.0**log_scale * np.array([[c, -s], [s, c]])
        moved = CorrSet(
            s1=np.column_stack([corr.s1[:, :2] @ lin.T + shift, np.ones(n)]),
            u=np.column_stack([corr.u[:, :2] @ lin.T + shift, np.ones(n)]),
            v=np.column_stack([corr.v[:, :2] @ lin.T, np.zeros(n)]),
        )
        b0 = best_beta_match(solver(corr), beta_gt).beta
        b1 = best_beta_match(solver(moved), beta_gt).beta
        assert abs(b1 - b0) < beta_tol


def candidate_bytes(cands):
    return [
        (np.float64(c.beta).tobytes(), c.model.m.tobytes(),
         np.float64(c.algebraic_residual).tobytes(), np.float64(c.imag_leak).tobytes())
        for c in cands
    ]


def pencil(seed, case):
    """A random 6x6 pencil (a, b) whose eigenvalues are of the given case."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(6, 6))
    if case == "real":
        x = rng.normal(size=(6, 6))
        a = b @ x @ np.diag(rng.uniform(-50, 50, 6)) @ np.linalg.inv(x)
    elif case == "complex":
        a = rng.normal(size=(6, 6))
    else:  # singular b: rank 4, so two eigenvalues are infinite
        b[:, 4:] = b[:, :2] @ rng.normal(size=(2, 2))
        a = rng.normal(size=(6, 6))
    return a, b


class TestDirectGgev:
    @pytest.mark.parametrize("case", ["real", "complex", "singular-b"])
    @pytest.mark.parametrize("seed", range(12))
    def test_bit_identical_to_scipy_eig(self, case, seed):
        a, b = pencil(seed, case)
        w_ref, v_ref = scipy.linalg.eig(a, b)
        w, v = _ggev(a, b)
        assert (w.dtype, v.dtype) == (w_ref.dtype, v_ref.dtype)
        assert w.tobytes() == w_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
        # each case is what its name says
        if case == "real":
            assert v.dtype == np.float64 and np.all(w.imag == 0)
        elif case == "complex":
            assert np.any(w.imag != 0)
        else:
            assert np.any(np.isinf(w))

    def test_gep_draws_bit_identical_to_scipy_eig(self, monkeypatch):
        rng = np.random.default_rng(20)
        subs = [random_corrset(rng) for _ in range(40)]

        def outcomes():
            out = []
            for sub in subs:
                try:
                    out.append(candidate_bytes(solve_gep_f_beta(sub)))
                except (DegenerateInput, NoRealSolution) as exc:
                    out.append(type(exc).__name__)
            return out

        direct = outcomes()
        monkeypatch.setattr(solvers, "_ggev", scipy.linalg.eig)
        assert outcomes() == direct

    @pytest.mark.parametrize("zero_alpha", [False, True])
    @pytest.mark.parametrize("with_pair", [False, True])
    def test_zero_beta_matches_scipy_eig(self, zero_alpha, with_pair):
        # block-diagonal pencils keep dggev's beta exactly 0 where b is
        a, b = np.zeros((6, 6)), np.zeros((6, 6))
        a[:2, :2] = [[0.5, -2.0], [2.0, 0.5]] if with_pair else np.diag([0.5, -2.0])
        b[:2, :2] = np.eye(2)
        a[2:, 2:] = np.diag([1.5, -2.0, 3.0, 0.0 if zero_alpha else 4.0])
        b[2:, 2:] = np.diag([1.0, 0.0, 2.0, 0.0])
        w_ref, v_ref = scipy.linalg.eig(a, b)
        w, v = _ggev(a, b)
        assert w.tobytes() == w_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
        assert np.isinf(w).sum() == (1 if zero_alpha else 2)
        assert np.isnan(w).any() == zero_alpha
        assert np.any(w.imag != 0) == with_pair

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_post_processing_matches_scipy_on_any_dggev_output(self, data):
        """Any alphai signs, zero betas and 0 / 0, fed to both post-processings."""
        n = 6
        floats = st.floats(-10, 10, allow_subnormal=False)
        alphar = np.array(data.draw(st.lists(floats, min_size=n, max_size=n)))
        alphai = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.5, -1.5, 0.25]),
                                             min_size=n, max_size=n)))
        beta = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]),
                                           min_size=n, max_size=n)))
        vr = np.asfortranarray(np.random.default_rng(data.draw(st.integers(0, 99))).normal(
            size=(n, n)))

        def fake_dggev(a, b, *args):
            return alphar.copy(), alphai.copy(), beta.copy(), None, vr.copy(), None, 0

        def outcome(fn):
            try:
                w, v = fn(np.eye(n), np.eye(n))
            except IndexError as exc:  # a pair that starts in the last column
                return type(exc).__name__
            return w.tobytes(), v.dtype, v.tobytes()

        with mock.patch.object(solvers, "dggev", fake_dggev), \
                mock.patch.object(ref, "dggev", fake_dggev):
            assert outcome(_ggev) == outcome(ref.ggev)

    @pytest.mark.parametrize("field", ["s1", "u", "v"])
    def test_nan_entry_is_degenerate_input(self, field):
        corr = random_corrset(np.random.default_rng(21))
        getattr(corr, field)[4, 1] = np.nan
        with pytest.raises(DegenerateInput):
            solve_gep_f_beta(corr)
        with pytest.raises(DegenerateInput):
            solve_gep_f_beta(corr, (-10.0, 10.0))


def tall_matrices(seed):
    """The QR's and lstsq's inputs: a draw's b3 block, and other tall shapes."""
    rng = np.random.default_rng(seed)
    m1, _ = build_f_pencil(_normalize_corr(random_corrset(rng))[0])
    dup = rng.normal(size=(9, 3))
    dup[:, 2] = dup[:, 0]
    zero = rng.normal(size=(9, 3)) * 1e3
    zero[:, 1] = 0.0
    # a singular value between eps and numpy's rcond, 9 eps: rank 2 to lstsq
    u, _ = np.linalg.qr(rng.normal(size=(9, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    near = u @ np.diag([1.0, 0.5, 5e-16]) @ v.T
    return [m1[:, 6:9], dup, zero, near, rng.normal(size=(7, 2)),
            rng.normal(size=(12, 5)) * 1e-3]


class TestDirectQr:
    @pytest.mark.parametrize("seed", range(10))
    def test_bit_identical_to_numpy_qr(self, seed):
        for a in tall_matrices(seed):
            want = np.linalg.qr(a, mode="complete")[0]
            got = _complete_q(a)
            assert got.flags.c_contiguous == want.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


class TestDirectLstsq:
    @pytest.mark.parametrize("seed", range(10))
    def test_bit_identical_to_numpy_lstsq(self, seed):
        rng = np.random.default_rng(100 + seed)
        for a in tall_matrices(seed):
            b = rng.normal(size=a.shape[0]) * 10.0 ** rng.uniform(-3, 3)
            want = np.linalg.lstsq(a, b, rcond=None)[0]
            assert _lstsq(a, b).tobytes() == want.tobytes()


class TestNormalizingTransform:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 4, 5, 8, 9, 17, 130, 2400]),
        log_scale=st.floats(-3, 3),
        offset=st.floats(-1e4, 1e4),
    )
    def test_bit_identical_to_mean_and_norm(self, seed, n, log_scale, offset):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1, 1, (2, n, 2)) * 10.0**log_scale + offset
        stacked = normalizing_transform(pts)
        for k in range(2):
            want = ref.normalizing_transform(pts[k]).tobytes()
            assert stacked[k].tobytes() == want
            assert normalizing_transform(pts[k]).tobytes() == want
        # the strided (n, 2) view of homogeneous rows that _normalize_corr takes
        rows = np.column_stack([pts[0], np.ones(n)])
        want = ref.normalizing_transform(rows[:, :2]).tobytes()
        assert normalizing_transform(rows[:, :2]).tobytes() == want

    def test_normalize_corr_bit_identical(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            corr = random_corrset(rng)
            got, want = _normalize_corr(corr), ref.normalize_corr(corr)
            for g, w in zip((got[0].s1, got[0].u, got[0].v, *got[1:]),
                            (want[0].s1, want[0].u, want[0].v, *want[1:])):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("which", [0, 1])
    def test_coincident_points_raise(self, which):
        pts = np.random.default_rng(31).uniform(0, 100, (2, 9, 2))
        pts[which] = [3.0, 4.0]
        with pytest.raises(DegenerateInput):
            normalizing_transform(pts)
        with pytest.raises(DegenerateInput):
            ref.normalizing_transform(pts[which])


def split_bytes(triples):
    return [
        (np.float64(beta).tobytes(), None if vec is None else vec.tobytes(),
         np.float64(leak).tobytes())
        for beta, vec, leak in triples
    ]


@st.composite
def eigen_systems(draw):
    """Values, their eigenvectors (or None) and a window, as the solvers make them.

    The pencils' vectors come from ``_ggev``; those of 3x3 matrices from
    ``np.linalg.eig``. A column can be zeroed, and a near-real conjugate pair
    of values and vectors can replace two.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = draw(st.sampled_from(["real", "complex", "singular-b", "eig3", "roots"]))
    if source == "eig3":
        values, vectors = np.linalg.eig(rng.normal(size=(3, 3)))
    elif source == "roots":
        values = rng.normal(size=12) * 20 + 1j * rng.normal(size=12) * 10.0 ** rng.integers(
            -12, 1, size=12
        )
        values[rng.integers(0, 12, size=3)] = [np.nan, np.inf, 2.0]
        vectors = None
    else:
        values, vectors = _ggev(*pencil(int(rng.integers(2**32)), source))
    n = values.shape[0]
    if vectors is not None:
        if draw(st.booleans()):
            vectors[:, int(rng.integers(n))] = 0.0
        if draw(st.booleans()):
            # imaginary parts that pass the value test, and vector ones that
            # pass or fail the leak test
            eps = 10.0 ** draw(st.sampled_from([-9, -7]))
            leak = 10.0 ** draw(st.sampled_from([-9, -5, -3]))
            k = int(rng.integers(n - 1))
            base = rng.normal(size=n) + 1j * leak * rng.normal(size=n)
            values = values.astype(complex)
            values[k:k + 2] = 1.5 + eps * 1j, 1.5 - eps * 1j
            vectors = vectors.astype(complex)
            vectors[:, k], vectors[:, k + 1] = base, np.conj(base)
    window = None
    if draw(st.booleans()):
        lo = draw(st.floats(-100, 100))
        window = (lo, lo + draw(st.floats(0, 200)))
    return values, vectors, window


class TestSplitReal:
    @settings(max_examples=300, deadline=None)
    @given(eigen_systems())
    def test_bit_identical_to_per_value_loop(self, case):
        values, vectors, window = case
        inside = np.ones(values.shape, bool)
        if window is not None:
            inside = (window[0] <= values.real) & (values.real <= window[1])
        want = ref.split_real(values[inside], None if vectors is None else vectors[:, inside])
        assert split_bytes(_split_real(values, vectors, window)) == split_bytes(want)


@st.composite
def gep_draw_and_window(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    corr = random_corrset(rng)
    center = draw(st.floats(-200, 200))
    half = draw(st.floats(0, 300))
    return corr, (center - half, center + half), draw(st.booleans())


class TestGepWindow:
    @settings(max_examples=150, deadline=None)
    @given(gep_draw_and_window())
    def test_window_returns_in_window_subsequence(self, case):
        corr, window, snap = case
        try:
            full = solve_gep_f_beta(corr)
        except (DegenerateInput, NoRealSolution) as exc:
            with pytest.raises(type(exc)):
                solve_gep_f_beta(corr, window)
            return
        if snap and full:
            # window edges exactly on candidate shifts: both ends are inclusive
            betas = sorted(c.beta for c in full)
            window = (betas[0], betas[len(betas) // 2])
        lo, hi = window
        inside = [c for c in full if lo <= c.beta <= hi]
        assert candidate_bytes(solve_gep_f_beta(corr, window)) == candidate_bytes(inside)

    @pytest.mark.parametrize("window", [None, (-1e9, 1e9), (0.0, 1.0)])
    def test_no_real_eigenvalue_raises_with_or_without_window(self, window):
        corr = random_corrset(np.random.default_rng(114))
        with pytest.raises(NoRealSolution):
            solve_gep_f_beta(corr, window)

    def test_valid_draw_with_no_shift_in_window_returns_empty(self):
        corr, _ = exact_corr(seed=1, beta_gt=3.0, d=1, n_pick=9)
        betas = [c.beta for c in solve_gep_f_beta(corr)]
        assert solve_gep_f_beta(corr, (max(betas) + 1.0, max(betas) + 2.0)) == []


class TestMinFBeta:
    def test_synchronized_exact_data(self):
        corr, gt = exact_corr(seed=10, beta_gt=0.0, d=1, n_pick=8)
        cands = solve_min_f_beta(corr)
        best = best_beta_match(cands, 0.0)
        assert abs(best.beta) < 1e-6
        # returned models satisfy the rank-2 constraint by construction
        assert abs(np.linalg.det(best.model.m)) < 1e-8

    def test_shifted_exact_data_identifiable(self):
        corr, gt = exact_corr(seed=11, beta_gt=1.0, d=1, n_pick=8)
        cands = solve_min_f_beta(corr)
        best = best_beta_match(cands, 1.0)
        assert abs(best.beta - 1.0) < 1e-5

    def test_candidate_count_bounded(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            corr = CorrSet(
                s1=np.column_stack([rng.uniform(0, 1000, (8, 2)), np.ones(8)]),
                u=np.column_stack([rng.uniform(0, 1000, (8, 2)), np.ones(8)]),
                v=np.column_stack([rng.uniform(-10, 10, (8, 2)), np.zeros(8)]),
            )
            try:
                cands = solve_min_f_beta(corr)
            except DegenerateInput:
                continue
            assert len(cands) <= 16

    def test_candidates_sorted_by_residual(self):
        corr, _ = exact_corr(seed=13, beta_gt=2.0, d=2, n_pick=8)
        cands = solve_min_f_beta(corr)
        residuals = [c.algebraic_residual for c in cands]
        assert residuals == sorted(residuals)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        beta_span=st.sampled_from([1.0, 16.0, 40.0]),
        repeat_row=st.booleans(),
    )
    def test_stacked_minors_bit_identical_to_scalar(self, seed, beta_span, repeat_row):
        rng = np.random.default_rng(seed)
        m1 = rng.normal(size=(8, 9)) * 10.0 ** rng.uniform(-3, 3, size=(8, 1))
        m2 = rng.normal(size=(8, 9))
        if repeat_row:  # every minor singular
            m1[1], m2[1] = m1[0], m2[0]
        nodes = solvers._CHEB_NODES * beta_span
        got = _stacked_minor_nullvectors(m1 + nodes[:, None, None] * m2)
        want = np.stack([ref.minor_nullvector(m1 + b * m2) for b in nodes])
        assert got.shape == (40, 9)
        assert got.tobytes() == want.tobytes()

    def test_no_real_root_raises_no_real_solution(self, monkeypatch):
        corr, _ = exact_corr(seed=11, beta_gt=1.0, d=1, n_pick=8)
        monkeypatch.setattr(
            np.polynomial.chebyshev, "chebroots", lambda c: np.array([0.5 + 1j, 0.5 - 1j])
        )
        with pytest.raises(NoRealSolution):
            solve_min_f_beta(corr)

    def test_rank_deficient_root_rejected(self, monkeypatch):
        corr, _ = exact_corr(seed=11, beta_gt=1.0, d=1, n_pick=8)
        # rows 6 and 7 share s and meet at u + beta v for beta = 0.25 only
        s1, u, v = corr.s1.copy(), corr.u.copy(), corr.v.copy()
        beta = 0.25
        s1[7] = s1[6]
        v[7, :2] = v[6, :2] + [3.0, -2.0]
        u[7] = u[6] + beta * (v[6] - v[7])
        corr = CorrSet(s1, u, v)
        ncorr, _, _ = _normalize_corr(corr)
        m1, m2 = build_f_pencil(ncorr)
        sing = np.linalg.svd(m1 + beta * m2, compute_uv=False)
        assert sing[-1] < 1e-8 * sing[0]
        monkeypatch.setattr(
            np.polynomial.chebyshev, "chebroots", lambda c: np.array([beta / 16.0])
        )
        made, normalized = [], TwoViewModel.normalized
        monkeypatch.setattr(
            TwoViewModel, "normalized", staticmethod(lambda *a: made.append(a) or normalized(*a))
        )
        with pytest.raises(NoRealSolution):
            solve_min_f_beta(corr)
        assert made == []  # dropped before any model was formed

    def test_nonsingular_f_rejected(self, monkeypatch):
        # unit-scale coordinates, so that a full-rank F has a sizeable det
        rng = np.random.default_rng(1)
        corr = CorrSet(
            s1=np.column_stack([rng.uniform(-1, 1, (8, 2)), np.ones(8)]),
            u=np.column_stack([rng.uniform(-1, 1, (8, 2)), np.ones(8)]),
            v=np.column_stack([rng.uniform(-0.1, 0.1, (8, 2)), np.zeros(8)]),
        )
        beta = 0.3  # not a root: the unique nullvector is a full-rank F
        ncorr, t1, t2 = _normalize_corr(corr)
        m1, m2 = build_f_pencil(ncorr)
        _, sing, vt = np.linalg.svd(m1 + beta * m2)
        assert sing[-1] >= 1e-8 * sing[0]
        f = TwoViewModel.normalized(FUNDAMENTAL, t2.T @ vt[-1].reshape(3, 3) @ t1)
        assert abs(np.linalg.det(f.m)) > 1e-8
        assert solvers._f_residual(corr, beta, f.m) < 1e-6
        monkeypatch.setattr(
            np.polynomial.chebyshev, "chebroots", lambda c: np.array([beta / 16.0])
        )
        with pytest.raises(NoRealSolution):
            solve_min_f_beta(corr)


class TestMinHBeta:
    def test_synchronized_planar_exact(self):
        corr, gt = exact_corr(
            seed=20, beta_gt=0.0, d=1, n_pick=5, n_tracks=5, exact_model="H"
        )
        cands = solve_min_h_beta(corr)
        best = best_beta_match(cands, 0.0)
        assert abs(best.beta) < 1e-8
        assert model_distance(best.model, gt.h) < 1e-8

    def test_shifted_planar_exact(self):
        corr, gt = exact_corr(
            seed=21, beta_gt=2.0, d=4, n_pick=5, n_tracks=5, exact_model="H"
        )
        cands = solve_min_h_beta(corr)
        best = best_beta_match(cands, 2.0)
        assert abs(best.beta - 2.0) < 1e-6
        assert model_distance(best.model, gt.h) < 1e-6

    def test_real_solution_count_bounded_by_three(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            corr = CorrSet(
                s1=np.column_stack([rng.uniform(0, 1000, (5, 2)), np.ones(5)]),
                u=np.column_stack([rng.uniform(0, 1000, (5, 2)), np.ones(5)]),
                v=np.column_stack([rng.uniform(-10, 10, (5, 2)), np.zeros(5)]),
            )
            try:
                cands = solve_min_h_beta(corr)
            except DegenerateInput:
                continue
            assert len(cands) <= 3


class TestSevenPointF:
    def test_synchronized_exact_data(self):
        corr, gt = exact_corr(seed=30, beta_gt=0.0, d=1, n_pick=7)
        models = solve_7pt_f(corr)
        best = min(models, key=lambda m: model_distance(m, gt.f))
        assert model_distance(best, gt.f) < 1e-6

    def test_root_count_one_or_three(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            corr = CorrSet(
                s1=np.column_stack([rng.uniform(0, 1000, (7, 2)), np.ones(7)]),
                u=np.column_stack([rng.uniform(0, 1000, (7, 2)), np.ones(7)]),
                v=np.zeros((7, 3)),
            )
            try:
                models = solve_7pt_f(corr)
            except DegenerateInput:
                continue
            assert len(models) in (1, 3)
            for m in models:
                assert abs(np.linalg.det(m.m)) < 1e-8


class TestFourPointH:
    def test_identity_data(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        corr = CorrSet(
            s1=np.column_stack([pts, np.ones(4)]),
            u=np.column_stack([pts, np.ones(4)]),
            v=np.zeros((4, 3)),
        )
        h = solve_4pt_h(corr)
        assert model_distance(h, TwoViewModel.normalized(HOMOGRAPHY, np.eye(3))) < 1e-10

    def test_unit_square_to_quadrilateral_oracle(self):
        src = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        dst = np.array([[10.0, 20.0], [110.0, 15.0], [130.0, 140.0], [5.0, 120.0]])
        # independent 8x8 elimination with h33 pinned to 1
        a = np.zeros((8, 8))
        b = np.zeros(8)
        for k, ((x, y), (xp, yp)) in enumerate(zip(src, dst)):
            a[2 * k] = [x, y, 1, 0, 0, 0, -xp * x, -xp * y]
            b[2 * k] = xp
            a[2 * k + 1] = [0, 0, 0, x, y, 1, -yp * x, -yp * y]
            b[2 * k + 1] = yp
        h_ref = np.append(np.linalg.solve(a, b), 1.0).reshape(3, 3)
        corr = CorrSet(
            s1=np.column_stack([src, np.ones(4)]),
            u=np.column_stack([dst, np.ones(4)]),
            v=np.zeros((4, 3)),
        )
        h = solve_4pt_h(corr)
        assert model_distance(h, TwoViewModel.normalized(HOMOGRAPHY, h_ref)) < 1e-9

    def test_collinear_points_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 1.0]])
        corr = CorrSet(
            s1=np.column_stack([pts, np.ones(4)]),
            u=np.column_stack([pts + 1.0, np.ones(4)]),
            v=np.zeros((4, 3)),
        )
        with pytest.raises(DegenerateInput):
            solve_4pt_h(corr)

    def test_planar_exact_scene(self):
        corr, gt = exact_corr(
            seed=32, beta_gt=0.0, d=1, n_pick=4, n_tracks=4, exact_model="H"
        )
        h = solve_4pt_h(corr)
        assert model_distance(h, gt.h) < 1e-8


class TestBacksubstitution:
    def test_f_solvers_satisfy_their_constraints(self):
        for solver, size in ((solve_gep_f_beta, 9), (solve_min_f_beta, 8)):
            sub, _ = exact_corr(seed=40, beta_gt=2.0, d=2, n_pick=size)
            checked = 0
            for cand in solver(sub):
                if cand.algebraic_residual > 1e-8:
                    continue
                pred = sub.u + cand.beta * sub.v
                res = np.abs(np.einsum("ij,jk,ik->i", pred, cand.model.m, sub.s1))
                scale = np.linalg.norm(pred, axis=1) * np.linalg.norm(sub.s1, axis=1)
                assert np.max(res / scale) < 1e-6
                checked += 1
            assert checked >= 1

    def test_h_solver_satisfies_its_constraints(self):
        corr, _ = exact_corr(
            seed=41, beta_gt=1.0, d=2, n_pick=5, n_tracks=5, exact_model="H"
        )
        checked = 0
        for cand in solve_min_h_beta(corr):
            if cand.algebraic_residual > 1e-8:
                continue
            pred = corr.u + cand.beta * corr.v
            mapped = corr.s1 @ cand.model.m.T
            cross = np.cross(pred, mapped)
            scale = np.linalg.norm(pred, axis=1) * np.linalg.norm(mapped, axis=1)
            assert np.max(np.linalg.norm(cross, axis=1) / scale) < 1e-6
            checked += 1
        assert checked >= 1
