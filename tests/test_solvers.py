"""Minimal solvers: joint geometry + time-shift, and classical baselines."""

import math
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
    solve_4pt_h,
    solve_7pt_f,
    solve_gep_f_beta,
    solve_min_f_beta,
    solve_min_h_beta,
)
from camsync.geometry import FUNDAMENTAL, HOMOGRAPHY
from camsync.robust import SOLVER_KINDS, build_correspondences
from camsync import robust, solvers
from camsync.solvers import (
    CorrSet,
    _gep_real,
    _normalize_corr,
    _normalizing_transforms,
    _skew_rows,
    _split_real,
    fit_model_at_beta,
    prepare_f_draws,
    prepare_h_draws,
)

import reference_kernels as ref
from reference_kernels import model_distance


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
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        window=st.sampled_from([None, (-40.0, 40.0), (-2.0, 2.0)]),
    )
    def test_bit_identical_to_reference(self, seed, window):
        """The direct QR, dggev and one-row dtrtrs back-substitution give the
        bytes of ``np.linalg.qr``, ``scipy.linalg.eig`` and
        ``scipy.linalg.solve_triangular``."""
        corr = random_corrset(np.random.default_rng(seed))

        def run(solver):
            try:
                return candidate_bytes(solver(corr, window))
            except (DegenerateInput, NoRealSolution) as exc:
                return type(exc).__name__, str(exc)

        assert run(solve_gep_f_beta) == run(ref.solve_gep_f_beta)

    def test_synchronized_exact_data(self):
        corr, gt = exact_corr(seed=0, beta_gt=0.0, d=1, n_pick=9)
        cands = solve_gep_f_beta(corr)
        best = best_beta_match(cands, 0.0)
        assert abs(best.beta) < 1e-8
        assert ref.f_residual(corr, best.beta, best.model.m) < 1e-10

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
        _, m2 = ref.build_f_pencil(corr)
        assert np.linalg.matrix_rank(m2, tol=1e-8) == 6

    def test_raw_pencil_has_three_infinite_eigenvalues(self):
        # the uncompressed 9x9 pencil (M1 + beta M2) f = 0
        m1, m2 = ref.build_f_pencil(random_corrset(np.random.default_rng(4)))
        vals = scipy.linalg.eig(m1, -m2, right=False)
        n_inf = np.sum(~np.isfinite(vals))
        assert n_inf >= 3

    def test_compressed_matches_raw_pencil(self):
        sub, _ = exact_corr(seed=5, beta_gt=2.0, d=1, n_pick=9)
        m1, m2 = ref.build_f_pencil(_normalize_corr(sub)[0])
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

    @pytest.mark.parametrize("kind", sorted(EXACT_SOLVERS))
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000), beta_gt=st.floats(-6, 6), d=st.sampled_from([1, 2, 4]),
        delta=st.one_of(st.integers(-1000, 1000), st.floats(-1000, 1000)),
    )
    def test_beta_equivariant_to_anchor_shift(self, kind, seed, beta_gt, d, delta):
        # anchors u + delta v are the rows built delta frames further on: the
        # matching candidate's shift moves from beta to beta - delta, its
        # model stays
        solver, _, _, beta_tol, model_tol = EXACT_SOLVERS[kind]
        corr, _ = exact_draw(kind, seed, beta_gt, d)
        moved = CorrSet(corr.s1, corr.u + delta * corr.v, corr.v)
        if kind == "f-min":  # the window RANSAC gives it at d = 1, moved along
            lo, hi = beta_gt - 10.0, beta_gt + 10.0
            c0, c1 = solver(corr, (lo, hi)), solver(moved, (lo - delta, hi - delta))
        else:
            c0, c1 = solver(corr), solver(moved)
        b0 = best_beta_match(c0, beta_gt)
        b1 = best_beta_match(c1, beta_gt - delta)
        assert abs(b1.beta - (b0.beta - delta)) < beta_tol
        assert model_distance(b1.model, b0.model) < model_tol


def candidate_bytes(cands):
    return [
        (np.float64(c.beta).tobytes(), c.model.m.tobytes())
        for c in cands
    ]


def solved(solve, corr, window):
    """The solver's candidates, or the DegenerateInput or NoRealSolution it raised."""
    try:
        return solve(corr, window)
    except (DegenerateInput, NoRealSolution) as exc:
        return exc


class TestSolverContract:
    """Every kind's solver, looked up as RANSAC looks it up, takes a window
    and returns only the candidates inside it."""

    @pytest.mark.parametrize("kind", sorted(SOLVER_KINDS))
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000), beta_gt=st.one_of(st.just(0.0), st.floats(-6, 6)),
        d=st.sampled_from([1, 2, 4]),
        # reach below and above beta_gt; (0, 0) is the zero-width window
        reach=st.one_of(st.none(), st.just((0.0, 0.0)),
                        st.tuples(st.floats(0, 20), st.floats(0, 20))),
        coincident=st.booleans(),
    )
    def test_returns_only_in_window_candidates(
        self, kind, seed, beta_gt, d, reach, coincident
    ):
        spec = SOLVER_KINDS[kind]
        solve = getattr(robust, spec.solver)
        exact_model = "F" if spec.geometry == FUNDAMENTAL else "H"
        corr, _ = exact_corr(seed=seed, beta_gt=beta_gt, d=d, n_pick=spec.sample_size,
                             n_tracks=3 if exact_model == "F" else 5,
                             exact_model=exact_model)
        if coincident:  # every camera-1 point the same: each kind raises DegenerateInput
            corr = CorrSet(np.repeat(corr.s1[:1], len(corr), axis=0), corr.u, corr.v)
        window = None if reach is None else (beta_gt - reach[0], beta_gt + reach[1])
        lo, hi = (-math.inf, math.inf) if window is None else window
        got = solved(solve, corr, window)
        if kind != "f-min":  # f-min samples det F(beta) on the window it is given
            full = solved(solve, corr, None)
            if isinstance(full, Exception) or isinstance(got, Exception):
                assert (type(got), str(got)) == (type(full), str(full))
                return
            inside = [c for c in full if lo <= c.beta <= hi]
            assert candidate_bytes(got) == candidate_bytes(inside)
        elif isinstance(got, Exception):
            return
        for cand in got:
            assert isinstance(cand, solvers.SolverCandidate)
            assert lo <= cand.beta <= hi
            if not spec.estimates_beta:
                assert repr(cand.beta) == "0.0"


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


def kept(gep_real, a, b, window):
    """The pairs f-gep's eigen step keeps, as bytes, or the class of its error."""
    try:
        return split_bytes(gep_real(a, b, window))
    except (DegenerateInput, NoRealSolution, IndexError) as exc:
        return type(exc).__name__


def scipy_kept(a, b, window):
    """f-gep's eigen step as ``scipy.linalg.eig`` and the reference filter."""
    return ref.gep_real(*scipy.linalg.eig(a, b), window)


def reference_kept(a, b, window):
    """f-gep's eigen step as the reference ``ggev`` and filter."""
    return ref.gep_real(*ref.ggev(a, b), window)


# windows of RANSAC's default d = 1 and d = 4, and one far from every value
GEP_WINDOWS = [None, (-10.0, 10.0), (-40.0, 40.0), (1e9, 1e9 + 1.0)]


class TestDirectGgev:
    @pytest.mark.parametrize("case", ["real", "complex", "singular-b"])
    @pytest.mark.parametrize("seed", range(12))
    def test_bit_identical_to_scipy_eig(self, case, seed):
        """The fused eigen step keeps scipy's pairs, and the reference ggev is
        scipy.linalg.eig."""
        a, b = pencil(seed, case)
        w_ref, v_ref = scipy.linalg.eig(a, b)
        w, v = ref.ggev(a, b)
        assert (w.dtype, v.dtype) == (w_ref.dtype, v_ref.dtype)
        assert w.tobytes() == w_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
        for window in GEP_WINDOWS:
            assert kept(_gep_real, a, b, window) == kept(scipy_kept, a, b, window)
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

        def outcomes(solve):
            out = []
            for sub in subs:
                for window in GEP_WINDOWS:
                    try:
                        out.append(candidate_bytes(solve(sub, window)))
                    except (DegenerateInput, NoRealSolution) as exc:
                        out.append(type(exc).__name__)
            return out

        direct = outcomes(solve_gep_f_beta)
        # the last window holds no value: it gives [] where a value is real
        assert all(c == [] or isinstance(c, str) for c in direct[3::4])
        assert [] in direct[3::4]
        assert any(c and not isinstance(c, str) for c in direct[1::4])
        monkeypatch.setattr(ref, "ggev", scipy.linalg.eig)
        assert outcomes(ref.solve_gep_f_beta) == direct

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
        w, v = ref.ggev(a, b)
        assert w.tobytes() == w_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
        assert np.isinf(w).sum() == (1 if zero_alpha else 2)
        assert np.isnan(w).any() == zero_alpha
        assert np.any(w.imag != 0) == with_pair
        for window in GEP_WINDOWS + [(1.0, 2.0)]:
            assert kept(_gep_real, a, b, window) == kept(scipy_kept, a, b, window)
        assert kept(_gep_real, a, b, None) != []

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_post_processing_matches_scipy_on_any_dggev_output(self, data):
        """Any alphai signs, zero betas and 0 / 0, fed to the fused eigen step
        and to the reference ggev and filter, in any window."""
        n = 6
        floats = st.floats(-10, 10, allow_subnormal=False)
        alphar = np.array(data.draw(st.lists(floats, min_size=n, max_size=n)))
        alphai = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1.5, -1.5, 0.25, 1e-9, -1e-9]), min_size=n, max_size=n)))
        beta = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]),
                                           min_size=n, max_size=n)))
        # columns scaled to 1e-9 make imaginary parts that pass the leak test,
        # so the kept vectors show where each assembled column came from
        scale = np.array(data.draw(st.lists(st.sampled_from([1.0, 1e-9]),
                                            min_size=n, max_size=n)))
        vr = np.asfortranarray(np.random.default_rng(data.draw(st.integers(0, 99))).normal(
            size=(n, n)) * scale)
        window = data.draw(st.none() | st.tuples(st.floats(-25, 25), st.floats(0, 30)).map(
            lambda c: (c[0], c[0] + c[1])))

        def fake_dggev(a, b, *args):
            return alphar.copy(), alphai.copy(), beta.copy(), None, vr.copy(), None, 0

        with mock.patch.object(solvers, "dggev", fake_dggev), \
                mock.patch.object(ref, "dggev", fake_dggev):
            eye = np.eye(n)
            assert kept(_gep_real, eye, eye, window) == kept(reference_kept, eye, eye, window)

    @pytest.mark.parametrize("field", ["s1", "u", "v"])
    def test_nan_entry_is_degenerate_input(self, field):
        corr = random_corrset(np.random.default_rng(21))
        getattr(corr, field)[4, 1] = np.nan
        with pytest.raises(DegenerateInput):
            solve_gep_f_beta(corr)
        with pytest.raises(DegenerateInput):
            solve_gep_f_beta(corr, (-10.0, 10.0))


def tall_matrices(seed, rows):
    """The QR's inputs, rows x 3: a sample's third-row columns, and ones with
    two equal columns, a zero column or numerical rank 2."""
    rng = np.random.default_rng(seed)
    corr = random_corrset(rng).take(np.arange(rows))
    m1, _ = ref.build_f_pencil(_normalize_corr(corr)[0])
    dup = rng.normal(size=(rows, 3))
    dup[:, 2] = dup[:, 0]
    zero = rng.normal(size=(rows, 3)) * 1e3
    zero[:, 1] = 0.0
    # numerically rank 2: one singular value of 5e-16
    u, _ = np.linalg.qr(rng.normal(size=(rows, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    near = u @ np.diag([1.0, 0.5, 5e-16]) @ v.T
    return [m1[:, 6:9], dup, zero, near]


class TestStackedQr:
    """``prepare_f_draws`` takes one ``np.linalg.qr`` of a block's stacked
    third-row columns; each matrix's factors are those of its own QR."""

    @pytest.mark.parametrize("seed", range(10))
    def test_bit_identical_to_per_matrix_qr(self, seed):
        for rows in (9, 8):
            block = np.stack(tall_matrices(seed, rows))
            q, r = np.linalg.qr(block, mode="complete")
            for k, a in enumerate(block):
                want_q, want_r = np.linalg.qr(a, mode="complete")
                assert q[k].tobytes() == want_q.tobytes()
                assert r[k].tobytes() == want_r.tobytes()


def f_sample(rng, rows, kind="random"):
    """``rows`` random correspondences; with ``kind`` "coincident" or
    "coincident-u" the camera-1 or camera-2 points coincide, and with
    "collinear" the camera-1 points lie on one image row."""
    corr = random_corrset(rng).take(np.arange(rows))
    if kind == "coincident":
        corr.s1[:, :2] = [3.0, 4.0]
    elif kind == "coincident-u":
        corr.u[:, :2] = [3.0, 4.0]
    elif kind == "collinear":
        corr.s1[:, 1] = 500.0
    return corr


def prepare_block(samples, prepare=prepare_f_draws):
    return prepare(*(np.stack([getattr(c, f) for c in samples]) for f in ("s1", "u", "v")))


class TestPrepareFDraws:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.sampled_from([9, 8]),
        kinds=st.lists(
            st.sampled_from(["random", "random", "coincident", "coincident-u", "collinear"]),
            min_size=1, max_size=8,
        ),
    )
    def test_bit_identical_to_per_sample_reference(self, seed, rows, kinds):
        """A block's stacked normalization, pencils, QR and compression give
        each sample the bytes of ``normalize_corr``, ``np.linalg.qr`` and
        ``scipy.linalg.solve_triangular`` run on that sample alone."""
        rng = np.random.default_rng(seed)
        samples = [f_sample(rng, rows, kind) for kind in kinds]
        for draw, corr in zip(prepare_block(samples), samples):
            for f in ("s1", "u", "v"):
                assert getattr(draw, f).tobytes() == getattr(corr, f).tobytes()
            try:
                want = [x.tobytes() for x in ref.compress_f(corr)]
            except DegenerateInput as exc:
                want = str(exc)
            if draw.error is None:
                got = [x.tobytes() for x in (draw.a, draw.c, draw.g, draw.t1, draw.t2)]
            else:
                assert type(draw.error) is DegenerateInput
                got = str(draw.error)
            assert got == want

    @pytest.mark.parametrize(
        "solver, rows", [(solve_gep_f_beta, 9), (solve_min_f_beta, 8)], ids=["f-gep", "f-min"]
    )
    def test_degenerate_samples_fail_alone(self, solver, rows):
        kinds = ["random", "coincident", "random", "collinear", "random"]
        rng = np.random.default_rng(7)
        samples = [f_sample(rng, rows, kind) for kind in kinds]

        def run(corr):
            try:
                return candidate_bytes(solver(corr, (-40.0, 40.0)))
            except (DegenerateInput, NoRealSolution) as exc:
                return type(exc).__name__, str(exc)

        results = []
        for kind, draw, corr in zip(kinds, prepare_block(samples), samples):
            results.append(run(draw))
            if kind == "coincident":
                assert results[-1] == ("DegenerateInput", "coincident points, cannot normalize")
            elif kind == "collinear":
                assert results[-1] == (
                    "DegenerateInput", "camera-1 points collinear, R is singular"
                )
            else:  # as if compressed alone
                assert results[-1] == run(corr)
        assert any(isinstance(r, list) and r for r in results)  # some gave candidates


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
        stacked, _ = _normalizing_transforms(pts)
        for k in range(2):
            want = ref.normalizing_transform(pts[k]).tobytes()
            assert stacked[k].tobytes() == want
            assert _normalizing_transforms(pts[k])[0].tobytes() == want
        # the strided (n, 2) view of homogeneous rows that _normalize_corr takes
        rows = np.column_stack([pts[0], np.ones(n)])
        want = ref.normalizing_transform(rows[:, :2]).tobytes()
        assert _normalizing_transforms(rows[:, :2])[0].tobytes() == want

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
        assert _normalizing_transforms(pts)[1].tolist() == [which == 0, which == 1]
        ones = np.ones((9, 1))
        corr = CorrSet(np.hstack([pts[0], ones]), np.hstack([pts[1], ones]),
                       np.tile([1.0, 1.0, 0.0], (9, 1)))
        with pytest.raises(DegenerateInput, match="coincident points, cannot normalize"):
            fit_model_at_beta(FUNDAMENTAL, corr, 0.0)
        with pytest.raises(DegenerateInput, match="coincident points, cannot normalize"):
            solve_gep_f_beta(corr)
        with pytest.raises(DegenerateInput):
            ref.normalizing_transform(pts[which])


def split_bytes(pairs):
    return [
        (np.float64(beta).tobytes(), None if vec is None else vec.tobytes())
        for beta, vec in pairs
    ]


@st.composite
def eigen_systems(draw):
    """Values, their eigenvectors (or None) and a window, as the solvers make them.

    The pencils' vectors come from ``ref.ggev``; those of 3x3 matrices from
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
        values, vectors = ref.ggev(*pencil(int(rng.integers(2**32)), source))
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
    window = draw(st.sampled_from(GEP_WINDOWS))
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
        column = None if vectors is None else (lambda i: vectors[:, i])
        assert split_bytes(_split_real(values, column, window)) == split_bytes(want)


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

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        window=st.sampled_from([None, (-40.0, 40.0), (2.0, 3.0), (960.0, 1040.0)]),
        repeat_row=st.booleans(),
    )
    def test_bit_identical_to_per_node_minors(self, seed, window, repeat_row):
        """The stacked 5x5 minors and direct QR and back-substitution give the
        bytes of ``np.delete`` minors node by node, ``np.linalg.qr`` and
        ``scipy.linalg.solve_triangular``."""
        corr = random_corrset(np.random.default_rng(seed)).take(np.arange(8))
        if repeat_row:  # the pencil is singular at every node
            corr = corr.take(np.array([0, 0, 2, 3, 4, 5, 6, 7]))

        def run(solver):
            try:
                return candidate_bytes(solver(corr, window))
            except (DegenerateInput, NoRealSolution) as exc:
                return type(exc).__name__, str(exc)

        assert run(solve_min_f_beta) == run(ref.solve_min_f_beta)

    @pytest.mark.parametrize(
        "solver, n", [(solve_gep_f_beta, 9), (solve_min_f_beta, 8)], ids=["f-gep", "f-min"]
    )
    def test_collinear_camera1_points_are_degenerate(self, solver, n):
        # one image row: the triangular factor R has an exact zero pivot
        rng = np.random.default_rng(3)
        corr = CorrSet(
            s1=np.column_stack([rng.uniform(0, 1000, n), np.full(n, 500.0), np.ones(n)]),
            u=np.column_stack([rng.uniform(0, 1000, (n, 2)), np.ones(n)]),
            v=np.column_stack([rng.uniform(-10, 10, (n, 2)), np.zeros(n)]),
        )
        with pytest.raises(DegenerateInput, match="R is singular"):
            solver(corr)

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
        # the compressed 5x6 pencil, as the solver forms it
        draw = prepare_f_draws(corr.s1[None], corr.u[None], corr.v[None])[0]
        sing = np.linalg.svd(draw.a + beta * draw.c, compute_uv=False)
        assert sing[-1] < 1e-8 * sing[0]
        monkeypatch.setattr(
            np.polynomial.chebyshev, "chebroots", lambda c: np.array([beta / 16.0])
        )
        made, normalized = [], TwoViewModel.normalized
        monkeypatch.setattr(
            TwoViewModel, "normalized", staticmethod(lambda *a: made.append(a) or normalized(*a))
        )
        # a real root makes the draw valid, but this one gives no candidate
        assert solve_min_f_beta(corr) == []
        assert made == []  # dropped before any model was formed

    def test_ground_truth_candidate_singular_in_normalized_coordinates(self):
        # scale-free: a full-rank F in pixel coordinates can have |det| ~ 1e-11
        for seed in range(60, 68):
            corr, _ = exact_corr(seed=seed, beta_gt=1.5, d=2, n_pick=8)
            best = best_beta_match(solve_min_f_beta(corr), 1.5)
            assert abs(best.beta - 1.5) < 1e-5
            _, t1, t2 = _normalize_corr(corr)
            fn = np.linalg.inv(t2).T @ best.model.m @ np.linalg.inv(t1)
            assert abs(np.linalg.det(fn)) / np.linalg.norm(fn) ** 3 < 1e-10

    def test_window_keeps_in_window_roots_only(self):
        corr, _ = exact_corr(seed=14, beta_gt=2.0, d=2, n_pick=8)
        betas = [c.beta for c in solve_min_f_beta(corr)]
        assert any(abs(b - 2.0) < 1e-5 for b in betas)
        for window in ((1.0, 3.0), (-40.0, 40.0), (1.9, 2.1)):
            got = [c.beta for c in solve_min_f_beta(corr, window)]
            assert all(window[0] <= b <= window[1] for b in got)
            assert any(abs(b - 2.0) < 1e-5 for b in got)

    def test_valid_draw_with_no_root_in_window_returns_empty(self):
        corr, _ = exact_corr(seed=14, beta_gt=2.0, d=2, n_pick=8)
        window = (5.0, 100.0)  # between the roots at 2 and about 526
        assert not [c for c in solve_min_f_beta(corr) if window[0] <= c.beta <= window[1]]
        assert solve_min_f_beta(corr, window) == []

    @pytest.mark.parametrize("window", [(5.0, 5.0), (-math.inf, math.inf)])
    def test_empty_or_unbounded_window_samples_the_default_span(self, window):
        corr, _ = exact_corr(seed=14, beta_gt=2.0, d=2, n_pick=8)
        got = solve_min_f_beta(corr, window)
        assert all(window[0] <= c.beta <= window[1] for c in got)
        if window[0] < window[1]:
            assert [c.beta for c in got] == [c.beta for c in solve_min_f_beta(corr)]


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


def h_sample(rng, kind="random"):
    """Five random correspondences. "coincident" and "coincident-u" make the
    camera-1 or camera-2 points coincide, "rank" repeats the first row, which
    leaves a nullspace above 3, "static" zeroes the tangents, which makes p
    singular, "nan" puts a NaN in s1, on which the SVD fails, and
    "coincident-nan" does both to s1 and u: its solver raises at the
    normalization, before the SVD that fails."""
    corr = random_corrset(rng).take(np.arange(5))
    if kind == "coincident":
        corr.s1[:, :2] = [3.0, 4.0]
    elif kind == "coincident-u":
        corr.u[:, :2] = [3.0, 4.0]
    elif kind == "rank":
        for f in ("s1", "u", "v"):
            getattr(corr, f)[1] = getattr(corr, f)[0]
    elif kind == "static":
        corr.v[:] = 0.0
    elif kind == "nan":
        corr.s1[2, 0] = np.nan
    elif kind == "coincident-nan":
        corr.s1[:, :2] = [3.0, 4.0]
        corr.u[2, 0] = np.nan
    return corr


def h_outcome(solve, corr, window):
    """The candidates' bytes, or the class and message of what the solver raised."""
    try:
        return candidate_bytes(solve(corr, window))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def h_system(corr):
    """h-min's 9x12 system of one sample, as the reference solver builds it."""
    ncorr, _, _ = ref.normalize_corr(corr)
    return np.hstack([_skew_rows(ncorr.s1, ncorr.u), _skew_rows(ncorr.s1, ncorr.v)[:, 6:]])[:9]


class TestPrepareHDraws:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(
            st.sampled_from(["random", "random", "random", "coincident", "coincident-u",
                             "rank", "static", "nan", "coincident-nan"]),
            min_size=1, max_size=8,
        ),
        window=st.one_of(
            st.none(),
            st.tuples(st.floats(-60, 60), st.floats(0, 120)).map(lambda w: (w[0], w[0] + w[1])),
        ),
    )
    def test_each_draw_gives_its_own_solve(self, seed, kinds, window):
        """Each prepared draw's solver call gives the bytes, or the error class
        and message, of the reference solver on that sample alone."""
        rng = np.random.default_rng(seed)
        samples = [h_sample(rng, kind) for kind in kinds]
        for draw, corr in zip(prepare_block(samples, prepare_h_draws), samples):
            for f in ("s1", "u", "v"):
                assert getattr(draw, f).tobytes() == getattr(corr, f).tobytes()
            got = h_outcome(solve_min_h_beta, draw, window)
            assert got == h_outcome(ref.solve_min_h_beta, corr, window)

    def test_singular_p_fails_only_at_its_own_call(self):
        kinds = ["random", "static", "random", "random"]
        rng = np.random.default_rng(5)
        samples = [h_sample(rng, kind) for kind in kinds]
        with mock.patch.object(solvers, "prepare_h_draws",
                               wraps=solvers.prepare_h_draws) as spy:
            draws = prepare_block(samples, solvers.prepare_h_draws)
        assert spy.call_count == 1 + len(kinds)  # the stacked solve failed: one at a time
        window = (-40.0, 40.0)
        for kind, draw, corr in zip(kinds, draws, samples):
            got = h_outcome(solve_min_h_beta, draw, window)
            if kind == "static":
                assert got == ("DegenerateInput", "quadratic system is rank-deficient")
                assert h_outcome(solve_min_h_beta, draw, window) == got
            else:
                assert got and isinstance(got, list)
                assert got == h_outcome(ref.solve_min_h_beta, corr, window)


class TestStackedSvdSolveEig:
    """``prepare_h_draws`` takes one ``np.linalg.svd``, ``solve`` and ``eig``
    of a block's stacked matrices; each matrix gets the bytes of its own call.
    ``eig`` gives values and vectors once each matrix whose values are all
    real takes their real parts, and each prepared draw holds its own."""

    @pytest.mark.parametrize("seed", range(10))
    def test_bit_identical_to_per_matrix_calls(self, seed):
        rng = np.random.default_rng(seed)
        samples = [h_sample(rng, kind) for kind in ["random"] * 12 + ["rank"]]
        systems = [h_system(corr) for corr in samples]
        _, sing, vt = np.linalg.svd(np.stack(systems))
        for k, m in enumerate(systems):
            _, want_sing, want_vt = np.linalg.svd(m)
            assert sing[k].tobytes() == want_sing.tobytes()
            assert vt[k].tobytes() == want_vt.tobytes()
        null = vt[:-1, -3:]
        p, q = -np.swapaxes(null[..., 6:9], -1, -2), np.swapaxes(null[..., 9:12], -1, -2)
        actions = -np.linalg.solve(p, q)
        values, vectors = np.linalg.eig(actions)
        kinds = set()
        draws = prepare_block(samples, prepare_h_draws)
        for n, action, w, vec, draw in zip(null, actions, values, vectors, draws):
            assert action.tobytes() == (-np.linalg.solve(-n[:, 6:9].T, n[:, 9:12].T)).tobytes()
            if not w.imag.any():
                w, vec = w.real, vec.real
            want_w, want_vec = np.linalg.eig(action)
            for got in ((w, vec), (draw.values, draw.vectors)):
                assert [x.dtype for x in got] == [want_w.dtype, want_vec.dtype]
                assert [x.tobytes() for x in got] == [want_w.tobytes(), want_vec.tobytes()]
            assert draw.null.tobytes() == n.tobytes()
            kinds.add(w.dtype.kind)
        assert kinds == {"f", "c"}  # the block mixes real and complex draws
        assert str(draws[-1].error) == "nullspace dimension exceeds 3 (degenerate samples)"


class TestSevenPointF:
    def test_synchronized_exact_data(self):
        corr, gt = exact_corr(seed=30, beta_gt=0.0, d=1, n_pick=7)
        models = [c.model for c in solve_7pt_f(corr)]
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
                cands = solve_7pt_f(corr)
            except DegenerateInput:
                continue
            assert len(cands) in (1, 3)
            for c in cands:
                assert c.beta == 0.0
                assert abs(np.linalg.det(c.model.m)) < 1e-8


class TestFourPointH:
    def test_identity_data(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        corr = CorrSet(
            s1=np.column_stack([pts, np.ones(4)]),
            u=np.column_stack([pts, np.ones(4)]),
            v=np.zeros((4, 3)),
        )
        [h] = solve_4pt_h(corr)
        assert h.beta == 0.0
        assert model_distance(h.model, TwoViewModel.normalized(HOMOGRAPHY, np.eye(3))) < 1e-10

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
        [h] = solve_4pt_h(corr)
        assert model_distance(h.model, TwoViewModel.normalized(HOMOGRAPHY, h_ref)) < 1e-9

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
        [h] = solve_4pt_h(corr)
        assert model_distance(h.model, gt.h) < 1e-8


class TestBacksubstitution:
    def test_f_solvers_satisfy_their_constraints(self):
        for solver, size in ((solve_gep_f_beta, 9), (solve_min_f_beta, 8)):
            sub, _ = exact_corr(seed=40, beta_gt=2.0, d=2, n_pick=size)
            checked = 0
            for cand in solver(sub):
                if ref.f_residual(sub, cand.beta, cand.model.m) > 1e-8:
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
            if ref.h_residual(corr, cand.beta, cand.model.m) > 1e-8:
                continue
            pred = corr.u + cand.beta * corr.v
            mapped = corr.s1 @ cand.model.m.T
            cross = np.cross(pred, mapped)
            scale = np.linalg.norm(pred, axis=1) * np.linalg.norm(mapped, axis=1)
            assert np.max(np.linalg.norm(cross, axis=1) / scale) < 1e-6
            checked += 1
        assert checked >= 1
