"""Hypothesize-and-verify estimation over full trajectories."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsync import (
    MissingFrame,
    NotEnoughCorrespondences,
    RansacParams,
    SceneSpec,
    Trajectory,
    TwoViewModel,
    generate_scene,
    inject_outliers,
    linearize,
    ransac_estimate,
)
from camsync.robust import (
    KIND_F_7PT,
    KIND_F_GEP,
    KIND_F_MIN,
    KIND_H_4PT,
    KIND_H_MIN,
    SOLVER_KINDS,
    build_correspondences,
    count_correspondences,
    score_candidate,
)
from camsync import robust
from camsync.solvers import CorrSet, SolverCandidate, _skew_rows
from camsync.sync import IterParams, iterative_sync
from camsync.synth import PLANAR_SMOOTH

import reference_kernels
from reference_kernels import model_distance


def exact_scene(seed=0, beta_gt=2.0, n_tracks=4, exact_model="F"):
    spec = SceneSpec(
        seed=seed,
        beta_gt=beta_gt,
        noise_sigma=0.0,
        motion="exact-linear",
        n_tracks=n_tracks,
        exact_model=exact_model,
        n_frames=60,
    )
    return generate_scene(spec)


def noisy_scene(seed=0, beta_gt=3.0):
    spec = SceneSpec(
        seed=seed,
        beta_gt=beta_gt,
        noise_sigma=0.5,
        n_tracks=4,
        n_frames=120,
        waypoint_spacing=120.0,
    )
    return generate_scene(spec)


def reference_build(traj1, traj2, beta0, rho, d):
    """Rows and keys of one scalar ``linearize`` call per camera-1 sample."""
    by_id2 = {t.track_id: t for t in traj2}
    s1, u, v, keys = [], [], [], []
    for t1 in traj1:
        t2 = by_id2.get(t1.track_id)
        if t2 is None:
            continue
        for s in t1.samples:
            try:
                lin = linearize(t2, s.frame, beta0, rho, d)
            except MissingFrame:
                continue
            s1.append([s.u, s.v, 1.0])
            u.append([*lin.u_vec, 1.0])
            v.append([*lin.v_vec, 0.0])
            keys.append((t1.track_id, s.frame))
    if not keys:
        return [np.zeros((0, 3))] * 3, keys
    return [np.array(s1), np.array(u), np.array(v)], keys


COORD = st.floats(-1e4, 1e4, allow_nan=False)


@st.composite
def holey_track(draw, camera_id, track_id):
    """Frames start .. start+length-1 less up to three holes; possibly empty."""
    start = draw(st.integers(0, 10))
    length = draw(st.integers(0, 60))
    holes = draw(st.sets(st.integers(start, start + length), max_size=3))
    frames = [f for f in range(start, start + length) if f not in holes]
    points = draw(st.lists(st.tuples(COORD, COORD), min_size=len(frames),
                           max_size=len(frames)))
    return Trajectory(camera_id, track_id, frames, np.reshape(points, (-1, 2)))


@st.composite
def camera(draw, camera_id):
    ids = draw(st.lists(st.sampled_from(["t0", "t1", "t2"]), unique=True, min_size=1,
                        max_size=3))
    return [draw(holey_track(camera_id, tid)) for tid in ids]


class TestBuildCorrespondences:
    @settings(max_examples=200, deadline=None)
    @given(
        traj1=camera("c1"),
        traj2=camera("c2"),
        beta0=st.one_of(
            st.sampled_from([-7.5, -2.0, -0.5, 0.0, 0.5, 3.5, 12.0]),
            st.floats(-20.0, 20.0, allow_nan=False),
        ),
        rho=st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
        sign=st.sampled_from([1, -1]),
        p=st.integers(0, 4),
    )
    def test_bit_identical_to_scalar_linearize(self, traj1, traj2, beta0, rho, sign, p):
        d = sign * 2**p
        corr, keys = build_correspondences(traj1, traj2, beta0, rho, d)
        (s1, u, v), ref_keys = reference_build(traj1, traj2, beta0, rho, d)
        assert keys == ref_keys
        assert count_correspondences(traj1, traj2, beta0, rho, d) == len(keys)
        for got, want in ((corr.s1, s1), (corr.u, u), (corr.v, v)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_zero_distance_rejected(self):
        t1, t2, _ = exact_scene()
        with pytest.raises(ValueError):
            build_correspondences(t1, t2, 0.0, 1.0, 0)

    def test_keys_align_with_rows(self):
        t1, t2, _ = exact_scene()
        corr, keys = build_correspondences(t1, t2, 0.0, 1.0, 1)
        assert len(corr) == len(keys)
        by_id1 = {t.track_id: t for t in t1}
        for row, (track, frame) in enumerate(keys):
            s = next(s for s in by_id1[track].samples if s.frame == frame)
            assert np.allclose(corr.s1[row], [s.u, s.v, 1.0])

    def test_boundary_frames_dropped(self):
        # forward interpolation cannot use the last d camera-2 frames
        from camsync import Trajectory

        def line(cam):
            points = [(float(j), 2.0 * j) for j in range(20)]
            return [Trajectory(camera_id=cam, track_id="t0", frames=range(20),
                               points=points)]

        c1, _ = build_correspondences(line("a"), line("b"), 0.0, 1.0, 1)
        c4, _ = build_correspondences(line("a"), line("b"), 0.0, 1.0, 4)
        assert len(c4) == len(c1) - 3

    def test_camera2_time_beyond_int64_is_dropped(self):
        # rho = 1e18 sends camera-1 frames 10 and up past frame 2**63 - 1, and
        # frames within 512 of 2**63 - 1 have a float64 time of 2**63; their
        # rows are dropped with no cast of an out-of-range time, so no warning
        t1, t2, _ = exact_scene()
        frames = 2**63 - 1 - np.arange(40, -1, -1)
        top = [Trajectory(t.camera_id, t.track_id, frames, t.points[:41]) for t in t1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for traj1, rho, d in ((t1, 1e18, 1), (t1, 1e18, -4), (top, 1.0, 1)):
                corr, keys = build_correspondences(traj1, t2, 0.0, rho, d)
                assert count_correspondences(traj1, t2, 0.0, rho, d) == len(keys)
                # only camera-1 frame 0, at camera-2 time 0, keeps its row
                assert keys == ([(t.track_id, 0) for t in t1] if rho > 1 and d > 0 else [])
                assert corr.s1.shape == (len(keys), 3)

    def test_unmatched_track_skipped(self):
        t1, t2, _ = exact_scene()
        corr_full, _ = build_correspondences(t1, t2, 0.0, 1.0, 1)
        corr_part, keys = build_correspondences(t1, t2[1:], 0.0, 1.0, 1)
        assert len(corr_part) < len(corr_full)
        dropped = t2[0].track_id
        assert all(track != dropped for track, _ in keys)


def test_skew_rows_match_per_sample_builders():
    rng = np.random.default_rng(0)
    s = np.column_stack([rng.normal(size=(6, 2)), np.ones(6)])
    u = np.column_stack([rng.normal(size=(6, 2)), np.ones(6)])
    v = np.column_stack([rng.normal(size=(6, 2)), np.zeros(6)])
    z = np.zeros(3)
    # solve_4pt_h and the h-min refit: two rows of [a]_x H s = 0 per sample
    rows9 = [
        row
        for si, ai in zip(s, u)
        for row in (np.concatenate([z, -si, ai[1] * si]),
                    np.concatenate([si, z, -ai[0] * si]))
    ]
    # solve_min_h_beta: 12 monomials [h11..h33, beta*h31, beta*h32, beta*h33]
    rows12 = [
        row
        for si, ui, vi in zip(s, u, v)
        for row in (np.concatenate([z, -si, ui[1] * si, vi[1] * si]),
                    np.concatenate([si, z, -ui[0] * si, -vi[0] * si]))
    ]
    assert _skew_rows(s, u).tobytes() == np.array(rows9).tobytes()
    got12 = np.hstack([_skew_rows(s, u), _skew_rows(s, v)[:, 6:]])
    assert got12.tobytes() == np.array(rows12).tobytes()
    # leading dimensions: each block of rows is that of its own call
    stacked = _skew_rows(np.stack([s, u, s]), np.stack([u, v, v]))
    for got, (a, b) in zip(stacked, [(s, u), (u, v), (s, v)]):
        assert got.tobytes() == _skew_rows(a, b).tobytes()


class TestScoreCandidate:
    def test_ground_truth_scores_all_inliers(self):
        t1, t2, gt = exact_scene(beta_gt=2.0)
        corr, _ = build_correspondences(t1, t2, 0.0, 1.0, 1)
        cand = SolverCandidate(beta=2.0, model=gt.f)
        mask, res = score_candidate(KIND_F_GEP, cand, corr, 1.0)
        assert mask.all()
        assert res == pytest.approx(0.0, abs=1e-6)

    def test_wrong_shift_scores_fewer(self):
        t1, t2, gt = exact_scene(beta_gt=2.0)
        corr, _ = build_correspondences(t1, t2, 0.0, 1.0, 1)
        good = SolverCandidate(beta=2.0, model=gt.f)
        bad = SolverCandidate(beta=6.0, model=gt.f)
        mask_g, _ = score_candidate(KIND_F_GEP, good, corr, 1.0)
        mask_b, _ = score_candidate(KIND_F_GEP, bad, corr, 1.0)
        assert mask_b.sum() < mask_g.sum()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(st.just(1), st.integers(2, 3000)),
        kind=st.sampled_from([KIND_F_GEP, KIND_H_MIN]),
        betas=st.lists(st.one_of(st.floats(-50, 50), st.sampled_from([np.inf, -np.inf, np.nan])),
                       min_size=1, max_size=6),
    )
    def test_bit_identical_to_plain_form_call_after_call(self, seed, n, kind, betas):
        # one set scored at several shifts: the prediction buffer it keeps
        # carries nothing from one call to the next, and a non-finite shift
        # gives the plain mask and sum too
        rng = np.random.default_rng(seed)
        s1, u = (np.column_stack([rng.uniform(0, 1000, (n, 2)), np.ones(n)]) for _ in range(2))
        v = np.column_stack([rng.normal(size=(n, 2)) * 4.0, np.zeros(n)])
        corr = CorrSet(s1, u, v)
        m = np.eye(3) + 0.05 * rng.normal(size=(3, 3))
        m[2, :2] *= 1e-3
        geometry = SOLVER_KINDS[kind].geometry
        model = TwoViewModel.normalized(geometry, m)
        for beta in betas:
            cand = SolverCandidate(beta=beta, model=model)
            with np.errstate(all="ignore"):  # both warn on a shift of NaN or inf
                want_mask, want_res = reference_kernels.score_candidate(kind, cand, corr, 20.0)
                got_mask, got_res = score_candidate(kind, cand, corr, 20.0)
                want_pred = (corr.u + beta * corr.v)[:, :2]
                got_pred = corr.points_at(beta)[1][:, :2]
            assert got_pred.tobytes() == want_pred.tobytes()
            assert got_mask.tobytes() == want_mask.tobytes()
            assert np.float64(got_res).tobytes() == np.float64(want_res).tobytes()


    @pytest.mark.parametrize("kind", [KIND_F_GEP, KIND_H_MIN])
    @pytest.mark.parametrize("row, value", [("s1", 2.0), ("u", 0.5), ("v", 1e-9)])
    def test_set_outside_the_form_is_rejected(self, kind, row, value):
        # s1 and u rows are [x, y, 1] and v rows [vx, vy, 0]; the kernels
        # read nothing else
        t1, t2, gt = exact_scene(exact_model="F" if kind == KIND_F_GEP else "H")
        corr, _ = build_correspondences(t1, t2, 0.0, 1.0, 1)
        cand = SolverCandidate(beta=2.0, model=gt.f if kind == KIND_F_GEP else gt.h)
        assert score_candidate(kind, cand, corr, 1.0)[0].all()
        arrays = {"s1": corr.s1.copy(), "u": corr.u.copy(), "v": corr.v.copy()}
        arrays[row][-1, 2] = value
        bad = CorrSet(**arrays)
        for _ in range(2):  # the check is not cached away
            with pytest.raises(ValueError, match=r"\[x, y, 1\]"):
                score_candidate(kind, cand, bad, 1.0)


class TestRansacParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RansacParams(threshold=0.0)
        with pytest.raises(ValueError):
            RansacParams(d=0)
        for bad in (float("nan"), -1.0, float("inf")):
            with pytest.raises(ValueError, match="threshold must be positive and finite"):
                RansacParams(threshold=bad)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="rho"):
                RansacParams(rho=bad)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="beta_max must be non-negative and finite"):
                RansacParams(beta_max=bad)

    def test_seed_range(self):
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                RansacParams(seed=bad)
        for good in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert RansacParams(seed=good).seed == good

    @pytest.mark.parametrize("field", ["max_iterations", "seed", "d"])
    def test_non_integer_field_is_rejected(self, field):
        # seed=1.5 and seed=True used to run; max_iterations=20.5 failed later
        # with a TypeError and d=1.5 with an IndexError
        for bad in (1.5, 20.5, 2.0, True, np.bool_(True), np.float64(3.0), "4"):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                RansacParams(**{field: bad})
        assert getattr(RansacParams(**{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("field", ["threshold", "rho", "beta0", "beta_max"])
    def test_non_real_field_is_rejected(self, field):
        # each True used to act as 1, and threshold="5" raised a TypeError
        for bad in (True, False, np.bool_(True), "5", None, 1j):
            if bad is None and field == "beta_max":
                continue  # beta_max=None is the default window
            with pytest.raises(ValueError, match=f"^{field} must be a real number"):
                RansacParams(**{field: bad})
        for good in (2, np.int64(2), np.float32(2.0), 2.0):
            assert getattr(RansacParams(**{field: good}), field) == 2

    def test_window_default_tracks_d(self):
        assert RansacParams(d=1).window == (-10.0, 10.0)
        assert RansacParams(d=-4, beta0=5.0).window == (-40.0, 40.0)
        assert RansacParams(d=4, beta0=-1.0, beta_max=3.0).window == (-3.0, 3.0)
        assert RansacParams(beta_max=0.0).window == (0.0, 0.0)


class TestRansacEstimate:
    def test_all_inlier_exact_data(self):
        t1, t2, gt = exact_scene(beta_gt=2.0)
        params = RansacParams(seed=1, threshold=1.0, max_iterations=200)
        res = ransac_estimate(t1, t2, KIND_F_GEP, params)
        assert abs(res.best.beta - 2.0) < 1e-5
        assert res.inlier_count == res.total_correspondences
        assert model_distance(res.best.model, gt.f) < 1e-4

    def test_adaptive_rule_stops_early_on_clean_data(self):
        t1, t2, _ = exact_scene(beta_gt=1.0)
        params = RansacParams(seed=2, threshold=1.0, max_iterations=500)
        res = ransac_estimate(t1, t2, KIND_F_GEP, params)
        assert res.iterations_run < 500

    @pytest.mark.parametrize("kind, exact_model, seed, draws", [
        (KIND_F_GEP, "F", 1, 1),
        (KIND_F_MIN, "F", 1, 1),
        (KIND_H_MIN, "H", 3, 2),  # its first draw is degenerate
    ])
    def test_all_inlier_draw_stops_at_the_first_valid_draw(
        self, monkeypatch, kind, exact_model, seed, draws
    ):
        # w = 1: the stop rule's clamp of w**m below 1 asks for one valid draw
        t1, t2, _ = exact_scene(seed=1, exact_model=exact_model)
        valid = []
        name = SOLVER_KINDS[kind].solver
        solve = getattr(robust, name)

        def counted(*args):
            cands = solve(*args)  # raises on a draw that does not count
            valid.append(len(cands))
            return cands

        monkeypatch.setattr(robust, name, counted)
        res = ransac_estimate(t1, t2, kind, RansacParams(seed=seed, threshold=1.0, d=1))
        assert len(valid) == 1
        assert res.iterations_run == draws
        assert res.inlier_count == res.total_correspondences == 240

    def test_outlier_contaminated_recovery(self):
        t1, t2, gt = noisy_scene(seed=5, beta_gt=3.0)
        (t1o, t2o), labels = inject_outliers(t1, t2, 0.3, seed=99)
        params = RansacParams(
            seed=3, threshold=3.0, max_iterations=500, d=4
        )
        res = ransac_estimate(t1o, t2o, KIND_F_GEP, params)
        assert abs(res.best.beta - 3.0) < 0.5
        # roughly the clean fraction should be recovered as inliers
        assert res.inlier_count > 0.5 * res.total_correspondences

    def test_inlier_mask_is_sound(self):
        t1, t2, _ = noisy_scene(seed=6, beta_gt=2.0)
        params = RansacParams(seed=4, threshold=2.0, max_iterations=300, d=2)
        res = ransac_estimate(t1, t2, KIND_F_GEP, params)
        corr, _ = build_correspondences(t1, t2, 0.0, 1.0, 2)
        mask, _ = score_candidate(KIND_F_GEP, res.best, corr, 2.0)
        assert np.array_equal(mask, res.inlier_mask)
        assert res.inlier_count == int(mask.sum())

    def test_deterministic_for_fixed_seed(self):
        t1, t2, _ = noisy_scene(seed=7, beta_gt=1.0)
        params = RansacParams(seed=11, threshold=2.0, max_iterations=200)
        a = ransac_estimate(t1, t2, KIND_F_GEP, params)
        b = ransac_estimate(t1, t2, KIND_F_GEP, params)
        assert a.best.beta == b.best.beta
        assert np.array_equal(a.best.model.m, b.best.model.m)
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
        assert a.iterations_run == b.iterations_run

    def test_different_seeds_may_differ_but_agree_on_shift(self):
        t1, t2, _ = noisy_scene(seed=8, beta_gt=2.0)
        betas = []
        for seed in (1, 2, 3):
            params = RansacParams(seed=seed, threshold=2.0, max_iterations=300, d=2)
            betas.append(ransac_estimate(t1, t2, KIND_F_GEP, params).best.beta)
        assert np.ptp(betas) < 0.5
        assert all(abs(b - 2.0) < 0.5 for b in betas)

    def test_refinement_never_loses_inliers(self, monkeypatch):
        t1, t2, _ = noisy_scene(seed=9, beta_gt=2.0)
        params = RansacParams(seed=13, threshold=2.0, max_iterations=200, d=2)
        refined = ransac_estimate(t1, t2, KIND_F_GEP, params)
        monkeypatch.setattr(robust, "REFINE_ROUNDS", 0)
        raw = ransac_estimate(t1, t2, KIND_F_GEP, params)
        assert refined.inlier_count >= raw.inlier_count

    def test_too_few_correspondences_rejected(self):
        t1, t2, _ = exact_scene()
        short1 = [
            type(t)(camera_id=t.camera_id, track_id=t.track_id, frames=t.frames[:1],
                    points=t.points[:1])
            for t in t1[:1]
        ]
        with pytest.raises(NotEnoughCorrespondences):
            ransac_estimate(short1, t2, KIND_F_GEP, RansacParams())

    def test_gep_window_changes_nothing(self, monkeypatch):
        import camsync.robust as robust_mod

        t1, t2, _ = noisy_scene(seed=5, beta_gt=3.0)
        (t1o, t2o), _ = inject_outliers(t1, t2, 0.3, seed=99)
        params = RansacParams(seed=3, threshold=3.0, max_iterations=300, d=4, beta_max=6.0)
        solve = robust_mod.solve_gep_f_beta
        empty = []

        def windowed(sub, window):
            cands = solve(sub, window)
            empty.append(cands == [])
            return cands

        monkeypatch.setattr(robust_mod, "solve_gep_f_beta", windowed)
        a = ransac_estimate(t1o, t2o, KIND_F_GEP, params)
        # some valid draws had every shift outside the window
        assert any(empty)
        monkeypatch.setattr(robust_mod, "solve_gep_f_beta", lambda sub, window: solve(sub))
        b = ransac_estimate(t1o, t2o, KIND_F_GEP, params)
        assert np.float64(a.best.beta).tobytes() == np.float64(b.best.beta).tobytes()
        assert a.best.model.m.tobytes() == b.best.model.m.tobytes()
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
        assert a.iterations_run == b.iterations_run

    def test_shift_outside_window_not_found(self):
        # true shift 8 but the window is capped at 2 frames around beta0=0
        t1, t2, _ = noisy_scene(seed=10, beta_gt=8.0)
        params = RansacParams(
            seed=5, threshold=2.0, max_iterations=200, d=2, beta_max=2.0
        )
        res = ransac_estimate(t1, t2, KIND_F_GEP, params)
        assert -2.0 <= res.best.beta <= 2.0


class TestBaselines:
    def test_classical_f_keeps_shift_fixed(self):
        t1, t2, _ = noisy_scene(seed=11, beta_gt=2.0)
        params = RansacParams(seed=6, threshold=2.0, max_iterations=200, beta0=1.5)
        res = ransac_estimate(t1, t2, KIND_F_7PT, params)
        assert res.best.beta == 1.5

    def test_classical_h_keeps_shift_fixed(self):
        spec = SceneSpec(
            seed=12, beta_gt=1.0, noise_sigma=0.5, n_tracks=4, n_frames=120,
            motion="planar-smooth", waypoint_spacing=120.0,
        )
        t1, t2, _ = generate_scene(spec)
        params = RansacParams(seed=7, threshold=3.0, max_iterations=200)
        res = ransac_estimate(t1, t2, KIND_H_4PT, params)
        assert res.best.beta == 0.0

    @pytest.mark.parametrize("kind, motion", [
        (KIND_F_7PT, "smooth-random"), (KIND_H_4PT, PLANAR_SMOOTH),
    ])
    def test_classical_fit_at_true_beta0_keeps_the_rows(self, kind, motion):
        # the baselines fit the prediction at beta0, where they are scored;
        # fitting the anchors (the prediction at 0) kept at most 107 of 720
        t1, t2, _ = generate_scene(SceneSpec(
            seed=3, beta_gt=30.0, noise_sigma=0.5, n_tracks=6, n_frames=120,
            waypoint_spacing=120.0, motion=motion,
        ))
        params = RansacParams(seed=1, threshold=2.0, max_iterations=300, beta0=30.0)
        res = ransac_estimate(t1, t2, kind, params)
        assert res.best.beta == 30.0
        assert res.inlier_count >= 0.95 * res.total_correspondences

    def test_joint_solver_beats_classical_on_shifted_data(self):
        t1, t2, _ = noisy_scene(seed=13, beta_gt=4.0)
        joint = ransac_estimate(
            t1, t2, KIND_F_GEP,
            RansacParams(seed=8, threshold=1.0, max_iterations=300, d=4),
        )
        classical = ransac_estimate(
            t1, t2, KIND_F_7PT,
            RansacParams(seed=8, threshold=1.0, max_iterations=300, d=4),
        )
        assert joint.inlier_count > classical.inlier_count

    def test_sample_sizes(self):
        assert {kind: s.sample_size for kind, s in SOLVER_KINDS.items()} == {
            KIND_F_GEP: 9,
            KIND_F_MIN: 8,
            KIND_H_MIN: 5,
            KIND_F_7PT: 7,
            KIND_H_4PT: 4,
        }

    def test_unknown_kind_named_before_any_build(self, monkeypatch):
        import camsync.robust as robust_mod

        def build(*args):
            raise AssertionError("correspondences built for an unknown kind")

        monkeypatch.setattr(robust_mod, "build_correspondences", build)
        t1, t2, _ = exact_scene()
        with pytest.raises(ValueError, match="unknown solver kind 'bogus'"):
            ransac_estimate(t1, t2, "bogus", RansacParams())


class TestMinFRansac:
    @pytest.mark.parametrize("beta0", [200.0, 1000.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_shift_far_from_zero(self, seed, beta0):
        # the README scene with the shift 2.3 frames from a distant beta0:
        # f-min samples det F(beta) on the window around beta0, not around 0
        t1, t2, _ = generate_scene(SceneSpec(
            seed=seed, beta_gt=beta0 + 2.3, noise_sigma=0.5, n_tracks=10, n_frames=240,
            waypoint_spacing=300.0, speed_px_per_frame=4.0,
        ))
        params = RansacParams(seed=seed, beta0=beta0, d=4, threshold=5.0, max_iterations=300)
        res = ransac_estimate(t1, t2, KIND_F_MIN, params)
        assert abs(res.best.beta - (beta0 + 2.3)) < 0.5

    @pytest.mark.parametrize("seed", range(5))
    def test_outlier_robustness(self, seed):
        # acceptance criterion 10's scene and bounds, with f-min
        t1, t2, _ = generate_scene(SceneSpec(
            seed=seed, beta_gt=3.0, noise_sigma=0.5, n_tracks=6, n_frames=120,
            waypoint_spacing=120.0,
        ))
        (t1o, t2o), labels = inject_outliers(t1, t2, 0.3, seed=seed + 777)
        params = RansacParams(seed=seed, threshold=3.0, max_iterations=500, d=4)
        res = ransac_estimate(t1o, t2o, KIND_F_MIN, params)
        row = {t.track_id: {f: i for i, f in enumerate(t.frames.tolist())} for t in t1o}
        truth = np.array([not labels[tr][row[tr][fr]] for tr, fr in res.keys])
        pred = res.inlier_mask
        tp = int(np.sum(pred & truth))
        f1 = 2 * tp / (2 * tp + int(np.sum(pred & ~truth)) + int(np.sum(~pred & truth)))
        assert abs(res.best.beta - 3.0) < 0.5
        assert f1 >= 0.95


def result_bytes(res):
    """Everything a RansacResult holds, as bytes or exact values."""
    best = res.best
    return (
        np.float64(best.beta).tobytes(), best.model.kind, best.model.m.tobytes(),
        res.inlier_mask.tobytes(), res.inlier_count, res.iterations_run,
        res.total_correspondences, res.keys,
    )


def sync_bytes(run):
    return (
        np.float64(run.beta_total).tobytes(), run.model.m.tobytes(),
        [(r.k, r.d, r.direction, r.inlier_count, np.float64(r.beta_k).tobytes(),
          r.accepted, r.j_after, r.skipped_after) for r in run.iterations],
        run.ransac_calls, run.accepted_steps, run.total_correspondences,
    )


class TestCandidateOrder:
    """RANSAC scores every in-window candidate and keeps the most inliers,
    ties going to the lower summed residual, so the order in which a solver
    returns its candidates cannot change the result."""

    @pytest.mark.parametrize("kind", [KIND_F_GEP, KIND_F_MIN, KIND_H_MIN])
    @pytest.mark.parametrize("seed", range(3))
    def test_reversed_candidates_give_the_same_result(self, monkeypatch, kind, seed):
        # acceptance criterion 10's scene
        t1, t2, _ = generate_scene(SceneSpec(
            seed=seed, beta_gt=3.0, noise_sigma=0.5, n_tracks=6, n_frames=120,
            waypoint_spacing=120.0,
        ))
        (t1, t2), _ = inject_outliers(t1, t2, 0.3, seed=seed + 777)
        params = RansacParams(seed=seed, threshold=3.0, max_iterations=500, d=4)
        want = result_bytes(ransac_estimate(t1, t2, kind, params))
        reordered = []

        def reversed_solver(solve):
            def wrapper(*args):
                cands = solve(*args)
                reordered.append(len(cands) > 1)
                return cands[::-1]
            return wrapper

        for name in ("solve_gep_f_beta", "solve_min_f_beta", "solve_min_h_beta"):
            monkeypatch.setattr(robust, name, reversed_solver(getattr(robust, name)))
        assert result_bytes(ransac_estimate(t1, t2, kind, params)) == want
        assert any(reordered)


class TestSolverBinding:
    """RANSAC looks each kind's solver up by its ``SolverKind.solver`` name in
    ``camsync.robust`` when it runs, so a rebinding there sees every draw."""

    @pytest.mark.parametrize("kind", sorted(SOLVER_KINDS))
    def test_rebound_solver_sees_every_draw(self, monkeypatch, kind):
        motion = PLANAR_SMOOTH if kind in (KIND_H_MIN, KIND_H_4PT) else "smooth-random"
        t1, t2, _ = generate_scene(SceneSpec(
            seed=1, beta_gt=3.0, noise_sigma=0.5, n_tracks=4, n_frames=120,
            waypoint_spacing=120.0, motion=motion,
        ))
        (t1, t2), _ = inject_outliers(t1, t2, 0.3, seed=778)
        params = RansacParams(seed=1, threshold=3.0, max_iterations=80, d=4)
        name = SOLVER_KINDS[kind].solver
        solve = getattr(robust, name)
        windows = []

        def counted(sub, window):
            windows.append(window)
            return solve(sub, window)

        monkeypatch.setattr(robust, name, counted)
        res = ransac_estimate(t1, t2, kind, params)
        assert len(windows) == res.iterations_run > 1
        assert set(windows) == {params.window}


class TestDrawBlocks:
    """RANSAC prepares the samples of f-gep, f-min and h-min in blocks but
    calls the solver once per draw, in draw order, so the block size changes
    nothing."""

    @staticmethod
    def run_with_blocks(monkeypatch, size, run):
        """``run()`` with ``DRAW_BLOCK`` = size, its calls of the prepared
        kinds' solvers and the sizes of the blocks it prepared."""
        calls, blocks = [], []

        def counted(solve):
            def wrapper(*args):
                calls.append(len(args[0]))
                return solve(*args)
            return wrapper

        def sized(prepare):
            def wrapper(s1, u, v):
                blocks.append(len(s1))
                return prepare(s1, u, v)
            return wrapper

        with monkeypatch.context() as patched:
            patched.setattr(robust, "DRAW_BLOCK", size)
            for name in ("prepare_f_draws", "prepare_h_draws"):
                patched.setattr(robust, name, sized(getattr(robust, name)))
            for name in ("solve_gep_f_beta", "solve_min_f_beta", "solve_min_h_beta"):
                patched.setattr(robust, name, counted(getattr(robust, name)))
            return run(), calls, blocks

    @pytest.mark.parametrize("kind", [KIND_F_GEP, KIND_F_MIN, KIND_H_MIN])
    @pytest.mark.parametrize("max_iterations", [1, 3, 13, 100])
    def test_one_sample_per_draw_from_its_own_stream(self, kind, max_iterations):
        t1, t2, _ = noisy_scene()
        corr, _ = build_correspondences(t1, t2, 0.0, 1.0, 1)
        params = RansacParams(seed=9, max_iterations=max_iterations)
        samples = list(robust._samples(kind, corr, params))
        assert len(samples) == max_iterations
        m = SOLVER_KINDS[kind].sample_size
        for it, sub in enumerate(samples):
            rng = np.random.default_rng(np.uint64(9) ^ np.uint64(it))
            want = corr.take(rng.choice(len(corr), size=m, replace=False))
            for f in ("s1", "u", "v"):
                assert getattr(sub, f).tobytes() == getattr(want, f).tobytes()

    @pytest.mark.parametrize("max_iterations", [500, 10])
    @pytest.mark.parametrize("kind", [KIND_F_GEP, KIND_F_MIN, KIND_H_MIN])
    @pytest.mark.parametrize("seed", range(3))
    def test_block_size_changes_nothing(self, monkeypatch, kind, seed, max_iterations):
        # acceptance criterion 10's scene, planar for h-min; 10 draws end
        # inside a block
        t1, t2, _ = generate_scene(SceneSpec(
            seed=seed, beta_gt=3.0, noise_sigma=0.5, n_tracks=6, n_frames=120,
            waypoint_spacing=120.0,
            motion=PLANAR_SMOOTH if kind == KIND_H_MIN else "smooth-random",
        ))
        (t1, t2), _ = inject_outliers(t1, t2, 0.3, seed=seed + 777)
        params = RansacParams(seed=seed, threshold=3.0, max_iterations=max_iterations, d=4)
        got = []
        for size in (1, 64):
            res, calls, blocks = self.run_with_blocks(
                monkeypatch, size, lambda: ransac_estimate(t1, t2, kind, params)
            )
            # one solver call per draw, none for samples drawn past the stop,
            # and no block prepared after the one holding the last draw
            assert len(calls) == res.iterations_run
            assert sum(blocks[:-1]) < res.iterations_run <= sum(blocks)
            got.append(result_bytes(res))
        assert got[0] == got[1]

    def test_block_size_changes_nothing_in_a_sync(self, monkeypatch):
        t1, t2, _ = generate_scene(SceneSpec(
            seed=4, beta_gt=12.0, noise_sigma=0.5, n_tracks=6, n_frames=120,
            waypoint_spacing=300.0, speed_px_per_frame=4.0,
        ))
        params = IterParams(kind=KIND_F_GEP, k_max=8, ransac=RansacParams(
            seed=4, max_iterations=60, threshold=5.0,
        ))
        got = []
        for size in (1, 64):
            run, calls, _ = self.run_with_blocks(
                monkeypatch, size, lambda: iterative_sync(t1, t2, params)
            )
            assert run.accepted_steps >= 2
            got.append((sync_bytes(run), len(calls)))
        assert got[0] == got[1]


class TestBitIdenticalToReferenceKernels:
    """robust's solver, scoring and refit bindings patched with the plain
    numpy forms of ``reference_kernels`` give the bytes the rewritten kernels
    give."""

    def run_both(self, monkeypatch, run):
        """``run()`` as is, then with the plain forms patched in, and the
        names of the plain forms that the second run called."""
        got = run()
        called = set()

        def spy(name, plain):
            def wrapper(*args):
                called.add(name)
                return plain(*args)
            return wrapper

        with monkeypatch.context() as patched:
            for name, plain in reference_kernels.ROBUST_BINDINGS.items():
                patched.setattr(robust, name, spy(name, plain))
            want = run()
        return got, want, called

    @pytest.mark.parametrize("kind, seed", [
        (KIND_F_GEP, 0), (KIND_F_GEP, 1), (KIND_F_MIN, 2), (KIND_H_MIN, 3),
        (KIND_F_7PT, 4), (KIND_H_4PT, 5),
    ])
    def test_seeded_ransac_estimate(self, monkeypatch, kind, seed):
        motion = PLANAR_SMOOTH if kind in (KIND_H_MIN, KIND_H_4PT) else "smooth-random"
        t1, t2, _ = generate_scene(SceneSpec(
            seed=seed, beta_gt=3.0, noise_sigma=0.5, n_tracks=4, n_frames=120,
            waypoint_spacing=120.0, motion=motion,
        ))
        (t1, t2), _ = inject_outliers(t1, t2, 0.3, seed=seed + 777)
        params = RansacParams(seed=seed, threshold=3.0, max_iterations=120, d=4)

        def without_and_with_refit():
            # the refit replaces the winner's model: without it the solver's shows
            results = []
            for rounds in (0, robust.REFINE_ROUNDS):
                with pytest.MonkeyPatch.context() as refit:
                    refit.setattr(robust, "REFINE_ROUNDS", rounds)
                    results.append(ransac_estimate(t1, t2, kind, params))
            return results

        got, want, called = self.run_both(monkeypatch, without_and_with_refit)
        assert got[0].iterations_run > 20  # enough draws to compare
        assert [result_bytes(r) for r in got] == [result_bytes(r) for r in want]
        # the draws, the scoring and the refit all ran on the plain forms
        assert {"score_candidate", "fit_model_at_beta"} <= called
        assert ("fit_beta_at_model" in called) == SOLVER_KINDS[kind].estimates_beta
        assert len(called & {"solve_gep_f_beta", "solve_min_f_beta", "solve_min_h_beta",
                             "solve_7pt_f", "solve_4pt_h"}) == 1

    def test_short_iterative_sync(self, monkeypatch):
        t1, t2, _ = generate_scene(SceneSpec(
            seed=4, beta_gt=12.0, noise_sigma=0.5, n_tracks=6, n_frames=120,
            waypoint_spacing=300.0, speed_px_per_frame=4.0,
        ))
        params = IterParams(kind=KIND_F_GEP, k_max=8, ransac=RansacParams(
            seed=4, max_iterations=60, threshold=5.0,
        ))
        got, want, _ = self.run_both(monkeypatch, lambda: iterative_sync(t1, t2, params))
        assert got.accepted_steps >= 2
        assert sync_bytes(got) == sync_bytes(want)
