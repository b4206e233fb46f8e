"""Synthetic scene generator: geometric consistency, calibration, determinism."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from camsync import (
    SceneSpec,
    generate_scene,
    inject_outliers,
    synth,
)

import reference_kernels as ref


def _epipolar_max(gt):
    """Largest first-order epipolar residual over all clean synchronized pairs."""
    worst = 0.0
    for arr in gt.sync_pairs.values():
        x1 = np.column_stack([arr[:, :2], np.ones(len(arr))])
        x2 = np.column_stack([arr[:, 2:], np.ones(len(arr))])
        worst = max(worst, float(np.max(ref.sampson_distances(gt.f.m, x1, x2))))
    return worst


class TestSceneSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(n_frames=5)
        with pytest.raises(ValueError):
            SceneSpec(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            SceneSpec(rho=0.0)
        with pytest.raises(ValueError):
            SceneSpec(motion="circular")
        with pytest.raises(ValueError):
            SceneSpec(exact_model="E")
        with pytest.raises(ValueError):
            SceneSpec(waypoint_spacing=0.0)
        with pytest.raises(ValueError, match="n_tracks must be >= 1"):
            SceneSpec(n_tracks=0)
        for name in ("beta_gt", "rho", "noise_sigma", "speed_px_per_frame"):
            for value in (float("inf"), float("nan")):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    SceneSpec(**{name: value})
        with pytest.raises(ValueError, match="waypoint_spacing must be positive"):
            SceneSpec(waypoint_spacing=float("nan"))
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SceneSpec(seed=-1)

    @pytest.mark.parametrize("field", ["seed", "n_frames", "n_tracks"])
    def test_non_integer_field_is_rejected(self, field):
        # n_tracks=2.5 and seed=1.5 used to end in a TypeError inside
        # generate_scene, and seed=True ran as seed 1
        for bad in (2.5, 20.0, True, np.bool_(True), np.float64(30.0), "40"):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                SceneSpec(**{field: bad})
        assert getattr(SceneSpec(**{field: np.int64(12)}), field) == 12

    @pytest.mark.parametrize("fields, message", [
        (dict(beta_gt=1e15), "camera-2 frame count 2e+15 exceeds 200000"),
        (dict(beta_gt=1e15, motion="exact-linear"), "camera-2 frame count 1e+15 exceeds"),
        (dict(beta_gt=1e308), "camera-2 frame count inf exceeds"),
        (dict(beta_gt=-1e308), "spline path span inf exceeds 200000"),
        (dict(beta_gt=1.0, rho=1e-12), "spline path span 2e+12 exceeds"),
        (dict(rho=1e12), "camera-2 frame count 1.38e+14 exceeds"),
        (dict(rho=1e12, motion="exact-linear"), "camera-2 frame count 9.9e+13 exceeds"),
        (dict(waypoint_spacing=1e-300), "waypoint count 1.79e+302 exceeds 100000"),
        (dict(waypoint_spacing=1e-3), "waypoint count 1.79e+05 exceeds"),
        (dict(n_frames=10**12), "n_frames must be <= 200000"),
        (dict(n_frames=10**400), "n_frames must be <= 200000"),
        (dict(n_tracks=10**400), "sample count 238000"),
        (dict(n_frames=199_000, n_tracks=6), "sample count 2388228 exceeds 2000000"),
    ])
    def test_oversized_scene_rejected_before_allocation(self, fields, message):
        # only the spec is built, never the scene: most of these would not fit in memory
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            SceneSpec(**fields)

    def test_scene_at_the_caps_accepted(self):
        SceneSpec(n_frames=199_000, n_tracks=5)  # 1,990,190 samples
        SceneSpec(n_frames=10, n_tracks=30_000)
        SceneSpec(waypoint_spacing=1.8e-3)  # 99,446 waypoints
        SceneSpec(beta_gt=-9e4, waypoint_spacing=float("inf"))

    def test_exact_linear_cap_counts_the_frames_made(self):
        # ceil(199,959.5) + 40 = 200,000 camera-2 frames, the cap itself
        SceneSpec(motion="exact-linear", n_frames=199_960, beta_gt=0.5)
        with pytest.raises(ValueError, match=r"^camera-2 frame count 2e\+05 exceeds 200000$"):
            SceneSpec(motion="exact-linear", n_frames=199_961, beta_gt=0.5)
        for beta, rho in ((0.5, 1.0), (-3.0, 1.0), (2.25, 0.7)):
            spec = SceneSpec(motion="exact-linear", n_frames=30, beta_gt=beta, rho=rho)
            _, t2, _ = generate_scene(spec)
            assert [len(t) for t in t2] == [synth._camera2_frames(spec)] * 2

    @pytest.mark.parametrize("rho, frames", [(1e-12, 1), (0.01, 1), (0.05, 6), (0.0725, 10)])
    def test_camera2_frame_floor(self, rho, frames):
        # 100 camera-1 frames and beta = 0: camera 2 has floor(rho * 138)
        # frames, at least one, and SceneSpec rejects fewer than 10
        if frames < 10:
            with pytest.raises(ValueError,
                               match=f"^camera-2 frame count {frames} is below 10$"):
                SceneSpec(rho=rho)
        else:
            _, t2, _ = generate_scene(SceneSpec(rho=rho))
            assert [len(t) for t in t2] == [frames, frames]

    @given(
        beta=st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False)),
        rho=st.one_of(st.floats(0.1, 10.0), st.floats(1e-300, 1e300)),
        spacing=st.one_of(st.floats(1.0, 500.0), st.just(math.inf), st.floats(1e-300, 1e300)),
        n_frames=st.one_of(st.integers(10, 1000), st.integers(10, 10**13)),
        motion=st.sampled_from(["smooth-random", "planar-smooth"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_accepted_spec_has_distinct_finite_knots(self, beta, rho, spacing, n_frames,
                                                     motion):
        # the spline builder has no input checks of its own: it relies on these
        try:
            spec = SceneSpec(beta_gt=beta, rho=rho, waypoint_spacing=spacing,
                             n_frames=n_frames, motion=motion)
        except ValueError:
            return
        knots = synth._knots(spec)
        assert 4 <= len(knots) <= synth._MAX_WAYPOINTS
        assert np.isfinite(knots).all()
        assert (np.diff(knots) > 0).all()
        assert knots[0] <= -40.0 and knots[-1] >= n_frames + 39.0


def _bits(a):
    """An array's bytes and shape: equal bits, including the sign of zero."""
    a = np.asarray(a)
    return a.shape, a.tobytes()


class TestNotAKnotSpline:
    """The spline builder and evaluator give scipy's CubicSpline bytes."""

    @given(
        n=st.integers(4, 40),
        uneven=st.booleans(),
        offset=st.floats(-1e4, 1e4),
        span=st.floats(1.0, 1e4),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 3.0, 1e3]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_cubic_spline(self, n, uneven, offset, span, seed, scale):
        rng = np.random.default_rng(seed)
        if uneven:
            x = offset + np.cumsum(np.concatenate([[0.0], rng.uniform(0.01, 1.0, n - 1)]))
            x = offset + (x - offset) * (span / (x[-1] - offset))
        else:
            x = np.linspace(offset, offset + span, n)  # as synth._knots spaces them
        assert (np.diff(x) > 0).all()
        y = 10.0 + rng.normal(0.0, scale, size=(n, 3))
        reference = CubicSpline(x, y, axis=0)
        coef = synth._not_a_knot(x, y)
        assert _bits(coef) == _bits(reference.c)
        inside = rng.uniform(x[0], x[-1], 25)
        step = 1e-3 * span
        t = np.concatenate([
            x,  # at the knots, both ends included
            (x[:-1] + x[1:]) / 2,  # between them
            inside,
            [x[0] - step, x[0] - 10 * step, x[-1] + step, x[-1] + 10 * step],  # outside
            np.nextafter(x[[0, -1]], [-np.inf, np.inf]),  # just outside
            np.nextafter(x[1:-1], -np.inf),  # just before the interior knots
        ])
        assert _bits(synth._piecewise_cubic(x, coef, t)) == _bits(reference(t))


class TestSmoothScenes:
    def test_clean_pairs_satisfy_epipolar_constraint(self):
        _, _, gt = generate_scene(SceneSpec(seed=0, noise_sigma=0.0))
        assert _epipolar_max(gt) < 1e-8

    def test_epipolar_constraint_holds_under_time_shift(self):
        _, _, gt = generate_scene(SceneSpec(seed=1, beta_gt=7.3, noise_sigma=0.0))
        assert _epipolar_max(gt) < 1e-8

    def test_mean_image_speed_near_target(self):
        t1, _, _ = generate_scene(SceneSpec(seed=2, noise_sigma=0.0, n_tracks=4))
        steps = []
        for t in t1:
            xy = np.array([[s.u, s.v] for s in t.samples])
            steps.append(np.linalg.norm(np.diff(xy, axis=0), axis=1))
        mean_speed = float(np.mean(np.concatenate(steps)))
        assert 6.0 <= mean_speed <= 10.0

    def test_points_inside_image(self):
        t1, t2, _ = generate_scene(SceneSpec(seed=3, noise_sigma=0.0))
        for t in t1 + t2:
            for s in t.samples:
                assert -50.0 <= s.u <= 1050.0 and -50.0 <= s.v <= 1050.0

    def test_bitwise_deterministic(self):
        spec = SceneSpec(seed=4, beta_gt=2.0, n_tracks=3)
        a1, a2, _ = generate_scene(spec)
        b1, b2, _ = generate_scene(spec)
        for ta, tb in zip(a1 + a2, b1 + b2):
            assert ta.track_id == tb.track_id
            for sa, sb in zip(ta.samples, tb.samples):
                assert (sa.frame, sa.u, sa.v) == (sb.frame, sb.u, sb.v)

    def test_noise_standard_deviation(self):
        spec = SceneSpec(seed=5, noise_sigma=1.5, n_tracks=8, n_frames=200)
        t1, _, gt = generate_scene(spec)
        deltas = []
        for t in t1:
            # camera 1 samples frames 0 .. n_frames - 1, the rows of sync_pairs
            assert t.frames.tolist() == list(range(spec.n_frames))
            deltas.append(t.points - gt.sync_pairs[t.track_id][:, :2])
        assert np.std(np.concatenate(deltas)) == pytest.approx(1.5, rel=0.05)

    def test_planar_scene_has_homography(self):
        _, _, gt = generate_scene(
            SceneSpec(seed=6, motion="planar-smooth", noise_sigma=0.0)
        )
        assert gt.h is not None
        for arr in gt.sync_pairs.values():
            x1 = np.column_stack([arr[:, :2], np.ones(len(arr))])
            mapped = x1 @ gt.h.m.T
            mapped = mapped[:, :2] / mapped[:, 2:]
            assert np.max(np.abs(mapped - arr[:, 2:])) < 1e-8

    def test_nonplanar_scene_has_no_homography(self):
        _, _, gt = generate_scene(SceneSpec(seed=7))
        assert gt.h is None


class TestExactLinearScenes:
    def test_f_flavor_satisfies_epipolar_exactly(self):
        _, _, gt = generate_scene(
            SceneSpec(seed=8, motion="exact-linear", beta_gt=3.0, noise_sigma=0.0)
        )
        assert _epipolar_max(gt) < 1e-8

    def test_camera2_tracks_have_constant_velocity(self):
        _, t2, _ = generate_scene(
            SceneSpec(seed=9, motion="exact-linear", noise_sigma=0.0)
        )
        for t in t2:
            xy = np.array([[s.u, s.v] for s in t.samples])
            steps = np.diff(xy, axis=0)
            assert np.max(np.abs(steps - steps[0])) < 1e-9

    def test_h_flavor_is_homography_consistent(self):
        _, _, gt = generate_scene(
            SceneSpec(
                seed=10, motion="exact-linear", exact_model="H", noise_sigma=0.0
            )
        )
        assert gt.h is not None
        for arr in gt.sync_pairs.values():
            x1 = np.column_stack([arr[:, :2], np.ones(len(arr))])
            mapped = x1 @ gt.h.m.T
            mapped = mapped[:, :2] / mapped[:, 2:]
            assert np.max(np.abs(mapped - arr[:, 2:])) < 1e-8


class TestInjectOutliers:
    def setup_method(self):
        self.t1, self.t2, _ = generate_scene(
            SceneSpec(seed=11, n_tracks=4, n_frames=100)
        )

    def test_exact_count_replaced(self):
        (new1, _), labels = inject_outliers(self.t1, self.t2, 0.3, seed=1)
        total = sum(len(t) for t in self.t1)
        assert sum(int(lab.sum()) for lab in labels.values()) == int(total * 0.3)

    def test_labels_mark_exactly_the_changed_samples(self):
        (new1, new2), labels = inject_outliers(self.t1, self.t2, 0.25, seed=2)
        assert new2 is self.t2
        for told, tnew in zip(self.t1, new1):
            lab = labels[told.track_id]
            for i, (a, b) in enumerate(zip(told.samples, tnew.samples)):
                changed = (a.u, a.v) != (b.u, b.v)
                assert changed == bool(lab[i])
                assert a.frame == b.frame

    def test_zero_fraction_is_identity(self):
        (new1, _), labels = inject_outliers(self.t1, self.t2, 0.0, seed=3)
        for told, tnew in zip(self.t1, new1):
            assert told.samples == tnew.samples
        assert all(not lab.any() for lab in labels.values())

    @pytest.mark.parametrize("fraction, seed", [(0.1, 6), (0.3, 7), (0.5, 8)])
    def test_same_draws_as_one_sample_at_a_time(self, fraction, seed):
        """Reference: one scalar uniform draw for u, then one for v, per
        replaced sample in track then sample order."""
        rng = np.random.default_rng(seed)
        flat = [(ti, si) for ti, t in enumerate(self.t1) for si in range(len(t))]
        picks = rng.choice(len(flat), size=int(len(flat) * fraction), replace=False)
        chosen = {flat[int(p)] for p in picks}
        (new1, _), labels = inject_outliers(self.t1, self.t2, fraction, seed=seed)
        for ti, (told, tnew) in enumerate(zip(self.t1, new1)):
            want = told.points.copy()
            for si in range(len(told)):
                if (ti, si) in chosen:
                    want[si] = float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000))
            assert tnew.points.tobytes() == want.tobytes()
            assert labels[told.track_id].tolist() == [
                (ti, si) in chosen for si in range(len(told))
            ]

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            inject_outliers(self.t1, self.t2, 1.0, seed=4)
        with pytest.raises(ValueError):
            inject_outliers(self.t1, self.t2, -0.1, seed=4)

    def test_deterministic(self):
        (a1, _), la = inject_outliers(self.t1, self.t2, 0.3, seed=5)
        (b1, _), lb = inject_outliers(self.t1, self.t2, 0.3, seed=5)
        for ta, tb in zip(a1, b1):
            assert ta.samples == tb.samples
        for k in la:
            assert np.array_equal(la[k], lb[k])


class TestGroundTruthProbes:
    def test_probe_pairs_are_clean_and_bounded(self):
        _, _, gt = generate_scene(SceneSpec(seed=12, noise_sigma=0.5))
        pairs = gt.probe_pairs()
        assert len(pairs) == 24  # two tracks of 25 rows each, cut at the bound
        for a, b in pairs:
            x1 = np.append(a, 1.0)
            x2 = np.append(b, 1.0)
            assert abs(x2 @ gt.f.m @ x1) < 1e-6
