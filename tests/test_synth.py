"""Synthetic scene generator: geometric consistency, calibration, determinism."""

import numpy as np
import pytest

from camsync import (
    SceneSpec,
    generate_scene,
    inject_outliers,
)
from camsync.geometry import sampson_distances


def _epipolar_max(gt):
    """Largest first-order epipolar residual over all clean synchronized pairs."""
    worst = 0.0
    for arr in gt.sync_pairs.values():
        x1 = np.column_stack([arr[:, :2], np.ones(len(arr))])
        x2 = np.column_stack([arr[:, 2:], np.ones(len(arr))])
        worst = max(worst, float(np.max(sampson_distances(gt.f.m, x1, x2))))
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
