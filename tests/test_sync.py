"""Iterative large-shift synchronization loop."""

import numpy as np
import pytest

from camsync import (
    IterParams,
    NeverImproved,
    NotEnoughCorrespondences,
    RansacParams,
    SceneSpec,
    Trajectory,
    generate_scene,
    iterative_sync,
)
from camsync.robust import KIND_F_7PT, KIND_F_GEP, KIND_H_4PT, KIND_H_MIN
from camsync.sync import SyncRun, _round_half_away


def clean_scene(seed, beta_gt, n_frames=240):
    """Long, smooth, noise-free tracks: the regime the loop is built for."""
    spec = SceneSpec(
        seed=seed,
        beta_gt=float(beta_gt),
        noise_sigma=0.0,
        n_tracks=10,
        n_frames=n_frames,
        waypoint_spacing=300.0,
        speed_px_per_frame=4.0,
    )
    return generate_scene(spec)


def loop_params(seed=0, k_max=20, p_min=0, p_max=5, threshold=5.0):
    return IterParams(
        kind=KIND_F_GEP,
        k_max=k_max,
        p_min=p_min,
        p_max=p_max,
        ransac=RansacParams(seed=seed, max_iterations=200, threshold=threshold),
    )


class TestRounding:
    def test_round_half_away(self):
        assert _round_half_away(0.5) == 1
        assert _round_half_away(-0.5) == -1
        assert _round_half_away(1.4) == 1
        assert _round_half_away(-2.6) == -3
        assert _round_half_away(0.0) == 0


class TestIterParams:
    def test_validation(self):
        for bad in (0, 1):
            with pytest.raises(ValueError, match="k_max must be >= 2"):
                IterParams(kind=KIND_F_GEP, k_max=bad)
        with pytest.raises(ValueError):
            IterParams(kind=KIND_F_GEP, p_min=3, p_max=1)
        with pytest.raises(ValueError, match="unknown solver kind 'bogus'"):
            IterParams(kind="bogus")

    @pytest.mark.parametrize("field", ["k_max", "p_min", "p_max"])
    def test_non_integer_field_is_rejected(self, field):
        # a float p_max or p_min used to fail later, as an IndexError inside
        # the loop; a float k_max was accepted
        for bad in (2.5, 3.0, 0.5, True, np.bool_(False), "3"):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                IterParams(kind=KIND_F_GEP, **{field: bad})
        assert getattr(IterParams(kind=KIND_F_GEP, **{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("kind", [KIND_F_7PT, KIND_H_4PT])
    def test_kind_that_holds_the_shift_is_rejected(self, kind):
        # the loop steps by the estimated shift; a baseline's is always 0, so
        # it would never move yet report a shift
        with pytest.raises(ValueError, match=f"solver kind '{kind}' does not estimate"):
            IterParams(kind=kind)


class TestIterativeSync:
    def test_zero_shift(self):
        t1, t2, _ = clean_scene(seed=0, beta_gt=0.0, n_frames=120)
        run = iterative_sync(t1, t2, loop_params(seed=0, k_max=8, p_max=3))
        assert abs(run.beta_total) < 0.5

    def test_large_positive_shift(self):
        for seed in (1, 2):
            t1, t2, _ = clean_scene(seed=seed, beta_gt=50.0)
            run = iterative_sync(t1, t2, loop_params(seed=seed))
            assert abs(run.beta_total - 50.0) < 1.0

    def test_negative_shift(self):
        t1, t2, _ = clean_scene(seed=3, beta_gt=-10.0)
        run = iterative_sync(t1, t2, loop_params(seed=3))
        assert abs(run.beta_total + 10.0) < 1.0

    def test_accepted_counts_strictly_increase(self):
        t1, t2, _ = clean_scene(seed=4, beta_gt=20.0)
        run = iterative_sync(t1, t2, loop_params(seed=4))
        counts = [r.inlier_count for r in run.iterations if r.accepted]
        assert len(counts) >= 1
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_replay_consistency_from_log(self):
        t1, t2, _ = clean_scene(seed=5, beta_gt=20.0)
        run = iterative_sync(t1, t2, loop_params(seed=5))
        accepted = [r for r in run.iterations if r.accepted]
        # the accumulated offset is the sum of the rounded accepted steps
        offset = sum(_round_half_away(r.beta_k) for r in accepted)
        assert accepted[-1].j_after == offset
        last = accepted[-1].beta_k
        assert run.beta_total == pytest.approx(
            offset - _round_half_away(last) + last, abs=1e-12
        )

    def test_bounded_work(self):
        t1, t2, _ = clean_scene(seed=6, beta_gt=20.0)
        params = loop_params(seed=6)
        run = iterative_sync(t1, t2, params)
        # two directional attempts per logged iteration, none silently dropped
        assert run.ransac_calls == 2 * len(run.iterations)
        rejected = sum(1 for r in run.iterations if not r.accepted)
        assert run.ransac_calls <= 2 * (run.accepted_steps + rejected)
        assert run.accepted_steps < params.k_max

    def test_skip_streak_bounded_by_p_max(self):
        t1, t2, _ = clean_scene(seed=7, beta_gt=10.0)
        params = loop_params(seed=7, p_max=3)
        run = iterative_sync(t1, t2, params)
        assert all(r.skipped_after <= params.p_max + 1 for r in run.iterations)

    def test_deterministic(self):
        t1, t2, _ = clean_scene(seed=8, beta_gt=10.0, n_frames=120)
        a = iterative_sync(t1, t2, loop_params(seed=9, k_max=10))
        b = iterative_sync(t1, t2, loop_params(seed=9, k_max=10))
        assert a.beta_total == b.beta_total
        assert len(a.iterations) == len(b.iterations)
        assert np.array_equal(a.model.m, b.model.m)

    def test_no_shared_tracks_raises(self):
        t1, t2, _ = clean_scene(seed=10, beta_gt=0.0, n_frames=120)
        renamed = [
            type(t)(camera_id=t.camera_id, track_id=t.track_id + "_x", frames=t.frames,
                    points=t.points)
            for t in t2
        ]
        with pytest.raises(NotEnoughCorrespondences):
            iterative_sync(t1, renamed, loop_params())

    def test_never_improved_when_nothing_scores(self, monkeypatch):
        import camsync.sync as sync_mod

        t1, t2, _ = clean_scene(seed=11, beta_gt=0.0, n_frames=120)

        class _Dud:
            inlier_count = 0

            class best:
                beta = 0.0
                model = None

        monkeypatch.setattr(sync_mod, "ransac_estimate", lambda *a, **k: _Dud())
        with pytest.raises(NeverImproved):
            iterative_sync(t1, t2, loop_params(k_max=4, p_max=1))

    def test_result_type(self):
        t1, t2, _ = clean_scene(seed=12, beta_gt=0.0, n_frames=120)
        run = iterative_sync(t1, t2, loop_params(seed=12, k_max=6, p_max=2))
        assert isinstance(run, SyncRun)
        assert run.accepted_steps == sum(1 for r in run.iterations if r.accepted)


class TestFirstIteration:
    """A direction without enough rows is passed over, even on the first pass."""

    def test_one_short_direction_does_not_end_the_sync(self, monkeypatch):
        import camsync.sync as sync_mod

        real = sync_mod.ransac_estimate

        def plus_only(traj1, traj2, kind, params):
            if params.d < 0:
                raise NotEnoughCorrespondences(f"no rows at d={params.d}")
            return real(traj1, traj2, kind, params)

        monkeypatch.setattr(sync_mod, "ransac_estimate", plus_only)
        t1, t2, _ = generate_scene(SceneSpec(
            seed=4, beta_gt=12.0, noise_sigma=0.5, n_tracks=6, n_frames=120,
            waypoint_spacing=300.0, speed_px_per_frame=4.0,
        ))
        run = iterative_sync(t1, t2, loop_params(seed=4))
        assert abs(run.beta_total - 12.0) < 1.0
        assert run.ransac_calls == 2 * len(run.iterations)
        assert all(r.direction == 1 for r in run.iterations)

    def test_three_frame_tracks(self):
        # camera-1 frames 0..2: h-min has 3 rows per track at d = +1 and 2 at d = -1
        t1, t2, _ = generate_scene(SceneSpec(
            seed=1, noise_sigma=0.0, n_frames=40, motion="planar-smooth",
        ))
        short = [Trajectory(t.camera_id, t.track_id, t.frames[:3], t.points[:3]) for t in t1]
        params = IterParams(
            kind=KIND_H_MIN, k_max=4, p_max=1,
            ransac=RansacParams(seed=0, max_iterations=50, threshold=3.0),
        )
        run = iterative_sync(short, t2, params)
        assert abs(run.beta_total) < 1e-6
        assert run.iterations[0].inlier_count == 6
        # one track: neither direction has 5 rows, and the +d error is raised
        with pytest.raises(NotEnoughCorrespondences, match="^3 valid correspondences"):
            iterative_sync(short[:1], t2, params)
