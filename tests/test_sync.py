"""Iterative large-shift synchronization loop."""

import numpy as np
import pytest

from camsync import (
    IterParams,
    NeverImproved,
    NotEnoughCorrespondences,
    RansacParams,
    SceneSpec,
    generate_scene,
    iterative_sync,
)
from camsync.robust import KIND_F_GEP
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
        with pytest.raises(ValueError):
            IterParams(kind=KIND_F_GEP, k_max=0)
        with pytest.raises(ValueError):
            IterParams(kind=KIND_F_GEP, p_min=3, p_max=1)
        with pytest.raises(ValueError, match="unknown solver kind 'bogus'"):
            IterParams(kind="bogus")


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
