"""Camera pose recovery from a fundamental matrix and pose error metrics."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from camsync import (
    CameraCalib,
    CheiralityAmbiguous,
    ZeroVector,
    decompose_f,
    fundamental_from_calib,
    relative_pose,
    rotation_error,
    translation_error,
)
from camsync.pose import triangulate


def _axis_rotation(axis, degrees):
    return Rotation.from_rotvec(np.asarray(axis, float) * math.radians(degrees)).as_matrix()


def _default_k():
    return np.array([[1000.0, 0.0, 500.0], [0.0, 1000.0, 500.0], [0.0, 0.0, 1.0]])


def _camera_pair(rng=None, pure_translation=False):
    k = _default_k()
    c1 = CameraCalib(K=k, R=np.eye(3), t=np.zeros(3))
    if pure_translation:
        r2 = np.eye(3)
    else:
        rng = rng or np.random.default_rng(0)
        r2 = _axis_rotation(rng.normal(size=3), rng.uniform(5, 20))
    center2 = np.array([2.0, 0.5, -0.5])
    t2 = -r2 @ center2
    c2 = CameraCalib(K=k, R=r2, t=t2)
    return c1, c2


def _probes(c1, c2, n=12, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.array([0.0, 0.0, 10.0]) + rng.uniform(-2, 2, size=(n, 3))
    cams = [c.K @ np.hstack([c.R, c.t.reshape(3, 1)]) for c in (c1, c2)]  # K [R | t]
    out = []
    for x in pts:
        p1, p2 = (p @ np.append(x, 1.0) for p in cams)
        out.append((p1[:2] / p1[2], p2[:2] / p2[2]))
    return out


class TestDecomposeF:
    def test_recovers_known_pose(self):
        c1, c2 = _camera_pair()
        f = fundamental_from_calib(c1, c2)
        r_gt, t_gt = relative_pose(c1, c2)
        r, t = decompose_f(f, c1.K, c2.K, _probes(c1, c2))
        assert rotation_error(r, r_gt) < 0.1
        assert translation_error(t, t_gt) < 1e-6

    def test_pure_translation_rig(self):
        c1, c2 = _camera_pair(pure_translation=True)
        f = fundamental_from_calib(c1, c2)
        r, t = decompose_f(f, c1.K, c2.K, _probes(c1, c2))
        assert rotation_error(r, np.eye(3)) < 0.1
        _, t_gt = relative_pose(c1, c2)
        assert translation_error(t, t_gt) < 1e-6

    def test_roundtrip_random_configurations(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            c1, c2 = _camera_pair(rng)
            f = fundamental_from_calib(c1, c2)
            r_gt, t_gt = relative_pose(c1, c2)
            r, t = decompose_f(f, c1.K, c2.K, _probes(c1, c2, seed=seed))
            assert rotation_error(r, r_gt) < 1e-5
            assert translation_error(t, t_gt) < 1e-7

    def test_cheirality_picks_in_front_candidate(self):
        # the winning candidate is exactly the ground-truth pose, for which
        # every probe triangulates in front of both cameras
        c1, c2 = _camera_pair()
        f = fundamental_from_calib(c1, c2)
        r, t = decompose_f(f, c1.K, c2.K, _probes(c1, c2))
        r_gt, t_gt = relative_pose(c1, c2)
        p1_mat = c1.K @ np.hstack([np.eye(3), np.zeros((3, 1))])
        p2_mat = c2.K @ np.hstack([r, t[:, None]])
        for a, b in _probes(c1, c2, n=4):
            x = triangulate(p1_mat, p2_mat, a, b)
            assert x[2] > 0
            x2 = r @ x + t
            assert x2[2] > 0

    def test_no_probes_rejected(self):
        c1, c2 = _camera_pair()
        f = fundamental_from_calib(c1, c2)
        with pytest.raises(ValueError):
            decompose_f(f, c1.K, c2.K, [])


class TestRotationError:
    def test_identity(self):
        r = _axis_rotation([0, 0, 1], 33.0)
        assert rotation_error(r, r) == pytest.approx(0.0, abs=1e-9)

    def test_ten_degrees_about_any_axis(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            base = _axis_rotation(rng.normal(size=3), rng.uniform(0, 180))
            rotated = base @ _axis_rotation(axis, 10.0)
            assert rotation_error(rotated, base) == pytest.approx(10.0, abs=1e-9)

    def test_matches_quaternion_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ra = Rotation.random(random_state=rng)
            rb = Rotation.random(random_state=rng)
            expected = math.degrees((ra.inv() * rb).magnitude())
            assert rotation_error(ra.as_matrix(), rb.as_matrix()) == pytest.approx(
                expected, abs=1e-9
            )


class TestTranslationError:
    def test_identical_directions(self):
        assert translation_error([1, 2, 3], [2, 4, 6]) == pytest.approx(0.0, abs=1e-12)

    def test_opposite_directions_are_equal(self):
        assert translation_error([1, 0, 0], [-1, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_unit_vectors(self):
        assert translation_error([1, 0, 0], [0, 1, 0]) == pytest.approx(math.sqrt(2))

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            translation_error([0, 0, 0], [1, 0, 0])
