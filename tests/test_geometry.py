"""Core types, linearization, and residual metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsync import (
    ImageSample,
    MissingFrame,
    SingularModel,
    Trajectory,
    TwoViewModel,
    ZeroVector,
    linearize,
)
from camsync.geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    sampson,
    symmetric_transfer,
)

import reference_kernels as ref
from reference_kernels import model_distance


def line_trajectory(a, w, n=30, camera_id="cam2", track_id="t0"):
    """Exact constant-velocity image track s_j = a + j * w."""
    a = np.asarray(a, dtype=float)
    w = np.asarray(w, dtype=float)
    frames = np.arange(n)
    points = [(float(a[0] + j * w[0]), float(a[1] + j * w[1])) for j in range(n)]
    return Trajectory(camera_id, track_id, frames, points)


class TestImageSampleAndTrajectory:
    def test_rejects_nonfinite_coordinates(self):
        with pytest.raises(ValueError):
            ImageSample(frame=0, u=float("nan"), v=0.0)
        with pytest.raises(ValueError):
            ImageSample(frame=0, u=0.0, v=float("inf"))

    def test_rejects_negative_frame(self):
        with pytest.raises(ValueError):
            ImageSample(frame=-1, u=0.0, v=0.0)

    def test_frames_strictly_increasing(self):
        good = [[0.0, 0.0], [1.0, 1.0]]
        Trajectory(camera_id="c", track_id="t", frames=[0, 2], points=good)
        with pytest.raises(ValueError):
            Trajectory(camera_id="c", track_id="t", frames=[2, 2], points=good)

    def test_trajectory_holds_read_only_copies(self):
        frames, points = np.array([0, 2**63 - 1]), np.array([[0.0, 1.0], [-0.0, 3.0]])
        t = Trajectory("c", "t", frames, points)
        assert t.frames.dtype == np.int64 and t.points.dtype == np.float64
        assert not t.frames.flags.writeable and not t.points.flags.writeable
        frames[0], points[0, 0] = 5, 9.0
        assert t.frames.tolist() == [0, 2**63 - 1] and t.points[0, 0] == 0.0
        assert t.samples == (ImageSample(0, 0.0, 1.0), ImageSample(2**63 - 1, -0.0, 3.0))
        assert len(t) == 2
        assert t == Trajectory("c", "t", [0, 2**63 - 1], [(0.0, 1.0), (0.0, 3.0)])
        assert t != Trajectory("c", "t", [0, 2**63 - 2], [(0.0, 1.0), (0.0, 3.0)])
        assert t != Trajectory("c", "u", [0, 2**63 - 1], [(0.0, 1.0), (0.0, 3.0)])

    @pytest.mark.parametrize("frames, points", [
        ([-1, 0], [(0.0, 0.0), (1.0, 1.0)]),
        ([1, 0], [(0.0, 0.0), (1.0, 1.0)]),
        ([0, 1], [(0.0, math.nan), (1.0, 1.0)]),
        ([0, 1], [(0.0, 0.0), (math.inf, 1.0)]),
        ([0, 1, 2], [(0.0, 0.0), (1.0, 1.0)]),
        ([0, 1], [(0.0, 0.0, 1.0), (1.0, 1.0, 1.0)]),
        ([[0, 1]], [(0.0, 0.0), (1.0, 1.0)]),
    ])
    def test_trajectory_rejects_bad_arrays(self, frames, points):
        with pytest.raises(ValueError):
            Trajectory("c", "t", frames, points)

    def test_contiguous_never_crosses_gap(self):
        frames = [0, 1, 2, 5, 6]
        t = Trajectory("c", "t", frames, [(float(f), 0.0) for f in frames])

        def contiguous(a, b):
            return bool(t.runs(np.array([a]), b - a)[1][0])

        assert contiguous(0, 2)
        assert contiguous(5, 6)
        assert not contiguous(2, 5)
        assert not contiguous(0, 6)


class TestLinearize:
    def test_exact_line_d1(self):
        a, w = np.array([100.0, 200.0]), np.array([3.0, -1.0])
        traj = line_trajectory(a, w)
        lin = linearize(traj, i=5, beta0=0.0, rho=1.0, d=1)
        assert np.allclose(lin.v_vec, w)
        for beta in (-1.0, -0.25, 0.0, 0.7, 1.0):
            expected = a + (5 * 1.0 + beta) * w
            assert np.allclose(lin.u_vec + beta * lin.v_vec, expected, atol=1e-12)

    def test_v_independent_of_d_on_exact_line(self):
        a, w = np.array([50.0, 60.0]), np.array([-2.0, 4.0])
        traj = line_trajectory(a, w)
        v1 = linearize(traj, i=10, beta0=0.0, rho=1.0, d=1).v_vec
        v4 = linearize(traj, i=10, beta0=0.0, rho=1.0, d=4).v_vec
        assert np.allclose(v1, v4, atol=1e-12)
        assert np.allclose(v1, w, atol=1e-12)

    def test_prediction_exact_within_d_span(self):
        a, w = np.array([10.0, 20.0]), np.array([1.5, 0.5])
        traj = line_trajectory(a, w, n=40)
        for d in (1, 2, 4, -3):
            lin = linearize(traj, i=15, beta0=0.0, rho=1.0, d=d)
            for beta in np.linspace(-abs(d), abs(d), 9):
                expected = a + (15 + beta) * w
                assert np.allclose(lin.u_vec + beta * lin.v_vec, expected, atol=1e-12)

    def test_fractional_beta0_alignment(self):
        # with beta0 = 0.5, u + delta v is the track at beta0 + rho*i + delta
        a, w = np.array([0.0, 0.0]), np.array([2.0, 1.0])
        traj = line_trajectory(a, w)
        lin = linearize(traj, i=6, beta0=0.5, rho=1.0, d=1)
        for delta in (-0.3, 0.0, 0.4):
            expected = a + (0.5 + 6 + delta) * w
            assert np.allclose(lin.u_vec + delta * lin.v_vec, expected, atol=1e-12)

    def test_missing_frame_beyond_end(self):
        traj = line_trajectory([0, 0], [1, 1], n=10)
        with pytest.raises(MissingFrame):
            linearize(traj, i=9, beta0=0.0, rho=1.0, d=1)
        # camera-2 times whose secant frames do not fit int64; at 2**63 - 1024
        # the anchor fits and the far end does not
        for beta0, d in ((1e19, 1), (-1e19, 1), (9.3e18, 1), (float("nan"), 1),
                         (2.0**63 - 1024, 5000)):
            with pytest.raises(MissingFrame):
                linearize(traj, i=0, beta0=beta0, rho=1.0, d=d)

    def test_missing_frame_in_gap(self):
        frames = [0, 1, 2, 5, 6, 7]
        traj = Trajectory("c", "t", frames, [(float(f), 0.0) for f in frames])
        with pytest.raises(MissingFrame):
            linearize(traj, i=2, beta0=0.0, rho=1.0, d=1)
        # both secant ends present, frames between them missing
        for i, d in ((2, 4), (6, -4), (1, 5)):
            with pytest.raises(MissingFrame, match="gap between"):
                linearize(traj, i=i, beta0=0.0, rho=1.0, d=d)

    def test_d_zero_rejected(self):
        traj = line_trajectory([0, 0], [1, 1])
        with pytest.raises(ValueError):
            linearize(traj, i=3, beta0=0.0, rho=1.0, d=0)


def _sampson_by_hand(f, p1, p2):
    """Independent scalar evaluation of the first-order point-to-model bound."""
    x1 = np.array([p1[0], p1[1], 1.0])
    x2 = np.array([p2[0], p2[1], 1.0])
    e = float(x2 @ f @ x1)
    fx1 = f @ x1
    ftx2 = f.T @ x2
    g = fx1[0] ** 2 + fx1[1] ** 2 + ftx2[0] ** 2 + ftx2[1] ** 2
    return abs(e) / math.sqrt(g)


def _row(p):
    """One image point as a (1, 3) homogeneous row."""
    return np.array([[p[0], p[1], 1.0]])


def _sampson(f, p1, p2):
    return sampson(f, _row(p1), _row(p2))[0]


class TestEpipolarResidual:
    def setup_method(self):
        self.f = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        self.model = TwoViewModel.normalized(FUNDAMENTAL, self.f)

    def test_point_on_epipolar_line_is_zero(self):
        # for this model the epipolar line of (0,0) is y' = 0
        assert _sampson(self.model.m, (0.0, 0.0), (5.0, 0.0)) == 0.0

    def test_matches_independent_formula(self):
        val = _sampson(self.model.m, (0.0, 0.0), (0.0, 1.0))
        ref = _sampson_by_hand(self.model.m, (0.0, 0.0), (0.0, 1.0))
        assert val == pytest.approx(ref, abs=1e-12)

    def test_scale_invariance(self):
        a = _sampson(self.model.m, (1.0, 2.0), (3.0, 4.0))
        b = _sampson(-5.0 * self.f, (1.0, 2.0), (3.0, 4.0))
        assert a == pytest.approx(b, abs=1e-12)

    @given(
        x1=st.floats(-100, 100), y1=st.floats(-100, 100),
        x2=st.floats(-100, 100), y2=st.floats(-100, 100),
    )
    @settings(max_examples=50)
    def test_nonnegative_and_matches_oracle(self, x1, y1, x2, y2):
        rng = np.random.default_rng(7)
        f = TwoViewModel.normalized(FUNDAMENTAL, rng.normal(size=(3, 3))).m
        val = _sampson(f, (x1, y1), (x2, y2))
        assert val >= 0.0
        ref = _sampson_by_hand(f, (x1, y1), (x2, y2))
        assert val == pytest.approx(ref, abs=1e-9)

    def test_degenerate_gradient_sentinel(self):
        # rank-1 model whose gradient vanishes at the origin pair
        f = np.zeros((3, 3))
        f[2, 2] = 1.0
        assert _sampson(f, (0.0, 0.0), (0.0, 0.0)) == math.inf

    def test_vectorized_agrees_with_scalar(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(3, 3))
        x1 = rng.uniform(0, 100, size=(20, 2))
        x2 = rng.uniform(0, 100, size=(20, 2))
        x1h = np.column_stack([x1, np.ones(20)])
        x2h = np.column_stack([x2, np.ones(20)])
        vec = sampson(f, x1h, x2h)
        for k in range(20):
            assert vec[k] == pytest.approx(_sampson_by_hand(f, x1[k], x2[k]), abs=1e-9)


@st.composite
def kernel_rows(draw):
    """A model matrix, x1, x2 (n, 3) rows [x, y, 1] and the kinds of row both
    kernels treat apart, for 1 to 12,000 rows.

    Rows can have x = y = 0 in one image, x and y scaled by 1e-16 in one image
    or a NaN coordinate. A matrix is full, full but for m33 = 0 (x = y = 0 in
    image 1 then maps to infinity), has only m33 nonzero (x = y = 0 then
    zeroes the epipolar gradient) or only its upper-left 2x2 block (x = y = 0
    then zeroes the residual). Coordinates and matrices span 1e-3 to 1e3 in
    scale.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.just(1), st.integers(2, 50), st.integers(51, 12_000)))
    x1, x2 = (
        np.column_stack([rng.uniform(-500, 500, (n, 2)) * 10.0 ** draw(st.floats(-3, 3)),
                         np.ones(n)])
        for _ in range(2)
    )
    m = rng.normal(size=(3, 3)) * 10.0 ** draw(st.floats(-3, 3))
    structure = draw(st.sampled_from(["full", "no33", "m33", "2x2"]))
    if structure == "no33":
        m[2, 2] = 0.0
    elif structure == "m33":
        m[:2] = 0.0
        m[2, :2] = 0.0
    elif structure == "2x2":
        m[2] = 0.0
        m[:, 2] = 0.0
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=5, max_size=5))) + 1e-9
    kinds = rng.choice(["plain", "zero1", "zero2", "tiny1", "tiny2", "nan"], n,
                       p=np.concatenate([[weights.sum()], weights]) / (2 * weights.sum()))
    x1[kinds == "zero1", :2] = 0.0
    x2[kinds == "zero2", :2] = 0.0
    x1[kinds == "tiny1", :2] *= 1e-16
    x2[kinds == "tiny2", :2] *= 1e-16
    nan_rows = np.flatnonzero(kinds == "nan")
    x1[nan_rows, rng.integers(0, 2, len(nan_rows))] = np.nan
    return m, x1, x2


class TestEpipolarReduction:
    @settings(max_examples=300, deadline=None)
    @given(kernel_rows())
    def test_bit_identical_to_einsum(self, case):
        f, x1, x2 = case
        got = sampson(f, x1, x2)
        assert got.tobytes() == ref.sampson_distances(f, x1, x2).tobytes()
        assert np.all(got[np.isnan(x1).any(axis=1)] == np.inf)
        # scoring passes column-major rows, as CorrSet.points_at keeps them
        fortran = sampson(f, np.asfortranarray(x1), np.asfortranarray(x2))
        assert fortran.tobytes() == got.tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_rows_bit_identical(self, n):
        # one row runs gemv on the transposed F, two rows gemm on its copy
        rng = np.random.default_rng(40 + n)
        for _ in range(200):
            f = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3, 3)
            x1, x2 = (np.column_stack([rng.uniform(-500, 500, (n, 2)), np.ones(n)])
                      for _ in range(2))
            got = sampson(f, x1, x2)
            assert got.tobytes() == ref.sampson_distances(f, x1, x2).tobytes()


class TestHomographyResidual:
    @staticmethod
    def transfer(h, p1, p2):
        return symmetric_transfer(h, _row(p1), _row(p2))[0]

    def test_identity_zero(self):
        assert self.transfer(np.eye(3), (3.0, 7.0), (3.0, 7.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_identity_euclidean_distance(self):
        assert self.transfer(np.eye(3), (0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_forward_constructed_pair_is_zero(self):
        rng = np.random.default_rng(11)
        h = TwoViewModel.normalized(HOMOGRAPHY, np.eye(3) + 0.1 * rng.normal(size=(3, 3))).m
        s1 = np.array([40.0, 60.0, 1.0])
        mapped = h @ s1
        s2 = mapped[:2] / mapped[2]
        assert self.transfer(h, s1[:2], s2) == pytest.approx(0.0, abs=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        h = np.eye(3) + 0.05 * rng.normal(size=(3, 3))
        a = self.transfer(h, (1, 2), (3, 4))
        b = self.transfer(-7.0 * h, (1, 2), (3, 4))
        assert a == pytest.approx(b, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(kernel_rows())
    def test_bit_identical_to_plain_form(self, case):
        h, x1, x2 = case
        try:
            want = ref.transfer_distances(h, x1, x2)
        except SingularModel:
            with pytest.raises(SingularModel):
                symmetric_transfer(h, x1, x2)
            return
        got = symmetric_transfer(h, x1, x2)
        assert got.tobytes() == want.tobytes()
        fortran = symmetric_transfer(h, np.asfortranarray(x1), np.asfortranarray(x2))
        assert fortran.tobytes() == got.tobytes()
        at_infinity = ((np.abs(x1 @ h.T)[:, 2] <= 1e-14)
                       | (np.abs(x2 @ np.linalg.inv(h).T)[:, 2] <= 1e-14))
        assert np.all(got[at_infinity] == np.inf)


class TestTwoViewModel:
    def test_unit_frobenius_and_sign(self):
        m = TwoViewModel.normalized(FUNDAMENTAL, np.diag([-3.0, -2.0, -1.0]))
        assert np.linalg.norm(m.m) == pytest.approx(1.0)
        flat = m.m.ravel()
        assert flat[np.argmax(np.abs(flat))] > 0

    def test_model_distance_ignores_scale_and_sign(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(3, 3))
        a = TwoViewModel.normalized(FUNDAMENTAL, raw)
        b = TwoViewModel.normalized(FUNDAMENTAL, -4.0 * raw)
        assert model_distance(a, b) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-300, 300), st.booleans(),
           st.sampled_from(["plain", "zero", "nan", "inf"]))
    def test_normalized_bit_identical_to_linalg_norm(self, seed, log_scale, fortran, kind):
        m = np.random.default_rng(seed).normal(size=(3, 3)) * 10.0**log_scale
        if kind != "plain":
            m[1, 2] = {"zero": 0.0, "nan": np.nan, "inf": np.inf}[kind] * m[1, 2]
            m = m * (kind != "zero")
        if fortran:
            m = np.asfortranarray(m)
        with np.errstate(over="ignore"):  # the norm's square overflows past 1e154
            try:
                want = ref.normalized_model(FUNDAMENTAL, m).m
            except ValueError:
                with pytest.raises(ValueError):
                    TwoViewModel.normalized(FUNDAMENTAL, m)
                return
            assert TwoViewModel.normalized(FUNDAMENTAL, m).m.tobytes() == want.tobytes()

    def test_rank2_projection(self):
        rng = np.random.default_rng(6)
        m = TwoViewModel.normalized(FUNDAMENTAL, rng.normal(size=(3, 3)))
        r2 = m.rank2_projected()
        assert abs(np.linalg.det(r2.m)) <= 1e-10
        assert np.linalg.norm(r2.m) == pytest.approx(1.0)
