"""Trajectory CSV / report JSON serialization and the command-line interface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import camsync
from camsync import (
    SceneSpec,
    Trajectory,
    TrajectoryFormatError,
    generate_scene,
)
from camsync.cli import (
    EXIT_ALGORITHM,
    EXIT_INPUT,
    EXIT_OK,
    _final_inlier_fraction,
    main,
    run_sweep,
)
from camsync.geometry import FUNDAMENTAL, TwoViewModel
from camsync.robust import KIND_F_GEP, RansacParams, build_correspondences
from camsync.sync import IterationRecord, SyncRun
from camsync.trajio import (
    read_trajectories,
    sync_report_json,
    trajectories_to_csv_text,
    write_trajectories,
)


def strict_json(text):
    """``json.loads`` that rejects NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def sample_trajectories():
    awkward = [0.1, 1 / 3, 1e-17, 123456.789012345, -0.0]
    t_a = Trajectory(
        camera_id="cam1",
        track_id="t0",
        frames=range(len(awkward)),
        points=[(float(x), float(-x)) for x in awkward],
    )
    t_b = Trajectory(
        camera_id="cam2",
        track_id="t0",
        frames=range(4),
        points=[(1.5 * i, 2.5) for i in range(4)],
    )
    return [t_a, t_b]


class TestTrajectoryCsv:
    def test_round_trip_is_bitwise_exact(self, tmp_path):
        path = tmp_path / "traj.csv"
        trajs = sample_trajectories()
        write_trajectories(path, trajs)
        cams = read_trajectories(path)
        assert sorted(cams) == ["cam1", "cam2"]
        for orig in trajs:
            back = next(t for t in cams[orig.camera_id] if t.track_id == orig.track_id)
            assert back.samples == orig.samples

    def test_emit_parse_emit_is_stable(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectories(path, sample_trajectories())
        text1 = path.read_text()
        cams = read_trajectories(path)
        flat = [t for cam in sorted(cams) for t in cams[cam]]
        assert trajectories_to_csv_text(flat) == text1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TrajectoryFormatError, match="empty"):
            read_trajectories(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cam,track,frame,x,y\n")
        with pytest.raises(TrajectoryFormatError, match=":1:"):
            read_trajectories(path)

    def test_duplicate_sample_reports_line_number(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "camera_id,track_id,frame,u,v\n"
            "c1,t0,0,1.0,2.0\n"
            "c1,t0,0,3.0,4.0\n"
        )
        with pytest.raises(TrajectoryFormatError, match=r"dup\.csv:3: duplicate"):
            read_trajectories(path)

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("camera_id,track_id,frame,u,v\nc1,t0,0,1.0\n")
        with pytest.raises(TrajectoryFormatError, match=":2:"):
            read_trajectories(path)

    def test_non_numeric_field_reports_line_number(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("camera_id,track_id,frame,u,v\nc1,t0,zero,1.0,2.0\n")
        with pytest.raises(TrajectoryFormatError, match=":2:"):
            read_trajectories(path)

    def test_unsorted_rows_are_ordered_by_frame(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text(
            "camera_id,track_id,frame,u,v\n"
            "c1,t0,2,2.0,0.0\n"
            "c1,t0,0,0.0,0.0\n"
            "c1,t0,1,1.0,0.0\n"
        )
        cams = read_trajectories(path)
        frames = [s.frame for s in cams["c1"][0].samples]
        assert frames == [0, 1, 2]


class TestSyncReport:
    def test_json_round_trip(self):
        model = TwoViewModel.normalized(
            FUNDAMENTAL, np.arange(1.0, 10.0).reshape(3, 3)
        )
        # numpy scalars, as RANSAC returns them, are written as JSON numbers
        text = sync_report_json(
            beta=np.float64(12.375),
            rho=1,
            model=model,
            inliers=np.int64(42),
            total=100,
            log=[{"k": 1, "accepted": True}],
            seed=7,
            config={"threshold": 1.0},
        )
        assert strict_json(text) == {
            "beta": 12.375,
            "rho": 1.0,
            "model": {"kind": FUNDAMENTAL, "matrix": model.m.ravel().tolist()},
            "inliers": 42,
            "total": 100,
            "log": [{"k": 1, "accepted": True}],
            "seed": 7,
            "config": {"threshold": 1.0},
        }

    def test_json_is_byte_stable(self):
        model = TwoViewModel.normalized(FUNDAMENTAL, np.eye(3))
        text = sync_report_json(
            beta=0.1, rho=1.0, model=model, inliers=1, total=2, log=[], seed=0,
            config={"z": 1, "a": 2},
        )
        # sorted keys, two-space indent, one trailing newline
        assert text == json.dumps(strict_json(text), sort_keys=True, indent=2) + "\n"
        assert text.startswith('{\n  "beta": 0.1,\n  "config": {\n    "a": 2,')


def _make_scene_csv(path, beta=2.0, motion="exact-linear", noise=0.0, tracks=4,
                    frames=60, seed=0):
    rc = main([
        "synth", "--beta", str(beta), "--motion", motion, "--noise", str(noise),
        "--tracks", str(tracks), "--frames", str(frames), "--seed", str(seed),
        "--out", str(path),
    ])
    assert rc == EXIT_OK
    return path


class TestCliSynth:
    def test_writes_parseable_two_camera_csv(self, tmp_path):
        path = _make_scene_csv(tmp_path / "scene.csv")
        cams = read_trajectories(path)
        assert len(cams) == 2

    def test_ground_truth_sidecar(self, tmp_path):
        out = tmp_path / "scene.csv"
        gt_out = tmp_path / "gt.json"
        rc = main([
            "synth", "--beta", "1.5", "--out", str(out), "--gt-out", str(gt_out),
        ])
        assert rc == EXIT_OK
        payload = strict_json(gt_out.read_text())
        assert payload["beta_gt"] == 1.5
        assert len(payload["f"]) == 9
        assert len(payload["cameras"]) == 2

    def test_invalid_spec_is_input_error(self, tmp_path, capsys):
        rc = main([
            "synth", "--frames", "3", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == EXIT_INPUT
        # non-finite values end in an error that names the field, not a traceback
        for option, value, field in (
            ("--rho", "inf", "rho"),
            ("--beta", "inf", "beta_gt"),
            ("--beta", "-inf", "beta_gt"),
            ("--beta", "nan", "beta_gt"),
            ("--rho", "nan", "rho"),
            ("--noise", "inf", "noise_sigma"),
            ("--speed", "nan", "speed_px_per_frame"),
            ("--spacing", "nan", "waypoint_spacing"),
        ):
            capsys.readouterr()
            rc = main(["synth", f"{option}={value}", "--out", str(tmp_path / "x.csv")])
            err = capsys.readouterr().err
            assert rc == EXIT_INPUT, (option, value)
            assert err.startswith(f"error: {field} must be"), err

    def test_infinite_spacing_is_accepted(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["synth", "--spacing", "inf", "--out", str(out)]) == EXIT_OK
        assert len(read_trajectories(out)) == 2

    def test_no_tracks_is_input_error_and_writes_nothing(self, tmp_path, capsys):
        for tracks in ("0", "-1"):
            out = tmp_path / f"tracks{tracks}.csv"
            assert main(["synth", "--tracks", tracks, "--out", str(out)]) == EXIT_INPUT
            assert capsys.readouterr().err == "error: n_tracks must be >= 1\n"
            assert not out.exists()

    def test_negative_seed_is_input_error_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["synth", "--seed=-1", "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: seed must be non-negative\n"
        assert not out.exists()

    @pytest.mark.parametrize("options, message", [
        (["--beta", "1e15"], "camera-2 frame count"),
        (["--beta", "1e15", "--motion", "exact-linear"], "camera-2 frame count"),
        (["--beta", "1e308"], "camera-2 frame count"),
        (["--beta=-1e308"], "spline path span"),
        (["--beta", "1", "--rho", "1e-12"], "spline path span"),
        (["--frames", str(10**12)], "n_frames must be <= "),
        (["--tracks", str(10**9)], "sample count"),
        (["--spacing", "1e-300"], "waypoint count"),
    ])
    def test_oversized_scene_is_input_error_and_writes_nothing(
        self, tmp_path, capsys, options, message
    ):
        # SceneSpec rejects these before generate_scene allocates anything
        out, gt_out = tmp_path / "x.csv", tmp_path / "gt.json"
        rc = main(["synth", *options, "--out", str(out), "--gt-out", str(gt_out)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists() and not gt_out.exists()

    def test_too_few_camera2_frames_is_input_error_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["synth", "--rho", "0.01", "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: camera-2 frame count 1 is below 10\n"
        assert not out.exists()

    @pytest.mark.parametrize("motion", ["smooth-random", "exact-linear"])
    @pytest.mark.parametrize("speed", ["0", "-5"])
    def test_non_positive_speed_is_input_error_and_writes_nothing(
        self, tmp_path, capsys, motion, speed
    ):
        out = tmp_path / "x.csv"
        rc = main(["synth", f"--speed={speed}", "--motion", motion, "--out", str(out)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == "error: speed_px_per_frame must be positive\n"
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    [],
    ["synth"],
    ["sync", "x.csv", "--bogus"],
    ["sync", "x.csv", "--seed", "one"],
    # argparse reads -1e6 as an option, not a number; --beta=-1e6 is a number
    ["synth", "--beta", "-1e6", "--out", "x.csv"],
])
def test_usage_error_is_input_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: camsync") and "error: " in err
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    assert main(["sync", "--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: camsync sync")


def test_negative_scientific_value_attached_with_equals(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["synth", "--beta=-1.5e1", "--out", str(out)]) == EXIT_OK
    assert len(read_trajectories(out)) == 2


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(camsync.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "camsync", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: camsync ")
    assert "{sync,synth,sweep}" in proc.stdout


@pytest.mark.parametrize("command, option", [
    ("sync", "--out"), ("synth", "--out"), ("synth", "--gt-out"), ("sweep", "--out"),
])
def test_unopenable_output_path_is_input_error(tmp_path, capsys, command, option):
    missing = tmp_path / "no-such-dir" / "out"
    csv_out = tmp_path / "scene.csv"
    if command == "sync":
        argv = ["sync", str(_make_scene_csv(csv_out)), "--single-shot"]
    elif command == "synth":
        argv = ["synth"] + (["--out", str(csv_out)] if option == "--gt-out" else [])
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"betas": [1.0], "ds": [1], "scenes": 1,
                                   "algorithms": ["f-7pt"], "n_frames": 60}))
        argv = ["sweep", str(cfg)]
    capsys.readouterr()
    rc = main([*argv, option, str(missing)])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err
    if option == "--gt-out":  # the ground truth is written after the CSV
        assert len(read_trajectories(csv_out)) == 2


class TestCliSync:
    def test_single_shot_recovers_shift(self, tmp_path, capsys):
        path = _make_scene_csv(tmp_path / "scene.csv", beta=2.0)
        rc = main([
            "sync", str(path), "--single-shot", "--threshold", "1.0",
            "--max-iterations", "200", "--seed", "1",
        ])
        assert rc == EXIT_OK
        report = strict_json(capsys.readouterr().out)
        assert abs(report["beta"] - 2.0) < 1e-4
        assert report["inliers"] == report["total"]

    def test_output_bytes_deterministic(self, tmp_path):
        path = _make_scene_csv(tmp_path / "scene.csv", beta=1.0)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main([
                "sync", str(path), "--single-shot", "--threshold", "1.0",
                "--seed", "3", "--out", str(out),
            ])
            assert rc == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_fps_adds_seconds_to_config(self, tmp_path, capsys):
        path = _make_scene_csv(tmp_path / "scene.csv", beta=2.0)
        rc = main([
            "sync", str(path), "--single-shot", "--threshold", "1.0",
            "--fps", "25.0",
        ])
        assert rc == EXIT_OK
        report = strict_json(capsys.readouterr().out)
        assert report["config"]["beta_seconds"] == pytest.approx(report["beta"] / 25.0)

    def test_iterative_loop_via_cli(self, tmp_path, capsys):
        spec = SceneSpec(
            seed=21, beta_gt=6.0, noise_sigma=0.0, n_tracks=6, n_frames=120,
            waypoint_spacing=300.0, speed_px_per_frame=4.0,
        )
        t1, t2, _ = generate_scene(spec)
        path = tmp_path / "scene.csv"
        write_trajectories(path, t1 + t2)
        rc = main([
            "sync", str(path), "--threshold", "5.0", "--kmax", "10",
            "--pmax", "4", "--max-iterations", "200", "--seed", "2",
        ])
        assert rc == EXIT_OK
        report = strict_json(capsys.readouterr().out)
        assert abs(report["beta"] - 6.0) < 1.0
        assert len(report["log"]) >= 1

    def test_iterative_total_counts_the_accepted_call(self, tmp_path, capsys):
        spec = SceneSpec(
            seed=0, beta_gt=50.0, noise_sigma=0.5, n_tracks=10, n_frames=240,
            waypoint_spacing=300.0, speed_px_per_frame=4.0,
        )
        t1, t2, _ = generate_scene(spec)
        # without camera-2 frames below 60, offset 0 pairs fewer rows than
        # the offsets the loop accepts near beta = 50
        t2 = [
            Trajectory(t.camera_id, t.track_id,
                       t.frames[t.frames >= 60], t.points[t.frames >= 60])
            for t in t2
        ]
        path = tmp_path / "scene.csv"
        write_trajectories(path, t1 + t2)
        rc = main([
            "sync", str(path), "--threshold", "5", "--max-iterations", "100",
            "--seed", "0",
        ])
        assert rc == EXIT_OK
        report = strict_json(capsys.readouterr().out)
        accepted = [e for e in report["log"] if e["accepted"]]
        offset = accepted[-2]["j_after"] if len(accepted) > 1 else 0
        corr, _ = build_correspondences(t1, t2, float(offset), 1.0, accepted[-1]["d"])
        assert report["inliers"] == accepted[-1]["inlier_count"]
        assert report["inliers"] <= report["total"] == len(corr)

    @pytest.mark.parametrize(
        "row", ["cam1,t0,1,nan,1.0", "cam1,t0,1,1.0,inf", "cam1,t0,-1,1.0,1.0"]
    )
    def test_bad_sample_value_is_input_error(self, tmp_path, capsys, row):
        path = tmp_path / "bad.csv"
        path.write_text(
            "camera_id,track_id,frame,u,v\ncam1,t0,0,1.0,1.0\n" + row + "\n"
            "cam2,t0,0,1.0,1.0\n"
        )
        rc = main(["sync", str(path)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {path}:3: ")

    def test_fps_that_overflows_beta_seconds_is_input_error(self, tmp_path, capsys):
        path = _make_scene_csv(tmp_path / "scene.csv", beta=2.0)
        out = tmp_path / "report.json"
        rc = main(["sync", str(path), "--single-shot", "--fps", "1e-320",
                   "--out", str(out)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == "error: beta / fps overflows at fps 1e-320\n"
        assert not out.exists()

    @pytest.mark.parametrize("model", ["F", "H"])
    @pytest.mark.parametrize("big", ["1e308", "1.0000000000000002e150"])
    def test_coordinate_past_the_bound_is_input_error(self, tmp_path, capsys, model, big):
        path = tmp_path / "scene.csv"
        _make_scene_csv(path, beta=2.0)
        with open(path, "a") as fh:
            fh.write(f"cam1,far,0,{big},-{big}\ncam2,far,0,{big},-{big}\n"
                     f"cam1,far,1,-{big},{big}\ncam2,far,1,-{big},{big}\n")
        line = len(path.read_text().splitlines()) - 3
        rc = main(["sync", str(path), "--single-shot", "--model", model])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {path}:{line}: sample coordinates must be at most 1e+150 in magnitude\n"
        )

    def test_coordinate_at_the_bound_is_read(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("camera_id,track_id,frame,u,v\ncam1,t0,0,1e150,-1e150\n")
        (track,) = read_trajectories(path)["cam1"]
        assert track.points.tolist() == [[1e150, -1e150]]

    @pytest.mark.parametrize(
        "opts, message",
        [
            (["--threshold", "0"], "threshold must be positive and finite"),
            (["--threshold", "nan"], "threshold must be positive and finite"),
            (["--single-shot", "--d", "0"], "d must be nonzero"),
            (["--pmin", "3", "--pmax", "1"], "need 0 <= p_min <= p_max"),
            (["--rho", "0"], "rho must be positive and finite"),
            (["--single-shot", "--fps", "0"], "fps must be positive and finite"),
            (["--beta-max", "-1"], "beta_max must be non-negative and finite"),
            (["--beta-max", "nan"], "beta_max must be non-negative and finite"),
            (["--max-iterations", "0"], "max_iterations must be >= 1"),
            (["--max-iterations", "-5"], "max_iterations must be >= 1"),
            (["--single-shot", "--seed", "-1"], "seed must be in [0, 2**64 - 1]"),
            (["--seed", "-1"], "seed must be in [0, 2**64 - 1]"),
            (["--single-shot", "--seed", str(2**64)], "seed must be in [0, 2**64 - 1]"),
            (["--single-shot", "--d", str(2**63)], "|d| must be <= 2**63 - 1"),
            (["--single-shot", "--d", str(-2**63 - 1)], "|d| must be <= 2**63 - 1"),
            (["--single-shot", "--d", str(-2**63)], "|d| must be <= 2**63 - 1"),
            (["--pmin", "63", "--pmax", "63"], "p_max must be <= 62"),
            (["--pmax", "100000"], "p_max must be <= 62"),
            (["--threshold", "inf"], "threshold must be positive and finite"),
            (["--single-shot", "--fps", "inf"], "fps must be positive and finite"),
            (["--kmax", "1"], "k_max must be >= 2"),
            (["--beta-max", "inf"], "beta_max must be non-negative and finite"),
        ],
    )
    def test_out_of_range_option_is_input_error(self, tmp_path, capsys, opts, message):
        path = tmp_path / "two.csv"
        path.write_text("camera_id,track_id,frame,u,v\ncam1,t0,0,1.0,2.0\ncam2,t0,0,1.0,2.0\n")
        rc = main(["sync", str(path), *opts])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("d", [2**63 - 1, -(2**63 - 1)])
    def test_largest_d_finds_no_correspondences(self, tmp_path, capsys, d):
        # camera-1 frame 2 sits at sample 2 of camera 2, where + |d| overflows
        path = tmp_path / "three.csv"
        path.write_text("camera_id,track_id,frame,u,v\n" + "".join(
            f"{cam},t0,{f},{f}.0,{2 * f}.0\n" for cam in ("cam1", "cam2") for f in range(3)
        ))
        rc = main(["sync", str(path), "--single-shot", "--d", str(d)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: 0 valid correspondences, solver f-gep needs 9\n"
        )

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(
            b"camera_id,track_id,frame,u,v\ncam1,t\xff,0,1.0,2.0\ncam2,t0,0,1.0,2.0\n"
        )
        with pytest.raises(TrajectoryFormatError, match="not UTF-8"):
            read_trajectories(path)
        rc = main(["sync", str(path)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8")

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        rc = main(["sync", str(tmp_path / "nope.csv")])
        assert rc == EXIT_INPUT

    def test_single_camera_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text(
            "camera_id,track_id,frame,u,v\nc1,t0,0,1.0,2.0\nc1,t0,1,2.0,3.0\n"
        )
        rc = main(["sync", str(path)])
        assert rc == EXIT_INPUT
        assert "exactly two cameras required" in capsys.readouterr().err

    def test_too_short_tracks_is_input_error(self, tmp_path, capsys):
        lines = ["camera_id,track_id,frame,u,v"]
        for cam in ("c1", "c2"):
            for f in range(3):
                lines.append(f"{cam},t0,{f},{float(f)},{float(2 * f)}")
        path = tmp_path / "short.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["sync", str(path), "--single-shot"])
        assert rc == EXIT_INPUT


class TestCliSweep:
    def _config(self, **overrides):
        config = {
            "betas": [0.0, 2.0],
            "ds": [1],
            "noise": [0.0],
            "scenes": 1,
            "algorithms": ["f-gep"],
            "motion": "exact-linear",
            "n_tracks": 4,
            "n_frames": 60,
            "threshold": 1.0,
            "max_iterations": 150,
            "seed": 5,
        }
        config.update(overrides)
        return config

    def test_grid_runs_and_recovers_shifts(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._config()))
        out = tmp_path / "rows.csv"
        rc = main(["sweep", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["scene_id", "beta_gt", "d", "algorithm"]
        assert len(lines) == 1 + 2  # two betas x one noise x one scene x one alg
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["status"] == "ok"
            assert abs(float(row["beta_est"]) - float(row["beta_gt"])) < 0.1

    def test_empty_grid_is_input_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._config(betas=[])))
        rc = main(["sweep", str(cfg), "--out", str(tmp_path / "rows.csv")])
        assert rc == EXIT_INPUT

    def test_unknown_algorithm_is_input_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._config(algorithms=["f-magic"])))
        rc = main(["sweep", str(cfg), "--out", str(tmp_path / "rows.csv")])
        assert rc == EXIT_INPUT

    def test_infinite_threshold_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._config(threshold=float("inf"))))
        rc = main(["sweep", str(cfg), "--out", str(tmp_path / "rows.csv")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: sweep config: threshold must be positive and finite\n"
        )
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ([], "must be a JSON object"),
            ({"betas": [1], "scenes": None, "algorithms": ["iter-f"]}, "'scenes'"),
            ({"betas": 5, "scenes": 1, "algorithms": ["iter-f"]}, "'betas'"),
            ({"betas": [None], "scenes": 1, "algorithms": ["iter-f"]}, "'betas'"),
            ({"betas": [1], "scenes": 1, "algorithms": [["f-gep"]], "ds": [1]},
             "'algorithms'"),
            ({"betas": [1], "scenes": 1, "algorithms": ["f-gep"], "ds": ["1"]}, "'ds'"),
            ({"betas": [1], "scenes": 1, "algorithms": ["iter-f"], "noise": None},
             "'noise'"),
            ({"betas": [1], "scenes": 1, "algorithms": ["iter-f"], "kmax": [3]}, "'kmax'"),
            ({"betas": [1], "scenes": 1, "algorithms": ["iter-f"], "rho": "fast"}, "'rho'"),
            ({"betas": [2.0], "scenes": 1, "algorithms": ["f-gep"], "ds": [0]}, "'ds'"),
            ({"betas": [1], "scenes": 1, "algorithms": ["iter-f"], "kmax": 1},
             "k_max must be >= 2"),
            ({"betas": [1], "scenes": 1, "algorithms": ["f-gep"], "ds": [1],
              "max_iterations": 0}, "max_iterations must be >= 1"),
        ],
    )
    def test_malformed_config_is_input_error(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = main(["sweep", str(cfg), "--out", str(tmp_path / "rows.csv")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: sweep config") and message in err
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize(
        "setting, value, message",
        [
            ("threshold", -1.0, "threshold must be positive and finite"),
            ("max_iterations", 0, "max_iterations must be >= 1"),
            ("rho", 0.0, "rho must be positive and finite"),
            ("kmax", 1, "k_max must be >= 2"),
            ("noise", [0.0, -1.0], "noise_sigma must be >= 0"),
            ("ds", [1, 2**63], "'ds': |d| must be <= 2**63 - 1"),
            ("betas", [0.0, 10**400], "int too large to convert to float"),
            ("betas", [0.0, 1e15], "camera-2 frame count 1e+15 exceeds 200000"),
        ],
    )
    def test_bad_setting_is_reported_before_any_scene(
        self, tmp_path, capsys, monkeypatch, setting, value, message
    ):
        def no_scene(spec):
            raise AssertionError("a scene was generated before the config was checked")

        monkeypatch.setattr(camsync.cli, "generate_scene", no_scene)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._config(algorithms=["f-gep", "iter-f"],
                                               **{setting: value})))
        rc = main(["sweep", str(cfg), "--out", str(tmp_path / "rows.csv")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: sweep config: {message}\n"

    @pytest.mark.parametrize(
        "setting, value, json_type",
        [
            ("scenes", 1.9, "integer"),
            ("scenes", True, "integer"),
            ("max_iterations", 30.7, "integer"),
            ("seed", 2.5, "integer"),
            ("n_frames", "40", "integer"),
            ("threshold", "2", "number"),
            ("threshold", True, "number"),
            ("rho", None, "number"),
            ("motion", 5, "string"),
        ],
    )
    def test_setting_of_the_wrong_json_type_is_reported_before_any_scene(
        self, tmp_path, capsys, monkeypatch, setting, value, json_type
    ):
        # neither truncated nor converted: an integer setting takes a JSON
        # integer, a float setting a JSON number, and neither a bool
        def no_scene(spec):
            raise AssertionError("a scene was generated before the config was checked")

        monkeypatch.setattr(camsync.cli, "generate_scene", no_scene)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._config(**{setting: value})))
        out = tmp_path / "rows.csv"
        rc = main(["sweep", str(cfg), "--out", str(out)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: sweep config {setting!r} must be a JSON {json_type}\n"
        )
        assert not out.exists()

    def test_integer_is_a_number(self):
        cfg = self._config(betas=[1.0])
        assert run_sweep({**cfg, "threshold": 1, "rho": 1}) == run_sweep(cfg)

    def test_too_few_camera2_frames_is_reported_before_any_scene(self, monkeypatch):
        def no_scene(spec):
            raise AssertionError("a scene was generated before the config was checked")

        monkeypatch.setattr(camsync.cli, "generate_scene", no_scene)
        config = self._config(motion="smooth-random", rho=0.01)
        with pytest.raises(ValueError,
                           match="^sweep config: camera-2 frame count 1 is below 10$"):
            run_sweep(config)

    def test_zero_speed_is_reported_before_any_scene(self, tmp_path, capsys, monkeypatch):
        def no_scene(spec):
            raise AssertionError("a scene was generated before the config was checked")

        monkeypatch.setattr(camsync.cli, "generate_scene", no_scene)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._config(speed_px_per_frame=0)))
        out = tmp_path / "rows.csv"
        rc = main(["sweep", str(cfg), "--out", str(out)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: sweep config: speed_px_per_frame must be positive\n"
        )
        assert not out.exists()

    def test_unreachable_speed_is_input_error_and_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._config(motion="smooth-random",
                                               speed_px_per_frame=1e6)))
        out = tmp_path / "rows.csv"
        rc = main(["sweep", str(cfg), "--out", str(out)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: calibrated speed ")
        assert not out.exists()

    @pytest.mark.parametrize("scenes", [0, -1])
    def test_no_scenes_is_reported_before_any_scene(self, tmp_path, capsys, monkeypatch,
                                                    scenes):
        def no_scene(spec):
            raise AssertionError("a scene was generated before the config was checked")

        monkeypatch.setattr(camsync.cli, "generate_scene", no_scene)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._config(scenes=scenes)))
        out = tmp_path / "rows.csv"
        rc = main(["sweep", str(cfg), "--out", str(out)])
        assert rc == EXIT_INPUT
        assert "'scenes' >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._config(noise_sigma=[0.1])))
        out = tmp_path / "rows.csv"
        rc = main(["sweep", str(cfg), "--out", str(out)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: sweep config: unknown key 'noise_sigma'\n"
        )
        assert not out.exists()

    def test_rows_deterministic(self):
        cfg = self._config(betas=[1.0])
        assert run_sweep(cfg) == run_sweep(cfg)

    def test_classical_baseline_has_no_beta_column(self):
        rows = run_sweep(self._config(betas=[0.0], algorithms=["f-7pt"]))
        assert rows[0]["beta_est"] == ""
        assert rows[0]["status"] == "ok"


def test_sweep_scores_the_reported_half_frame_beta():
    spec = SceneSpec(seed=0, beta_gt=2.5, noise_sigma=0.0, motion="exact-linear",
                     n_tracks=4, n_frames=60)
    t1, t2, gt = generate_scene(spec)
    # estimate 0.5 at offset 2 steps to offset 3; beta_total = 3 - 1 + 0.5
    record = IterationRecord(
        k=1, d=1, direction=1, inlier_count=1, beta_k=0.5, accepted=True,
        j_after=3, skipped_after=0,
    )
    run = SyncRun(beta_total=2.5, model=gt.f, iterations=[record], ransac_calls=2,
                  accepted_steps=1, total_correspondences=1)
    rp = RansacParams(threshold=1.0)
    assert _final_inlier_fraction(t1, t2, rp, KIND_F_GEP, run) == 1.0
