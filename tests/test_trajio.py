"""The columnar trajectory CSV reader against the row-wise reference reader."""

import csv
import io
import re
import sys
import warnings
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import camsync.trajio as trajio
from camsync import ImageSample, SceneSpec, Trajectory, TrajectoryFormatError, generate_scene
from camsync.geometry import MAX_COORD
from camsync.trajio import (
    CSV_HEADER,
    read_trajectories,
    trajectories_to_csv_text,
    write_trajectories,
)

HEADER = ",".join(CSV_HEADER) + "\n"
COORD = st.floats(-MAX_COORD, MAX_COORD)  # every value a sample may hold


def reference_read(path) -> dict[str, list[Trajectory]]:
    """The row-wise reader the columnar one replaced, as the reference: one
    validated ``ImageSample`` per row, grouped and sorted afterwards."""
    rows: dict[tuple[str, str], list[ImageSample]] = defaultdict(list)
    seen: set[tuple[str, str, int]] = set()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise TrajectoryFormatError(f"{path}: empty file") from None
            if [h.strip() for h in header] != CSV_HEADER:
                raise TrajectoryFormatError(
                    f"{path}:1: expected header {','.join(CSV_HEADER)}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 5:
                    raise TrajectoryFormatError(f"{path}:{lineno}: expected 5 fields")
                cam, track, frame_s, u_s, v_s = (c.strip() for c in row)
                try:
                    sample = ImageSample(frame=int(frame_s), u=float(u_s), v=float(v_s))
                except ValueError as exc:
                    raise TrajectoryFormatError(f"{path}:{lineno}: {exc}") from None
                key = (cam, track, sample.frame)
                if key in seen:
                    raise TrajectoryFormatError(
                        f"{path}:{lineno}: duplicate (camera_id, track_id, frame) {key}"
                    )
                seen.add(key)
                rows[(cam, track)].append(sample)
    except UnicodeDecodeError as exc:
        raise TrajectoryFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out: dict[str, list[Trajectory]] = defaultdict(list)
    for (cam, track), samples in rows.items():
        samples.sort(key=lambda s: s.frame)
        out[cam].append(Trajectory(cam, track, [s.frame for s in samples],
                                   [(s.u, s.v) for s in samples]))
    for cam in out:
        out[cam].sort(key=lambda t: t.track_id)
    return dict(out)


def outcome(read, path):
    """Cameras, tracks and sample bits in order, or the error message."""
    try:
        cams = read(path)
    except TrajectoryFormatError as exc:
        return str(exc)
    return [
        (cam, [(t.track_id, t.frames.tobytes(), t.points.tobytes()) for t in tracks])
        for cam, tracks in cams.items()
    ]


# str.strip removes "\x1c", which int() and float() do not skip
PLAIN_PADS = ["{}", " {}", "{} ", "\t{} ", "\x1c{}\u3000"]
QUOTED_PADS = ['"{}"', '" {} "']
PLAIN_IDS = ["c1", "c2", " c1", "t0", "t1", "t1\t"]
QUOTED_IDS = ['"c2 "', '"t\r1"']


def _padded(cells, pads):
    """A cell drawn from ``cells`` and written in one of the ``pads`` formats."""
    return st.tuples(cells, st.sampled_from(pads)).map(lambda c: c[1].format(c[0]))


def _rows(plain):
    """Good and bad row strategies. A plain row has no quote, no underscore in
    a number and no blank line other than an empty one: numpy's C reader
    declines a file with any of them, and a file of plain rows can reach it."""
    pads = PLAIN_PADS if plain else PLAIN_PADS + QUOTED_PADS
    ids = st.sampled_from(PLAIN_IDS if plain else PLAIN_IDS + QUOTED_IDS)
    frame = _padded(st.one_of(
        st.integers(0, 40).map(str),
        st.sampled_from([*([] if plain else ["1_0", "0_3"]), "+2", "9223372036854775807"]),
    ), pads)
    coord = _padded(st.one_of(
        COORD.map(repr),
        st.sampled_from([*([] if plain else ["1_000.5"]), "-0.0", "5e-324", "1e150", "-1e150"]),
    ), pads)
    bad_frame = _padded(st.sampled_from(["-1", "9223372036854775808", "1.0", "x", ""]), pads)
    bad_coord = _padded(st.sampled_from(
        ["1e400", "nan", "inf", "-inf", "abc", "", "1e308", "-1.0000000000000002e150"]), pads)
    good = st.one_of(
        st.tuples(ids, ids, frame, coord, coord).map(",".join),
        st.sampled_from([""] if plain else ["", "   ", " \t", "\x1c"]),
    )
    bad = st.one_of(
        st.tuples(ids, ids, bad_frame, coord, coord),
        st.tuples(ids, ids, frame, bad_coord, coord),
        st.tuples(ids, ids, frame, coord, bad_coord),
        st.sampled_from([("c1", "t0", "3"), ("c1", "t0", "3", "1.0", "2.0", "7"), ("c1",)]),
    ).map(",".join)
    return good, bad


ROWS = {plain: _rows(plain) for plain in (False, True)}


@st.composite
def csv_text(draw):
    """Rows in any order, duplicates included, with up to three bad rows. A
    plain file has plain rows and LF line ends; any other file has LF or CRLF
    line ends, and sometimes one line ended by a lone CR."""
    plain = draw(st.booleans())
    good, bad = ROWS[plain]
    rows = draw(st.lists(good, max_size=25))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(bad))
    lines = [",".join(CSV_HEADER), *rows]
    if plain:
        return "".join(line + "\n" for line in lines)
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n"]))] * len(lines)
    if draw(st.booleans()):
        ends[draw(st.integers(0, len(lines) - 1))] = "\r"
    return "".join(map(str.__add__, lines, ends))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("trajio") / "traj.csv"


class TestColumnarReader:
    @settings(max_examples=400, deadline=None)
    @given(text=csv_text())
    @example(text=HEADER + "c1,t0,2,1.0,2.0\nc1,t0,0,3.0,4.0\n\n c1 ,t0,1,5.0,6.0\n")
    @example(text=HEADER + "c1,t0,0,1.0,2.0\nc1,t0,x,1.0,2.0\nc1,t0,0,3.0,4.0\n")
    @example(text=HEADER + "c1,t0,0,nan,2.0\nc1,t0,0,1.0,2.0\n")
    @example(text=HEADER + "c1,t0,-1,1.0,2.0\nc1,t0\n")
    @example(text=HEADER + "c1,t0,9223372036854775808,1.0,2.0\nc1,t0\n")
    @example(text=HEADER + "c1,t0,9223372036854775808,1.0,2.0\n")
    @example(text=HEADER + "c1,t0,1.0,1.0,2.0\n")
    @example(text=HEADER)
    @example(text=HEADER + "\n\n")
    @example(text=HEADER + "c1,t0,0,1.0,2.0\r\nc1,t0,1,1.0,2.0\r\n")
    @example(text=HEADER + "c1,t0,0,1.0,2.0\n\x1c\nc1,t1,0,1.0,2.0\n")
    @example(text=HEADER + "c1,t0,0,1.0,2.0\n   \nc1,t1,0,1.0,2.0\n")
    @example(text=HEADER + "c1,t0,0,1.0,2.0\nc1,t0,1_0,1.0,2.0\n")
    @example(text=HEADER + "c1,t0,0,1.0,2.0\nc1,t0,1,1_000.5,2.0\n")
    def test_equals_reference_reader(self, csv_path, text):
        csv_path.write_text(text, encoding="utf-8", newline="")
        assert outcome(read_trajectories, csv_path) == outcome(reference_read, csv_path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = HEADER + "c2,t1,3,1.5,2.5\nc1,t0,0,1.0,2.0\nc1,t0,1,-0.0,4.0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert outcome(read_trajectories, marked) == outcome(read_trajectories, plain)
        assert len(read_trajectories(marked)) == 2

    def test_oversized_field_reports_its_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(HEADER + "c1,t0,0,1.0,2.0\n\nc1,t0,1,1.0," + "1" * 200_000 + "\n")
        with pytest.raises(TrajectoryFormatError, match=r"big\.csv:4: field larger"):
            read_trajectories(path)

    def test_zero_padded_frame_past_the_digit_limit_is_reported(self, tmp_path):
        # numpy's C reader parses this cell as 1; int() refuses its 5,001 digits
        path = tmp_path / "digits.csv"
        path.write_text(HEADER + "c1,t0," + "0" * 5000 + "1,1.0,2.0\n")
        with pytest.raises(TrajectoryFormatError) as err:
            read_trajectories(path)
        limit = sys.get_int_max_str_digits()
        assert str(err.value) == outcome(reference_read, path)
        assert str(err.value).startswith(f"{path}:2: Exceeds the limit ({limit} digits)")

    def test_id_past_the_field_limit_is_reported(self, tmp_path):
        # numpy's C reader takes this cell whole; the csv module refuses it
        path = tmp_path / "long-id.csv"
        path.write_text(HEADER + "c1,t0,0,1.0,2.0\n" + "c" * 140_000 + ",t0,0,1.0,2.0\n")
        with pytest.raises(TrajectoryFormatError) as err:
            read_trajectories(path)
        assert str(err.value) == f"{path}:3: field larger than field limit (131072)"

    def test_header_past_the_field_limit_is_reported(self, tmp_path):
        # the header strips to CSV_HEADER; the csv module refuses its first cell
        path = tmp_path / "long-header.csv"
        path.write_text("camera_id" + " " * 140_000 + ",track_id,frame,u,v\nc1,t0,0,1.0,2.0\n")
        with pytest.raises(TrajectoryFormatError) as err:
            read_trajectories(path)
        assert str(err.value) == f"{path}:1: field larger than field limit (131072)"

    def test_warning_from_the_c_reader_declines_the_file(self, tmp_path, monkeypatch):
        # older numpy parsed the frame "1.0" through float, giving 1 and only a
        # DeprecationWarning; the file must still get the csv path's error
        path = tmp_path / "float-frame.csv"
        path.write_text(HEADER + "c1,t0,1.0,1.0,2.0\n")
        loadtxt = np.loadtxt

        def old_loadtxt(fh, **kwargs):
            warnings.warn("integer parsed through float", DeprecationWarning)
            return loadtxt(io.StringIO(fh.getvalue().replace("1.0,1.0", "1,1.0")), **kwargs)
        monkeypatch.setattr(trajio.np, "loadtxt", old_loadtxt)
        assert outcome(read_trajectories, path) == outcome(reference_read, path)
        assert outcome(reference_read, path).startswith(f"{path}:2: invalid literal for int()")

    def test_file_changed_between_reads_is_reported(self, tmp_path, monkeypatch):
        path = tmp_path / "ok.csv"
        path.write_text(HEADER + "c1,t0,0,1.0,2.0\n")

        def _reject(rows):
            raise ValueError("a bad row that the second read no longer finds")

        monkeypatch.setattr(trajio, "_read_columns", _reject)
        with pytest.raises(TrajectoryFormatError, match="changed while it was read"):
            read_trajectories(path)


def _no_csv_reader(*args, **kwargs):
    raise AssertionError("a file this program wrote went to the csv module")


class TestReaderProperties:
    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(), st.text().map(lambda t: HEADER + t)))
    def test_arbitrary_text_raises_only_format_errors(self, csv_path, text):
        csv_path.write_text(text, encoding="utf-8", newline="")
        try:
            read_trajectories(csv_path)
        except TrajectoryFormatError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.binary(), st.binary().map(lambda b: HEADER.encode() + b)))
    def test_arbitrary_bytes_raise_only_format_errors(self, csv_path, data):
        csv_path.write_bytes(data)
        try:
            read_trajectories(csv_path)
        except TrajectoryFormatError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(
        tracks=st.dictionaries(
            st.tuples(st.sampled_from(["c1", "c2"]), st.from_regex(r"[A-Za-z0-9_]{1,6}",
                                                                   fullmatch=True)),
            st.lists(
                st.tuples(
                    st.one_of(st.integers(0, 2**63 - 1),
                              st.sampled_from([0, 2**63 - 2, 2**63 - 1])),
                    st.one_of(COORD, st.sampled_from([-0.0, 5e-324, -2.2e-308,
                                                      MAX_COORD, -MAX_COORD])),
                    COORD,
                ),
                min_size=1, max_size=8, unique_by=lambda s: s[0],
            ),
            min_size=1, max_size=4,
        )
    )
    def test_write_read_round_trip_keeps_every_bit(self, csv_path, tracks):
        trajs = []
        for (cam, track), samples in tracks.items():
            samples = sorted(samples)
            trajs.append(Trajectory(cam, track, [s[0] for s in samples],
                                    [s[1:] for s in samples]))
        write_trajectories(csv_path, trajs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trajio.csv, "reader", _no_csv_reader)
            back = {(t.camera_id, t.track_id): t
                    for ts in read_trajectories(csv_path).values() for t in ts}
        assert len(back) == len(trajs)
        for t in trajs:
            got = back[t.camera_id, t.track_id]
            assert got.frames.tobytes() == t.frames.tobytes()
            assert got.points.tobytes() == t.points.tobytes()


class TestWrittenFiles:
    def test_scene_reads_back_without_the_csv_module(self, tmp_path, monkeypatch):
        # the size of one benchmark ingest file: 40 tracks of 300 frames per camera
        t1, t2, _ = generate_scene(SceneSpec(seed=5, beta_gt=3.0, noise_sigma=0.5,
                                             n_tracks=40, n_frames=300,
                                             waypoint_spacing=120.0, motion="planar-smooth"))
        path = tmp_path / "scene.csv"
        write_trajectories(path, t1 + t2)
        monkeypatch.setattr(trajio.csv, "reader", _no_csv_reader)
        cams = read_trajectories(path)
        assert [t for ts in cams.values() for t in ts] == sorted(
            t1, key=lambda t: t.track_id) + sorted(t2, key=lambda t: t.track_id)

    @pytest.mark.parametrize("cam, track", [
        ("c,1", "t0"), ("c1", "t\n0"), ("c1", "t0\r"), (" c1", "t0"), ("c1", "t0\t"),
        ('"c1"', "t0"), ("c1", "\x1ct0"), (1, "t0"),
    ])
    def test_id_that_would_not_read_back_is_refused(self, tmp_path, cam, track):
        traj = Trajectory(cam, track, [0, 1], [(1.0, 2.0), (3.0, 4.0)])
        with pytest.raises(ValueError, match=f"trajectory {re.escape(repr(cam))}/"):
            trajectories_to_csv_text([traj])
        path = tmp_path / "kept.csv"
        path.write_text("kept\n")
        with pytest.raises(ValueError):
            write_trajectories(path, [traj])
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("cam, track", [('c"1', "t0"), ("c\x1c1", "t\u30000"), ("", "t0")])
    def test_unusual_id_that_reads_back_is_written(self, tmp_path, cam, track):
        traj = Trajectory(cam, track, [0, 1], [(1.0, 2.0), (3.0, 4.0)])
        path = tmp_path / "ids.csv"
        write_trajectories(path, [traj])
        assert read_trajectories(path) == {cam: [traj]}
