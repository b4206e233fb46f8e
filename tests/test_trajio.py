"""The columnar trajectory CSV reader against the row-wise reference reader."""

import csv
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import camsync.trajio as trajio
from camsync import ImageSample, Trajectory, TrajectoryFormatError
from camsync.trajio import CSV_HEADER, read_trajectories, write_trajectories

HEADER = ",".join(CSV_HEADER) + "\n"


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


def _pad(cell):
    # str.strip removes "\x1c", which int() and float() do not skip
    formats = ["{}", " {}", "{} ", "\t{} ", "\x1c{}\u3000", '"{}"', '" {} "']
    return st.sampled_from(formats).map(lambda fmt: fmt.format(cell))


FRAME_CELLS = st.one_of(
    st.integers(0, 40).map(str),
    st.sampled_from(["1_0", "0_3", "+2", "9223372036854775807"]),
).flatmap(_pad)
COORD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1_000.5", "-0.0", "5e-324", "1e308"]),
).flatmap(_pad)
ID_CELLS = st.sampled_from(["c1", "c2", " c1", '"c2 "', "t0", "t1", "t1\t"])
BAD_FRAME_CELLS = st.sampled_from(["-1", "9223372036854775808", "1.0", "x", ""]).flatmap(_pad)
BAD_COORD_CELLS = st.sampled_from(["1e400", "nan", "inf", "-inf", "abc", ""]).flatmap(_pad)
GOOD_ROW = st.one_of(
    st.tuples(ID_CELLS, ID_CELLS, FRAME_CELLS, COORD_CELLS, COORD_CELLS).map(",".join),
    st.sampled_from(["", "   "]),
)
BAD_ROW = st.one_of(
    st.tuples(ID_CELLS, ID_CELLS, BAD_FRAME_CELLS, COORD_CELLS, COORD_CELLS),
    st.tuples(ID_CELLS, ID_CELLS, FRAME_CELLS, BAD_COORD_CELLS, COORD_CELLS),
    st.tuples(ID_CELLS, ID_CELLS, FRAME_CELLS, COORD_CELLS, BAD_COORD_CELLS),
    st.sampled_from([("c1", "t0", "3"), ("c1", "t0", "3", "1.0", "2.0", "7"), ("c1",)]),
).map(",".join)


@st.composite
def csv_text(draw):
    """Rows in any order, duplicates included, with up to three bad rows."""
    rows = draw(st.lists(GOOD_ROW, max_size=25))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(BAD_ROW))
    return HEADER + "".join(r + "\n" for r in rows)


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

    def test_file_changed_between_reads_is_reported(self, tmp_path, monkeypatch):
        path = tmp_path / "ok.csv"
        path.write_text(HEADER + "c1,t0,0,1.0,2.0\n")

        def _reject(rows):
            raise ValueError("a bad row that the second read no longer finds")

        monkeypatch.setattr(trajio, "_read_columns", _reject)
        with pytest.raises(TrajectoryFormatError, match="changed while it was read"):
            read_trajectories(path)


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
                    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e308, -1e308])),
                    st.floats(allow_nan=False, allow_infinity=False),
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
        back = {(t.camera_id, t.track_id): t
                for ts in read_trajectories(csv_path).values() for t in ts}
        assert len(back) == len(trajs)
        for t in trajs:
            got = back[t.camera_id, t.track_id]
            assert got.frames.tobytes() == t.frames.tobytes()
            assert got.points.tobytes() == t.points.tobytes()
