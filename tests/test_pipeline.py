"""Data pipeline: ingestion, imputation, scaling, windowing, PCA, splits, synthesis."""
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from subadapt.pipeline import (CsvSchema, DomainDataset, NormalizationModel,
                               PipelineError, RawRecording, SplitSpec, SynthSpec,
                               SyntheticStream, apply_minmax, apply_pca, declared_minmax,
                               fit_minmax, fit_pca, generate_synthetic_pair, half_up,
                               impute_missing, load_recordings, rotation_mixing,
                               save_recordings_csv, segment_windows, split_domain,
                               _NOISE_BLOCK_BYTES, _interleave_classes)

from conftest import pca_inverse, pca_reference


def test_half_up_rounding():
    assert [half_up(v) for v in (0.0, 0.4, 0.5, 1.49, 1.5, 2.5, 3.5)] == [0, 0, 1, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# CSV ingestion


def write_csv(path, text):
    path.write_text(text.lstrip())
    return path


def test_load_groups_rows_by_subject_in_order(tmp_path):
    p = write_csv(tmp_path / "d.csv", """
subject,label,ax,ay
s1,walk,1.0,2.0
s1,walk,3.0,4.0
s2,sit,5.0,6.0
s1,sit,7.0,8.0
""")
    recs = load_recordings(p, CsvSchema(), sample_rate=2.0)
    assert [r.subject_id for r in recs] == ["s1", "s2"]
    s1, s2 = recs
    assert np.array_equal(s1.frames, [[1, 2], [3, 4], [7, 8]])
    assert s1.label_names == ("sit", "walk")  # sorted vocabulary, shared by all
    assert np.array_equal(s1.labels, [1, 1, 0])
    assert np.array_equal(s2.labels, [0])
    assert s1.sample_rate == 2.0


def test_load_honors_declared_channel_order_and_missing_marker(tmp_path):
    p = write_csv(tmp_path / "d.csv", """
subject,label,ax,ay,az
s1,walk,1.0,NaN,3.0
""")
    schema = CsvSchema(channel_columns=("az", "ax"))
    rec, = load_recordings(p, schema, sample_rate=1.0)
    assert rec.frames.shape == (1, 2)
    assert rec.frames[0, 0] == 3.0 and rec.frames[0, 1] == 1.0

    rec_all, = load_recordings(p, CsvSchema(), sample_rate=1.0)
    assert np.isnan(rec_all.frames[0, 1])


def test_load_skips_blank_lines(tmp_path):
    p = write_csv(tmp_path / "d.csv", "subject,label,ax\ns1,w,1.0\n\n  \ns1,w,2.0\n")
    rec, = load_recordings(p, CsvSchema(), sample_rate=1.0)
    assert len(rec.frames) == 2


def test_load_reports_offending_line_numbers(tmp_path):
    p = write_csv(tmp_path / "d.csv", """
subject,label,ax
s1,walk,1.0
s1,walk,oops
""")
    with pytest.raises(PipelineError, match=r"d\.csv:3.*'oops'"):
        load_recordings(p, CsvSchema(), sample_rate=1.0)

    short = write_csv(tmp_path / "short.csv", "subject,label,ax\ns1,walk\n")
    with pytest.raises(PipelineError, match=r"short\.csv:2.*expected 3 cells"):
        load_recordings(short, CsvSchema(), sample_rate=1.0)


def test_load_validates_structure(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(PipelineError, match="empty"):
        load_recordings(empty, CsvSchema(), sample_rate=1.0)

    no_col = write_csv(tmp_path / "nocol.csv", "subject,ax\ns1,1.0\n")
    with pytest.raises(PipelineError, match="label"):
        load_recordings(no_col, CsvSchema(), sample_rate=1.0)

    headers_only = write_csv(tmp_path / "h.csv", "subject,label,ax\n")
    with pytest.raises(PipelineError, match="no data rows"):
        load_recordings(headers_only, CsvSchema(), sample_rate=1.0)

    no_channels = write_csv(tmp_path / "nc.csv", "subject,label\ns1,w\n")
    with pytest.raises(PipelineError, match="no channel columns"):
        load_recordings(no_channels, CsvSchema(), sample_rate=1.0)


def test_load_enforces_label_vocabulary_when_declared(tmp_path):
    p = write_csv(tmp_path / "d.csv", "subject,label,ax\ns1,walk,1.0\ns1,fly,2.0\n")
    with pytest.raises(PipelineError, match=r"d\.csv:3.*'fly'"):
        load_recordings(p, CsvSchema(allowed_labels=("walk", "sit")), sample_rate=1.0)
    # declared vocabulary also fixes the label index order
    rec, = load_recordings(write_csv(tmp_path / "ok.csv", "subject,label,ax\ns1,walk,1.0\n"),
                           CsvSchema(allowed_labels=("walk", "sit")), sample_rate=1.0)
    assert rec.label_names == ("walk", "sit")
    assert rec.labels[0] == 0


def test_csv_round_trip_preserves_values_exactly(tmp_path):
    rng = np.random.default_rng(21)
    frames = rng.normal(size=(50, 3)) * 9.81
    frames[7, 1] = np.nan
    rec = RawRecording("s1", frames, rng.integers(0, 2, 50), 20.0, ("sit", "walk"))
    path = tmp_path / "out.csv"
    save_recordings_csv([rec], path)
    back, = load_recordings(path, CsvSchema(), sample_rate=20.0)
    assert back.subject_id == "s1"
    assert np.array_equal(back.frames, rec.frames, equal_nan=True)  # repr round trip
    assert np.array_equal(back.labels, rec.labels)
    assert back.label_names == rec.label_names


def test_csv_writer_bytes_are_pinned(tmp_path):
    frames = np.array([[0.1, -2.5, 3.0],
                       [np.nan, 1e-17, 12345.678],
                       [2.0 / 3.0, -0.0, 7.0]])
    schema = CsvSchema(subject_column="who", label_column="activity",
                       channel_columns=("acc_x", "acc_y", "acc_z"), missing_marker="NA")
    recs = [RawRecording("alice", frames, [0, 1, 1], 10.0, ("sit", "walk")),
            RawRecording("bob", frames[::-1] * -3.0, [1, 0, 0], 10.0, ("sit", "walk"))]
    path = tmp_path / "pinned.csv"
    save_recordings_csv(recs, path, schema)
    assert path.read_text().splitlines()[2] == "alice,walk,NA,1e-17,12345.678"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "87ec9199e0d7de1cd91f592ddb685e4b2b8bbe992f930fdd2712640bf4056986"


@pytest.mark.parametrize("marker,subject,digest", [
    ("", "alice", "f89728c5bf825a1bcaac2ff662b518f22134eb17945041bd4ac856874c1ad24e"),
    ("N,A", "s,1", "84f25154a64dfea5aa1a0332d878525f628667b88b45f63fc0eb7a6de41caa4c"),
    ("NaN", 'say "hi"', "80ab7f429ac361511fa3b7f36c8c73615bc2ca07c4c5f81d39d09f9441432ec9"),
], ids=["empty-marker", "quoted-marker-and-subject", "quoted-subject"])
def test_csv_writer_bytes_with_quoting_and_mixed_rows_are_pinned(tmp_path, marker, subject,
                                                                 digest):
    # rows mixing missing and observed cells, a fully missing row, signed zero, infinities
    frames = np.array([[0.1, -2.5, 3.0], [np.nan, 1e-17, 12345.678], [2.0 / 3.0, -0.0, np.inf],
                       [np.nan, np.nan, np.nan], [1e300, np.nan, -7.25]])
    names = ("sit", "walk, fast")
    recs = [RawRecording(subject, frames, [0, 1, 1, 0, 1], 10.0, names),
            RawRecording("bob", -frames[::-1], [1, 0, 0, 1, 0], 10.0, names)]
    path = tmp_path / "pinned.csv"
    save_recordings_csv(recs, path, CsvSchema(missing_marker=marker))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_csv_round_trips_three_subjects_bit_exactly(tmp_path):
    rng = np.random.default_rng(31)
    names = ("lie", "sit", "walk")
    originals = []
    for subject, rows in (("s1", 700), ("s 2", 900), ("s,3", 500)):   # > one parse block
        frames = rng.normal(size=(rows, 40)) * 10.0 ** rng.integers(-300, 300, size=(rows, 40))
        frames[rng.random(size=frames.shape) < 0.05] = np.nan
        frames[3] = np.nan
        frames[4, :3] = (-0.0, np.inf, 5e-324)
        originals.append(RawRecording(subject, frames, rng.integers(0, 3, size=rows), 50.0, names))
    path = tmp_path / "three.csv"
    save_recordings_csv(originals, path)
    loaded = load_recordings(path, CsvSchema(), sample_rate=50.0)
    assert [r.subject_id for r in loaded] == ["s1", "s 2", "s,3"]
    for a, b in zip(originals, loaded):
        assert a.frames.tobytes() == b.frames.tobytes()
        assert np.array_equal(a.labels, b.labels) and b.label_names == names


def test_csv_writer_refuses_mismatched_recordings_before_touching_the_file(tmp_path):
    path = tmp_path / "kept.csv"
    path.write_bytes(b"subject,label,a\r\nkeep,me,1.0\r\n")
    recs = [RawRecording("s1", np.zeros((3, 2)), [0, 0, 0], 1.0, ("a",)),
            RawRecording("s2", np.zeros((3, 3)), [0, 0, 0], 1.0, ("a",))]
    with pytest.raises(PipelineError, match="channel count"):
        save_recordings_csv(recs, path)
    assert path.read_bytes() == b"subject,label,a\r\nkeep,me,1.0\r\n"


# the reader's contract, cell by cell


def test_load_strips_padded_cells_before_matching_the_marker(tmp_path):
    p = write_csv(tmp_path / "d.csv", "subject,label,a,b\ns1,w, NA ,1\ns1,w,NA,\t2 \n")
    rec, = load_recordings(p, CsvSchema(missing_marker="NA"), sample_rate=1.0)
    assert np.array_equal(rec.frames, [[np.nan, 1.0], [np.nan, 2.0]], equal_nan=True)
    # with the default marker an NA cell is no number
    with pytest.raises(PipelineError, match=r"d\.csv:2: channel 'a' has non-numeric value 'NA'"):
        load_recordings(p, CsvSchema(), sample_rate=1.0)


def test_load_takes_padded_numbers_and_every_float_spelling(tmp_path):
    p = write_csv(tmp_path / "d.csv",
                  "subject,label,a,b\ns1,w, 1.5 ,\t-2e3 \ns1,w,1_000,inf\ns1,w,-Infinity,nan\n")
    rec, = load_recordings(p, CsvSchema(), sample_rate=1.0)
    assert rec.frames.tolist()[:2] == [[1.5, -2000.0], [1000.0, np.inf]]
    assert rec.frames[2, 0] == -np.inf and np.isnan(rec.frames[2, 1])


def test_load_empty_marker_reads_blank_cells_as_missing(tmp_path):
    p = write_csv(tmp_path / "d.csv", "subject,label,a,b\ns1,w,,2\ns1,w, ,3\n")
    rec, = load_recordings(p, CsvSchema(missing_marker=""), sample_rate=1.0)
    assert np.array_equal(rec.frames, [[np.nan, 2.0], [np.nan, 3.0]], equal_nan=True)
    with pytest.raises(PipelineError, match=r"d\.csv:2: channel 'a' has non-numeric value ''"):
        load_recordings(p, CsvSchema(), sample_rate=1.0)


def test_load_quoted_subject_with_comma_and_crlf_line_ends(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b'subject,label,a\r\n"s,1",w,1\r\ns2,w,2\r\n"s,1",w,3\r\n')
    s1, s2 = load_recordings(p, CsvSchema(), sample_rate=1.0)
    assert s1.subject_id == "s,1" and s1.frames.tolist() == [[1.0], [3.0]]
    assert s2.subject_id == "s2" and s2.frames.tolist() == [[2.0]]


def test_load_keeps_subjects_apart_that_differ_only_by_a_trailing_nul(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("subject,label,a\ns\0,w,1\ns,w,2\ns\0,w,3\n")
    nul, plain = load_recordings(p, CsvSchema(), sample_rate=1.0)
    assert (nul.subject_id, nul.frames.tolist()) == ("s\0", [[1.0], [3.0]])
    assert (plain.subject_id, plain.frames.tolist()) == ("s", [[2.0]])


def test_load_single_channel_column(tmp_path):
    p = write_csv(tmp_path / "d.csv", "subject,label,a,b\ns1,w,1,2\ns1,w,NaN,4\n")
    rec, = load_recordings(p, CsvSchema(channel_columns=("b",)), sample_rate=1.0)
    assert rec.frames.tolist() == [[2.0], [4.0]]
    rec, = load_recordings(p, CsvSchema(channel_columns=("a",)), sample_rate=1.0)
    assert rec.frames.shape == (2, 1) and np.isnan(rec.frames[1, 0])


def test_load_refuses_a_header_that_names_a_column_twice(tmp_path):
    # read by name, the second `a` would never be read: its cells would repeat the first's
    p = write_csv(tmp_path / "d.csv", "subject,label,a,a\ns1,w,1.0,2.0\ns1,w,3.0,4.0\n")
    with pytest.raises(PipelineError, match=r"d\.csv: header names column 'a' more than once"):
        load_recordings(p, CsvSchema(), sample_rate=1.0)
    # the header is checked before any row: a bad cell below it is not what is reported
    p = write_csv(tmp_path / "e.csv", "subject,label, b,subject\ns1,w,x,s1\n")
    with pytest.raises(PipelineError, match=r"e\.csv: header names column 'subject' more"):
        load_recordings(p, CsvSchema(channel_columns=("b",)), sample_rate=1.0)


def test_load_reports_line_and_column_of_first_bad_cell_after_blank_lines(tmp_path):
    p = write_csv(tmp_path / "d.csv",
                  "subject,label,a,b,c\ns1,w,1,2,3\n\n\n  \ns1,w,4,x y,z\ns1,w,5,q,6\n")
    with pytest.raises(PipelineError, match=r"d\.csv:6: channel 'b' has non-numeric value 'x y'"):
        load_recordings(p, CsvSchema(), sample_rate=1.0)
    # in the declared channel order
    with pytest.raises(PipelineError, match=r"d\.csv:6: channel 'c' has non-numeric value 'z'"):
        load_recordings(p, CsvSchema(channel_columns=("c", "b")), sample_rate=1.0)


def test_load_bad_cell_before_a_malformed_row_wins(tmp_path):
    p = write_csv(tmp_path / "d.csv", "subject,label,a,b\ns1,w,1,2\ns1,w,bad,2\ns1,w\n")
    with pytest.raises(PipelineError, match=r"d\.csv:3: channel 'a' has non-numeric value 'bad'"):
        load_recordings(p, CsvSchema(), sample_rate=1.0)
    p = write_csv(tmp_path / "e.csv", "subject,label,a,b\ns1,w,1,2\ns1,w,1,bad\ns1,fly,1,2\n")
    with pytest.raises(PipelineError, match=r"e\.csv:3: channel 'b' has non-numeric value 'bad'"):
        load_recordings(p, CsvSchema(allowed_labels=("w",)), sample_rate=1.0)


def test_load_interleaved_subjects_across_parse_blocks(tmp_path):
    rng = np.random.default_rng(32)
    values = rng.normal(size=(3000, 30))
    subjects = rng.choice(["a", "b", "c"], size=3000)
    lines = ["subject,label," + ",".join(f"ch{i}" for i in range(30))]
    lines += [f"{s},l{i % 2}," + ",".join(map(repr, row))
              for i, (s, row) in enumerate(zip(subjects, values.tolist()))]
    lines.insert(2000, "")
    p = write_csv(tmp_path / "d.csv", "\n".join(lines) + "\n")
    recs = load_recordings(p, CsvSchema(), sample_rate=1.0)
    assert [r.subject_id for r in recs] == list(dict.fromkeys(subjects))
    for rec in recs:
        rows = np.flatnonzero(subjects == rec.subject_id)
        assert rec.frames.tobytes() == values[rows].tobytes()
        assert rec.labels.tolist() == (rows % 2).tolist()
    cells = lines[2500].split(",")
    cells[7] = " oops "
    lines[2500] = ",".join(cells)
    lines[2900] = "a,l0"                 # a short row after the bad cell, in a later block
    bad = write_csv(tmp_path / "bad.csv", "\n".join(lines) + "\n")
    with pytest.raises(PipelineError, match=r"bad\.csv:2501: channel 'ch5' has non-numeric value 'oops'"):
        load_recordings(bad, CsvSchema(), sample_rate=1.0)


# ---------------------------------------------------------------------------
# imputation


def test_impute_forward_then_back_fills():
    rec = RawRecording("s", np.array([[np.nan, 0.0],
                                      [1.0, np.nan],
                                      [np.nan, np.nan],
                                      [3.0, 5.0]]),
                       np.zeros(4, dtype=np.int64), 1.0, ("a",))
    out = impute_missing(rec)
    assert np.array_equal(out.frames, [[1, 0], [1, 0], [1, 0], [3, 5]])
    assert np.isnan(rec.frames[0, 0])  # input untouched


def test_impute_matches_the_channel_by_channel_reference():
    rng = np.random.default_rng(34)
    frames = rng.normal(size=(300, 6))
    frames[rng.random(size=frames.shape) < 0.3] = np.nan
    frames[:40, 2] = np.nan                  # a long leading gap
    frames[-1] = np.nan                      # a trailing row with nothing observed
    expected = frames.copy()
    for col in expected.T:
        last = col[~np.isnan(col)][0]        # a leading gap takes the first observed value
        for i, v in enumerate(col):
            if np.isnan(v):
                col[i] = last
            else:
                last = v
    rec = RawRecording("s", frames, np.zeros(300, dtype=np.int64), 1.0, ("a",))
    assert impute_missing(rec).frames.tobytes() == expected.tobytes()


def test_impute_rejects_fully_missing_channel():
    rec = RawRecording("s", np.array([[np.nan, 1.0], [np.nan, 2.0]]),
                       np.zeros(2, dtype=np.int64), 1.0, ("a",))
    with pytest.raises(PipelineError, match="entirely missing"):
        impute_missing(rec)


# ---------------------------------------------------------------------------
# normalization


def test_minmax_scales_clips_and_pins_constant_channels():
    model = fit_minmax(np.array([[0.0, 5.0], [10.0, 5.0], [5.0, 5.0]]))
    assert np.array_equal(model.channel_min, [0.0, 5.0])
    assert np.array_equal(model.channel_max, [10.0, 5.0])
    out = model.apply_in_place(np.array([[5.0, 5.0], [-2.0, 9.0], [12.0, 1.0]]))
    assert np.array_equal(out[:, 0], [0.5, 0.0, 1.0])   # clipped outside the fit range
    assert np.array_equal(out[:, 1], [0.5, 0.5, 0.5])   # constant channel pinned


def test_minmax_fit_ignores_nans():
    vals = np.array([[1.0, np.nan], [np.nan, 4.0], [3.0, 8.0]])
    model = fit_minmax(vals)
    assert np.array_equal(model.channel_min, [1.0, 4.0])
    assert np.array_equal(model.channel_max, [3.0, 8.0])


def test_declared_minmax_broadcasts_scalars():
    model = declared_minmax(-2.0, 2.0, channels=3)
    assert np.array_equal(model.channel_min, [-2.0, -2.0, -2.0])
    out = model.apply_in_place(np.array([[0.0, 2.0, -4.0]]))
    assert np.array_equal(out, [[0.5, 1.0, 0.0]])


def test_minmax_validation_and_serialization(tmp_path):
    with pytest.raises(PipelineError):
        NormalizationModel(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(PipelineError):
        fit_minmax(np.zeros((0, 3)))
    with pytest.raises(PipelineError):
        fit_minmax(np.array([[1.0, np.nan], [2.0, np.nan]]))
    model = fit_minmax(np.array([[0.0, 1.0], [2.0, 3.0]]))
    with pytest.raises(PipelineError):
        model.apply_in_place(np.zeros((2, 3)))
    path = tmp_path / "norm.json"
    model.to_json(path)
    back = json.loads(path.read_text())
    assert np.array_equal(back["channel_min"], model.channel_min)
    assert np.array_equal(back["channel_max"], model.channel_max)


def test_minmax_apply_in_place_scales_its_argument():
    model = fit_minmax(np.array([[0.0, 5.0, -1.0], [10.0, 5.0, 3.0]]))
    values = np.array([[5.0, 5.0, 7.0], [-2.0, 9.0, 0.5], [12.0, 1.0, -1.0]])
    span = model.channel_max - model.channel_min   # the out-of-place form, as the reference
    expected = np.clip(np.where(span == 0, 0.5, (values - model.channel_min)
                                / np.where(span == 0, 1.0, span)), 0.0, 1.0)
    scaled = model.apply_in_place(values)
    assert scaled is values and values.tobytes() == expected.tobytes()


def test_apply_minmax_wraps_recording():
    rec = RawRecording("s", np.array([[0.0], [10.0]]), np.zeros(2, dtype=np.int64), 1.0, ("a",))
    out = apply_minmax(fit_minmax(rec.frames), rec)
    assert np.array_equal(out.frames, [[0.0], [1.0]])
    assert out.subject_id == "s"


# ---------------------------------------------------------------------------
# windowing


def ramp_recording(total, channels=1, labels=None, rate=1.0):
    frames = np.arange(total * channels, dtype=np.float64).reshape(total, channels)
    labels = np.zeros(total, dtype=np.int64) if labels is None else np.asarray(labels)
    names = tuple(f"l{i}" for i in range(int(labels.max()) + 1))
    return RawRecording("s", frames, labels, rate, names)


def test_segment_start_positions_at_seventy_percent_overlap():
    # 11 frames, 5-frame window, 0.7 overlap: step = half_up(1.5) = 2
    ds = segment_windows(ramp_recording(11), window_seconds=5.0, overlap_fraction=0.7)
    assert len(ds) == 4
    assert np.array_equal(ds.windows[:, 0], [0.0, 2.0, 4.0, 6.0])


def test_segment_flattens_frame_major():
    ds = segment_windows(ramp_recording(4, channels=2), window_seconds=2.0, overlap_fraction=0.0)
    # frames [[0,1],[2,3],[4,5],[6,7]]: windows keep frame order, channels adjacent
    assert np.array_equal(ds.windows, [[0, 1, 2, 3], [4, 5, 6, 7]])
    assert ds.dim == 4


def test_segment_uses_sample_rate_to_size_windows():
    ds = segment_windows(ramp_recording(20, rate=4.0), window_seconds=1.5, overlap_fraction=0.0)
    assert ds.dim == 6  # half_up(1.5 * 4) = 6 frames per window


def test_segment_majority_label_with_earliest_tie_break():
    ds = segment_windows(ramp_recording(5, labels=[0, 0, 1, 1, 2]),
                         window_seconds=5.0, overlap_fraction=0.0)
    assert ds.labels[0] == 0  # 0 and 1 tie at two frames; 0 appears first
    ds2 = segment_windows(ramp_recording(5, labels=[1, 0, 0, 1, 2]),
                          window_seconds=5.0, overlap_fraction=0.0)
    assert ds2.labels[0] == 1
    ds3 = segment_windows(ramp_recording(5, labels=[0, 2, 2, 2, 1]),
                          window_seconds=5.0, overlap_fraction=0.0)
    assert ds3.labels[0] == 2  # strict majority


def majority_reference(labels):
    """The label most frames carry; a tie goes to the tied label that shows up first."""
    counts = np.bincount(labels)
    tied = np.flatnonzero(counts == counts.max())
    return next(int(label) for label in labels if label in tied)


@pytest.mark.parametrize("overlap", [0.0, 0.5, 0.95])
def test_segment_matches_the_window_by_window_reference(overlap):
    rng = np.random.default_rng(35)
    labels = rng.integers(0, 4, size=500)
    labels[100:180] = 3
    rec = RawRecording("s", rng.normal(size=(500, 3)), labels, 10.0, ("a", "b", "c", "d"))
    ds = segment_windows(rec, window_seconds=1.3, overlap_fraction=overlap)
    width = 13
    starts = range(0, 500 - width + 1, max(1, half_up(width * (1.0 - overlap))))
    windows = np.stack([rec.frames[s:s + width].reshape(-1) for s in starts])
    assert ds.windows.tobytes() == windows.tobytes()
    assert ds.labels.tolist() == [majority_reference(labels[s:s + width]) for s in starts]


def test_segment_short_recording_warns_and_yields_nothing():
    with pytest.warns(UserWarning, match="shorter than one window"):
        ds = segment_windows(ramp_recording(3), window_seconds=5.0, overlap_fraction=0.0)
    assert len(ds) == 0
    assert ds.windows.shape == (0, 5)


def test_segment_validation():
    rec = ramp_recording(10)
    with pytest.raises(PipelineError):
        segment_windows(rec, window_seconds=5.0, overlap_fraction=1.0)
    with pytest.raises(PipelineError):
        segment_windows(rec, window_seconds=5.0, overlap_fraction=-0.1)
    with pytest.raises(PipelineError):
        segment_windows(rec, window_seconds=0.1, overlap_fraction=0.0)


def test_segment_step_never_collapses_to_zero():
    # 0.95 overlap of a 5-frame window rounds to step 0; clamp to 1
    ds = segment_windows(ramp_recording(8), window_seconds=5.0, overlap_fraction=0.95)
    assert np.array_equal(ds.windows[:, 0], [0.0, 1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# principal components


def test_pca_recovers_dominant_axis_and_variance_share():
    rng = np.random.default_rng(22)
    data = rng.normal(size=(4000, 5)) * np.array([2.0, 1.0, 1.0, 1.0, 1.0])
    model = fit_pca(data, output_dim=2)
    # coordinate variances 4,1,1,1,1: leading share is 4/8
    assert abs(model.explained_variance_ratio[0] - 0.5) < 0.03
    assert abs(abs(model.components[0, 0]) - 1.0) < 0.05
    assert model.output_dim == 2


def test_pca_components_are_orthonormal():
    rng = np.random.default_rng(23)
    model = fit_pca(rng.normal(size=(200, 12)), output_dim=7)
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(7), atol=1e-8)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(24)
    data = rng.normal(size=(60, 8))
    model = fit_pca(data.copy(), output_dim=8)
    assert np.allclose(pca_inverse(model, model.transform(data)), data, atol=1e-8)


def test_pca_sign_convention_is_deterministic():
    rng = np.random.default_rng(25)
    data = rng.normal(size=(100, 6))
    a = fit_pca(data.copy(), output_dim=4)
    b = fit_pca(data.copy(), output_dim=4)
    assert np.array_equal(a.components, b.components)
    peaks = a.components[np.arange(4), np.argmax(np.abs(a.components), axis=1)]
    assert np.all(peaks > 0)


def test_pca_centres_its_argument_in_place_with_the_bytes_of_the_copying_reference():
    rng = np.random.default_rng(29)
    pooled = np.vstack([rng.normal(size=(40, 6)), rng.normal(size=(25, 6)) + 1.0])
    raw = pooled.copy()
    model = fit_pca(pooled, output_dim=3)
    reference = pca_reference(raw.copy(), 3)
    for field in ("mean", "components", "explained_variance_ratio"):
        assert getattr(model, field).tobytes() == getattr(reference, field).tobytes()
    assert pooled.tobytes() == (raw - model.mean).tobytes()   # the caller's rows, centred
    # the centred rows project to the bytes that transform gives the raw rows
    assert model.project(pooled).tobytes() == model.transform(raw).tobytes()
    for bad in (raw[:, 0], raw.astype(np.float32), raw.tolist()):
        with pytest.raises(PipelineError, match="centre in place"):
            fit_pca(bad, output_dim=1)


def test_pca_validation():
    data = np.random.default_rng(27).normal(size=(20, 4))
    with pytest.raises(PipelineError, match=r"\[1, 4\]"):
        fit_pca(data, output_dim=0)
    with pytest.raises(PipelineError):
        fit_pca(data, output_dim=5)
    with pytest.raises(PipelineError):
        fit_pca(data[:1], output_dim=1)
    with pytest.raises(PipelineError):
        fit_pca(np.zeros((10, 4)), output_dim=2)
    model = fit_pca(data, output_dim=2)
    with pytest.raises(PipelineError):
        model.transform(np.zeros((3, 5)))


def test_pca_output_dim_is_bounded_by_pooled_windows():
    data = np.random.default_rng(30).normal(size=(5, 10))
    with pytest.raises(PipelineError, match=r"\[1, 5\]"):
        fit_pca(data, output_dim=8)
    assert fit_pca(data, output_dim=5).output_dim == 5


def _svd_reference(data, output_dim):
    """Components (up to sign) and variance ratios from a thin SVD of the centred data."""
    _, s, vt = np.linalg.svd(data - data.mean(axis=0), full_matrices=False)
    return vt[:output_dim], (s * s)[:output_dim] / np.sum(s * s)


@pytest.mark.parametrize("rows, dims, rank, output_dim", [
    pytest.param(2000, 300, None, 50, id="tall"),
    pytest.param(600, 500, None, 50, id="near-square"),
    # every component: the null space's eigenvalues come out of eigh as +-1e-12
    pytest.param(200, 60, 10, 60, id="rank-10"),
])
def test_pca_matches_svd_reference(rows, dims, rank, output_dim):
    rng = np.random.default_rng(rows + dims)
    if rank is None:
        # a decaying spectrum keeps the leading variances apart, so each component is defined
        data = rng.normal(size=(rows, dims)) * 0.95 ** np.arange(dims) + rng.normal(size=dims)
        compared = output_dim
    else:
        data = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, dims))
        compared = rank   # beyond the rank, any orthonormal basis of the null space will do
    model = fit_pca(data.copy(), output_dim=output_dim)
    ref_components, ref_ratios = _svd_reference(data, output_dim)
    assert model.components.shape == (output_dim, dims)
    assert np.allclose(model.components @ model.components.T, np.eye(output_dim),
                       rtol=0.0, atol=1e-12)
    ours, ref = model.components[:compared], ref_components[:compared]
    signs = np.sign(np.sum(ours * ref, axis=1))
    assert np.max(np.abs(ours - signs[:, None] * ref)) <= 1e-10
    assert np.max(np.abs(model.explained_variance_ratio - ref_ratios)) <= 1e-12
    assert np.all(model.explained_variance_ratio >= 0.0)
    assert model.explained_variance_ratio.sum() <= 1.0 + 1e-12


def test_pca_serialization_round_trip(tmp_path):
    model = fit_pca(np.random.default_rng(28).normal(size=(30, 5)), output_dim=3)
    path = tmp_path / "pca.json"
    model.to_json(path)
    back = json.loads(path.read_text())
    assert np.array_equal(back["mean"], model.mean)
    assert np.array_equal(back["components"], model.components)
    assert np.array_equal(back["explained_variance_ratio"], model.explained_variance_ratio)


def test_apply_pca_preserves_labels():
    ds = DomainDataset("s", np.random.default_rng(29).normal(size=(10, 6)),
                       np.arange(10) % 2, 2)
    model = fit_pca(ds.windows.copy(), output_dim=3)
    out = apply_pca(model, ds)
    assert out.dim == 3
    assert np.array_equal(out.labels, ds.labels)


# ---------------------------------------------------------------------------
# splits


def test_split_ten_windows_into_six_one_three():
    ds = DomainDataset("s", np.arange(20.0).reshape(10, 2), np.zeros(10, dtype=np.int64), 1)
    train, val, test = split_domain(ds)
    assert (len(train), len(val), len(test)) == (6, 1, 3)
    assert np.array_equal(np.vstack([train.windows, val.windows, test.windows]), ds.windows)


def test_split_three_windows_keeps_every_part_nonempty():
    ds = DomainDataset("s", np.arange(6.0).reshape(3, 2), np.zeros(3, dtype=np.int64), 1)
    train, val, test = split_domain(ds)
    assert (len(train), len(val), len(test)) == (1, 1, 1)


def test_split_seven_windows():
    ds = DomainDataset("s", np.zeros((7, 2)), np.zeros(7, dtype=np.int64), 1)
    parts = split_domain(ds)
    assert [len(p) for p in parts] == [4, 1, 2]


def test_split_validation():
    ds = DomainDataset("s", np.zeros((2, 2)), np.zeros(2, dtype=np.int64), 1)
    with pytest.raises(PipelineError):
        split_domain(ds)
    with pytest.raises(PipelineError):
        SplitSpec(train=0.5, val=0.2, test=0.2)
    with pytest.raises(PipelineError):
        SplitSpec(train=0.0, val=0.5, test=0.5)


def test_split_is_contiguous_and_keeps_labels():
    labels = np.arange(10) % 3
    ds = DomainDataset("s", np.arange(10.0)[:, None], labels, 3)
    train, val, test = split_domain(ds)
    assert np.array_equal(train.labels, labels[:6])
    assert np.array_equal(test.labels, labels[7:])


def test_split_parts_are_views_of_disjoint_rows():
    ds = DomainDataset("s", np.arange(40.0).reshape(20, 2), np.arange(20) % 2, 2)
    parts = split_domain(ds)
    for part in parts:
        assert np.shares_memory(part.windows, ds.windows)
        assert np.shares_memory(part.labels, ds.labels)
    for i, first in enumerate(parts):
        for second in parts[i + 1:]:
            assert not np.shares_memory(first.windows, second.windows)
    assert sum(len(p) for p in parts) == len(ds)
    assert np.array_equal(np.vstack([p.windows for p in parts]), ds.windows)


# ---------------------------------------------------------------------------
# dataset container


def test_dataset_save_load_round_trip(tmp_path):
    ds = DomainDataset("subjA", np.random.default_rng(30).normal(size=(8, 4)),
                       np.arange(8) % 3, 3, ("a", "b", "c"))
    ds.save(tmp_path / "d")
    back = DomainDataset.load(tmp_path / "d")
    assert back.subject_id == "subjA"
    assert np.array_equal(back.windows, ds.windows)
    assert np.array_equal(back.labels, ds.labels)
    assert back.label_names == ("a", "b", "c")

    ds.unlabeled().save(tmp_path / "u")
    back_u = DomainDataset.load(tmp_path / "u")
    assert back_u.labels is None


def test_dataset_guards():
    with pytest.raises(PipelineError):
        DomainDataset("s", np.zeros((2, 2)), np.array([0, 3]), 3)  # label out of range
    with pytest.raises(PipelineError):
        DomainDataset("s", np.zeros((2, 2)), np.array([0]), 2)     # count mismatch
    ds = DomainDataset("s", np.zeros((2, 2)), None, 2)
    with pytest.raises(PipelineError):
        ds.class_counts()


# ---------------------------------------------------------------------------
# synthetic benchmark


def test_synthetic_pair_is_deterministic_and_balanced():
    spec = SynthSpec(num_classes=3, channels=2, frames=6, class_counts=(5, 7, 4), seed=3)
    a_src, a_tgt = generate_synthetic_pair(spec)
    b_src, b_tgt = generate_synthetic_pair(spec)
    assert np.array_equal(a_src.windows, b_src.windows)
    assert np.array_equal(a_tgt.windows, b_tgt.windows)
    assert np.array_equal(a_src.class_counts(), [5, 7, 4])
    assert np.array_equal(a_tgt.class_counts(), [5, 7, 4])
    assert np.array_equal(a_src.labels, a_tgt.labels)
    assert a_src.dim == 12


def test_synthetic_zero_shift_gives_identical_domains():
    spec = SynthSpec(num_classes=2, channels=2, frames=4, class_counts=(3, 3),
                     sample_noise=0.0, seed=1)
    src, tgt = generate_synthetic_pair(spec)
    assert np.array_equal(src.windows, tgt.windows)


def test_synthetic_shift_applies_mixing_then_offset():
    m = rotation_mixing(2, 30.0)
    spec = SynthSpec(num_classes=2, channels=2, frames=4, class_counts=(3, 3),
                     mixing=m, offset=0.5, sample_noise=0.0, seed=1)
    src, tgt = generate_synthetic_pair(spec)
    s = src.windows[0].reshape(4, 2)
    t = tgt.windows[0].reshape(4, 2)
    assert np.allclose(t, s @ m.T + 0.5, atol=1e-12)


def test_rotation_mixing_is_orthogonal():
    for channels in (2, 4, 5):
        m = rotation_mixing(channels, 30.0)
        assert np.allclose(m @ m.T, np.eye(channels), atol=1e-12)
    odd = rotation_mixing(3, 45.0)
    assert np.array_equal(odd[2], [0.0, 0.0, 1.0])  # unpaired channel untouched


def test_interleave_keeps_every_prefix_near_stratified():
    counts = np.array([30, 30, 30, 6])
    order = _interleave_classes(counts)
    assert np.array_equal(np.bincount(order, minlength=4), counts)
    share = counts / counts.sum()
    for k in (10, 24, 48, 80):
        seen = np.bincount(order[:k], minlength=4)
        assert np.all(np.abs(seen - share * k) <= 1.0), k


def _interleave_reference(counts) -> np.ndarray:
    """The numpy-argmax form of the proportional order, kept as the reference."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    emitted = np.zeros(len(counts), dtype=np.int64)
    order = np.empty(total, dtype=np.int64)
    share = counts / total
    for i in range(total):
        deficit = share * (i + 1) - emitted
        deficit[emitted >= counts] = -np.inf
        order[i] = int(np.argmax(deficit))
        emitted[order[i]] += 1
    return order


def _interleave_cases():
    rng = np.random.default_rng(5)
    cases = [(300, 300, 300, 60), (3000, 3000, 3000, 600), (1, 1), (1, 7, 7, 1), (5, 5, 5)]
    for k in range(40):
        counts = rng.integers(1, 60, size=2 + k % 6)
        counts[rng.integers(len(counts))] = 1               # a class of one window
        if k % 3 == 0:
            counts[-1] = counts[0]                          # a tie in count
        cases.append(tuple(int(c) for c in counts))
    return cases


@pytest.mark.parametrize("counts", _interleave_cases(), ids=str)
def test_interleave_matches_the_argmax_reference(counts):
    order = _interleave_classes(counts)
    assert order.dtype == np.int64
    assert np.array_equal(order, _interleave_reference(counts))


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# sha256 of the source windows, target windows and labels (float64 / int64 bytes),
# computed with the one-window-at-a-time generator that the block draw replaced. The
# target mixing is a BLAS GEMM, so a target digest may differ per OpenBLAS kernel family
# (each sums in its own order); such a case holds one digest per family, first the
# SkylakeX one, then Haswell and Zen ("blocks") or Sandybridge, Nehalem and Prescott
# ("odd-rotation")
_PINNED_SYNTHETIC = {
    "blocks": (
        dict(num_classes=4, channels=40, frames=25, class_counts=(300, 300, 300, 60),
             mixing=rotation_mixing(40, 30.0), offset=0.5, shift_noise=0.05,
             sample_noise=0.3, seed=7),
        "f878ea391aef8adae04effe8baadffd1109138a369d5f57c28805a56e639a8b0",
        {"83d9e8404c4dfb356ab688656436a37aeb95659963a025c76228057f9e8e3a8b",
         "683374db64bde58ae627085f2cf2e12d0ef8004afe5d01d9bf6121e56c287436"},
        "c09c3201e01b6dea7cae2bfa910022ffdcb618b8df04fc540783ad7602081af1"),
    "identity-no-shift": (
        dict(num_classes=3, channels=3, frames=7, class_counts=(5, 9, 4), seed=11),
        "91b9d01df052065eb57c8e821031b2893445c46701b5c5567d2ffacc68d582c0",
        {"aee6f4292824d0960a37edf6256f567c1f3db01155bd69a124c4164edc9244c8"},
        "75699e853c317ae75507b6058189ef937604ee19f15f7d0033b03996ec0e6217"),
    "one-channel": (
        dict(num_classes=3, channels=1, frames=16, class_counts=(6, 6, 2),
             mixing=np.array([[0.8]]), offset=np.array([0.25]), shift_noise=0.1,
             sample_noise=0.2, seed=4),
        "a9ed9a90437d667f6bc06069be880244989d7cfb3990a61b094399ecaa183533",
        {"12a581485f6143c79b11fe549384d69311b021accd54af772055bdf8b2a4d8fa"},
        "d11fb66849858ae80824af1b1e2b21d6b04bae84efcf39bdeaa94495a8c2ec90"),
    "odd-rotation": (
        dict(num_classes=3, channels=5, frames=9, class_counts=(7, 3, 11),
             mixing=rotation_mixing(5, 45.0), offset=np.array([0.1, -0.2, 0.3, 0.0, 1.5]),
             shift_noise=0.1, sample_noise=0.3, seed=9),
        "bc4211410cd32f94e3b347619f044c9ee955de832e1083d276a84df1de2712ef",
        {"974c344b5c4957fb2d3387edf67321e2ae352a65d2dc96fcdce1ec6d13c62cad",
         "0ae9da1de7fddd6c72c148a782e3604939ae1aa353e4f81a3b05ae04d2856d7f"},
        "abb1fe4eb98c654df054b201f131b4b14375e16a745d17dbdb163cd2cadb0a4c"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_SYNTHETIC))
def test_synthetic_pair_bytes_are_pinned(case):
    fields, source_sha, target_shas, labels_sha = _PINNED_SYNTHETIC[case]
    src, tgt = generate_synthetic_pair(SynthSpec(**fields))
    assert src.windows.flags.c_contiguous and tgt.windows.flags.c_contiguous
    assert (_digest(src.windows), _digest(src.labels)) == (source_sha, labels_sha)
    assert _digest(tgt.windows) in target_shas
    assert np.array_equal(tgt.labels, src.labels) and tgt.labels is not src.labels


@pytest.mark.parametrize("shift_noise", [0.0, 0.05])
def test_synthetic_stream_in_two_draws_gives_the_bytes_of_one(shift_noise):
    spec = SynthSpec(num_classes=3, channels=40, frames=25, class_counts=(40, 30, 25),
                     mixing=rotation_mixing(40, 30.0), offset=0.5, shift_noise=shift_noise,
                     sample_noise=0.3, seed=5)
    whole = generate_synthetic_pair(spec)
    n = len(whole[0])
    block = _NOISE_BLOCK_BYTES // ((3 if shift_noise > 0 else 2) * spec.window_dim * 8)
    assert 2 < block < n - 5
    # none, inside the first and the second noise block, at a block edge, all
    for k1 in (0, block // 2, block + 5, block, n):
        stream = SyntheticStream(spec)
        first, second = generate_synthetic_pair(stream, k1), generate_synthetic_pair(stream)
        assert (len(first[0]), len(second[1]), stream.drawn) == (k1, n - k1, n)
        for i, ds in enumerate(whole):
            windows = np.concatenate([first[i].windows, second[i].windows])
            labels = np.concatenate([first[i].labels, second[i].labels])
            assert windows.tobytes() == ds.windows.tobytes(), (k1, i)
            assert labels.tobytes() == ds.labels.tobytes(), (k1, i)
        with pytest.raises(PipelineError, match="0 are left"):
            generate_synthetic_pair(stream, 1)


def test_synthetic_generation_memory_stays_near_its_outputs():
    spec = SynthSpec(num_classes=4, channels=8, frames=25, class_counts=(3000, 3000, 3000, 600),
                     mixing=rotation_mixing(8, 30.0), offset=0.5, shift_noise=0.05,
                     sample_noise=0.3, seed=3)
    tracemalloc.start()
    try:
        src, tgt = generate_synthetic_pair(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= src.windows.nbytes + tgt.windows.nbytes + 8 * 2**20


def test_synthetic_split_stays_stratified():
    spec = SynthSpec(num_classes=4, channels=3, frames=5,
                     class_counts=(300, 300, 300, 60), seed=7)
    src, _ = generate_synthetic_pair(spec)
    train, val, test = split_domain(src)
    assert len(train) == 576  # half_up(0.6 * 960)
    share = np.array([300, 300, 300, 60]) / 960.0
    assert np.all(np.abs(train.class_counts() - share * 576) <= 1.0)
    assert np.all(np.abs(test.class_counts() - share * len(test)) <= 2.0)


def test_synthetic_validation():
    with pytest.raises(PipelineError):
        SynthSpec(num_classes=2, channels=2, frames=4, class_counts=(3,))
    with pytest.raises(PipelineError):
        SynthSpec(num_classes=2, channels=2, frames=4, class_counts=(3, 0))
    with pytest.raises(PipelineError):
        SynthSpec(num_classes=2, channels=2, frames=4, class_counts=(3, 3),
                  mixing=np.zeros((2, 2)))
    with pytest.raises(PipelineError):
        SynthSpec(num_classes=2, channels=3, frames=4, class_counts=(3, 3),
                  mixing=np.eye(2))
