"""Data pipeline: CSV ingestion, imputation, min-max scaling, windowing,
principal-component reduction, contiguous splits, and a synthetic
two-subject benchmark generator.

Recordings are frame-major: a recording is a [frames, channels] float64
matrix with NaN marking missing cells, plus one activity label per frame.
Windows are flattened frame-major, so a window of w frames over c channels
becomes a vector of dimension w * c.
"""
from __future__ import annotations

import csv
import io
import json
import math
import operator
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rng import RandomSource


class PipelineError(ValueError):
    """Input data or a stored file violates its contract, or a transform's preconditions
    are not met."""


def read_json(path, *keys) -> dict:
    """The JSON object stored at `path`; a damaged file, another JSON value or an object
    without one of `keys` is a PipelineError that names the file."""
    try:
        value = json.loads(Path(path).read_text())
    except ValueError as e:   # JSONDecodeError, UnicodeDecodeError
        raise PipelineError(f"{path} is damaged: {e}") from None
    if not isinstance(value, dict):
        raise PipelineError(f"{path} is damaged: not a JSON object")
    for key in keys:
        if key not in value:
            raise PipelineError(f"{path} is damaged: no {key!r} key")
    return value


def _read_array(path: Path) -> np.ndarray:
    try:
        return np.load(path)
    except (ValueError, EOFError) as e:   # a cut-short or foreign .npy file
        raise PipelineError(f"{path} is damaged: {e}") from None


def half_up(x: float) -> int:
    """Round half away from zero for non-negative x (0.5 -> 1, 1.5 -> 2, 2.5 -> 3)."""
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# recordings and CSV ingestion


@dataclass(frozen=True)
class CsvSchema:
    subject_column: str = "subject"
    label_column: str = "label"
    channel_columns: tuple[str, ...] | None = None   # None: every other column, in header order
    missing_marker: str = "NaN"
    allowed_labels: tuple[str, ...] | None = None    # None: the sorted set seen in the file

    def __post_init__(self):
        # cells are compared with the marker after stripping, so a padded one never matches
        if self.missing_marker != self.missing_marker.strip():
            raise PipelineError(f"missing_marker must not start or end with whitespace, "
                                f"got {self.missing_marker!r}")
        for name in ("channel_columns", "allowed_labels"):   # labels name classes one to one
            values = getattr(self, name) or ()
            repeated = [c for i, c in enumerate(values) if c in values[:i]]
            if repeated:
                raise PipelineError(f"{name} names {repeated[0]!r} more than once")


def _check_sample_rate(rate: float) -> None:
    if not rate > 0:
        raise PipelineError(f"sample_rate must be positive, got {rate}")


@dataclass
class RawRecording:
    subject_id: str
    frames: np.ndarray          # [T, C], NaN = missing
    labels: np.ndarray          # [T] int64 indices into label_names
    sample_rate: float
    label_names: tuple

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.frames.ndim != 2:
            raise PipelineError(f"frames must be [frames, channels], got shape {self.frames.shape}")
        if self.labels.shape != (self.frames.shape[0],):
            raise PipelineError(f"need one label per frame: {self.frames.shape[0]} frames, "
                                f"{self.labels.shape[0]} labels")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= len(self.label_names)):
            raise PipelineError(f"frame labels must index the {len(self.label_names)} label names")
        _check_sample_rate(self.sample_rate)

    @property
    def num_channels(self) -> int:
        return self.frames.shape[1]


_CELLS_PER_BLOCK = 1 << 16   # channel cells per float conversion; bounds the strings held


def load_recordings(path, schema: CsvSchema, sample_rate: float) -> list:
    """Parse one CSV into per-subject recordings, preserving row order.

    Each row is checked as it is read; its channel cells are converted to
    float64 a block of rows at a time. A pending block is converted before a
    row error is raised, so the first error in file order is the one reported.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise PipelineError(f"{path}: file is empty") from None
            header = [h.strip() for h in header]
            repeated = [h for i, h in enumerate(header) if h in header[:i]]
            if repeated:
                raise PipelineError(f"{path}: header names column {repeated[0]!r} more than once")
            for col in (schema.subject_column, schema.label_column):
                if col not in header:
                    raise PipelineError(f"{path}: missing required column {col!r}")
            subj_i = header.index(schema.subject_column)
            label_i = header.index(schema.label_column)
            if schema.channel_columns is None:
                channel_cols = [h for h in header if h not in (schema.subject_column, schema.label_column)]
            else:
                channel_cols = list(schema.channel_columns)
                for col in channel_cols:
                    if col not in header:
                        raise PipelineError(f"{path}: missing channel column {col!r}")
            if not channel_cols:
                raise PipelineError(f"{path}: no channel columns")
            chan_is = [header.index(c) for c in channel_cols]
            # itemgetter of one index returns the cell itself, not a 1-tuple
            pick = operator.itemgetter(*chan_is) if len(chan_is) > 1 else lambda row: (row[chan_is[0]],)
            missing = {schema.missing_marker: math.nan}

            labels: dict[str, list] = {}    # subject -> label per row, in row order
            blocks: dict[str, list] = {}    # subject -> [rows, channels] frame blocks, in row order
            labels_seen: list[str] = []
            cells, row_subjects, row_lines = [], [], []   # the pending block: stripped cells

            def convert():
                try:
                    values = np.array(list(map(missing.get, cells, cells)), dtype=np.float64)
                except ValueError:
                    for i, cell in enumerate(cells):
                        try:
                            float(missing.get(cell, cell))
                        except ValueError:
                            row, col = divmod(i, len(chan_is))
                            raise PipelineError(
                                f"{path}:{row_lines[row]}: channel {channel_cols[col]!r} has "
                                f"non-numeric value {cell!r}") from None
                    raise
                values = values.reshape(-1, len(chan_is))
                # numbered, since numpy string arrays drop trailing NULs ("s" == "s\0")
                number = {subject: i for i, subject in enumerate(labels)}
                keys = np.array(list(map(number.__getitem__, row_subjects)))
                for subject in dict.fromkeys(row_subjects):
                    blocks.setdefault(subject, []).append(values[keys == number[subject]])
                del cells[:], row_subjects[:], row_lines[:]

            def row_error(message):
                if cells:
                    convert()
                return PipelineError(message)

            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise row_error(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
                subject = row[subj_i].strip()
                label = row[label_i].strip()
                if schema.allowed_labels is not None and label not in schema.allowed_labels:
                    raise row_error(f"{path}:{lineno}: unknown label {label!r}")
                if label not in labels_seen:
                    labels_seen.append(label)
                labels.setdefault(subject, []).append(label)
                cells.extend(map(str.strip, pick(row)))
                row_subjects.append(subject)
                row_lines.append(lineno)
                if len(cells) >= _CELLS_PER_BLOCK:
                    convert()
            if cells:
                convert()
    except UnicodeDecodeError as e:
        raise PipelineError(f"{path}: not a text file ({e})") from None

    if not labels:
        raise PipelineError(f"{path}: no data rows")
    if schema.allowed_labels is not None:
        label_names = tuple(schema.allowed_labels)
    else:
        label_names = tuple(sorted(labels_seen))
    index = {name: i for i, name in enumerate(label_names)}
    out = []
    for subject, names in labels.items():
        out.append(RawRecording(
            subject_id=subject,
            frames=np.concatenate(blocks.pop(subject)),   # frees the blocks subject by subject
            labels=np.array(list(map(index.__getitem__, names)), dtype=np.int64),
            sample_rate=sample_rate,
            label_names=label_names,
        ))
    return out


def _csv_line(fields) -> str:
    """One row as csv.writer formats it, line end included."""
    out = io.StringIO()
    csv.writer(out).writerow(fields)
    return out.getvalue()


def save_recordings_csv(recordings, path, schema: CsvSchema = CsvSchema()) -> None:
    """Write recordings as one CSV row per frame; a channel value is its float repr.

    Every recording is checked before the file is opened, so a refused call
    leaves an existing file as it was.
    """
    path = Path(path)
    if not recordings:
        raise PipelineError("nothing to write")
    channels = recordings[0].num_channels
    if any(rec.num_channels != channels for rec in recordings):
        raise PipelineError("recordings disagree on channel count")
    if schema.channel_columns is not None:
        channel_cols = list(schema.channel_columns)
        if len(channel_cols) != channels:
            raise PipelineError(f"{len(channel_cols)} channel columns for {channels} channels")
    else:
        channel_cols = [f"ch{i}" for i in range(channels)]
    # quoted as csv.writer quotes it; formatted in a two-field row, since a row of
    # one empty field is written as ""
    marker = _csv_line(["", schema.missing_marker])[1:-2]
    with path.open("w", newline="") as fh:
        fh.write(_csv_line([schema.subject_column, schema.label_column, *channel_cols]))
        for rec in recordings:
            # "subject,label," for each label name
            prefixes = [_csv_line([rec.subject_id, name, ""])[:-2] for name in rec.label_names]
            gaps = np.isnan(rec.frames).any(axis=1).tolist()
            for frame, label, gap in zip(rec.frames.tolist(), rec.labels.tolist(), gaps):
                values = map(repr, frame)
                if gap:   # repr gives "nan" for NaN and only for NaN
                    values = [marker if v == "nan" else v for v in values]
                fh.write(prefixes[label] + ",".join(values) + "\r\n")


def impute_missing(rec: RawRecording) -> RawRecording:
    """Forward-fill each channel along time, then back-fill the leading gap."""
    frames = rec.frames
    mask = np.isnan(frames)
    empty = mask.all(axis=0)
    if empty.any():
        raise PipelineError(f"channel {int(np.argmax(empty))} of subject {rec.subject_id!r} "
                            f"is entirely missing")
    # per channel, the row of the latest observed value at or before each row
    source = np.where(mask, 0, np.arange(frames.shape[0])[:, None])
    np.maximum.accumulate(source, axis=0, out=source)
    rows, cols = np.nonzero(mask)
    fill = frames[source[rows, cols], cols]
    # a leading gap has no earlier value; it takes the channel's first observed one
    lead = np.isnan(fill)
    fill[lead] = frames[np.argmax(~mask, axis=0), np.arange(frames.shape[1])][cols[lead]]
    filled = frames.copy()
    filled[rows, cols] = fill
    return replace(rec, frames=filled)


# ---------------------------------------------------------------------------
# min-max normalization


@dataclass
class NormalizationModel:
    channel_min: np.ndarray
    channel_max: np.ndarray

    def __post_init__(self):
        self.channel_min = np.asarray(self.channel_min, dtype=np.float64)
        self.channel_max = np.asarray(self.channel_max, dtype=np.float64)
        if self.channel_min.shape != self.channel_max.shape or self.channel_min.ndim != 1:
            raise PipelineError("channel_min/channel_max must be matching 1-D arrays")
        if np.any(self.channel_max < self.channel_min):
            raise PipelineError("channel_max below channel_min")

    def apply_in_place(self, values: np.ndarray) -> np.ndarray:
        """Scale `values`, a float64 array the caller owns, into [0, 1] per channel in
        place and return it; a constant channel is pinned mid-range."""
        if values.shape[-1] != self.channel_min.shape[0]:
            raise PipelineError(f"value channels {values.shape[-1]} do not match model "
                                f"channels {self.channel_min.shape[0]}")
        span = self.channel_max - self.channel_min
        values -= self.channel_min
        values /= np.where(span == 0, 1.0, span)
        values[..., span == 0] = 0.5
        return np.clip(values, 0.0, 1.0, out=values)

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(
            {"channel_min": self.channel_min.tolist(), "channel_max": self.channel_max.tolist()},
            sort_keys=True) + "\n")


def fit_minmax(values: np.ndarray) -> NormalizationModel:
    """Per-channel observed ranges from a [rows, channels] matrix (NaNs ignored)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] == 0:
        raise PipelineError(f"need a non-empty [rows, channels] matrix, got shape {values.shape}")
    if np.all(np.isnan(values), axis=0).any():
        raise PipelineError("a channel has no observed values")
    return NormalizationModel(np.nanmin(values, axis=0), np.nanmax(values, axis=0))


def declared_minmax(low, high, channels: int) -> NormalizationModel:
    """Model from declared sensor ranges; scalars broadcast to every channel."""
    low = np.broadcast_to(np.asarray(low, dtype=np.float64), (channels,)).copy()
    high = np.broadcast_to(np.asarray(high, dtype=np.float64), (channels,)).copy()
    return NormalizationModel(low, high)


def apply_minmax(model: NormalizationModel, rec: RawRecording) -> RawRecording:
    """Scale the recording's frames in place; returns the recording."""
    model.apply_in_place(rec.frames)
    return rec


# ---------------------------------------------------------------------------
# windowed datasets


@dataclass
class DomainDataset:
    subject_id: str
    windows: np.ndarray          # [N, d]
    labels: np.ndarray | None    # [N] int64, None for an unlabeled target
    num_classes: int
    label_names: tuple | None = None

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=np.float64)
        if self.windows.ndim != 2:
            raise PipelineError(f"windows must be [count, dim], got shape {self.windows.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.windows.shape[0],):
                raise PipelineError("need one label per window")
            if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
                raise PipelineError("window label outside [0, num_classes)")
        if self.num_classes < 1:
            raise PipelineError(f"num_classes must be >= 1, got {self.num_classes}")

    def __len__(self) -> int:
        return self.windows.shape[0]

    @property
    def dim(self) -> int:
        return self.windows.shape[1]

    def class_counts(self) -> np.ndarray:
        if self.labels is None:
            raise PipelineError(f"dataset {self.subject_id!r} is unlabeled")
        return np.bincount(self.labels, minlength=self.num_classes)

    def unlabeled(self) -> "DomainDataset":
        return replace(self, labels=None)

    def take(self, rows) -> "DomainDataset":
        """The rows that `rows` indexes: views for a slice, copies for a list of indices."""
        return replace(self, windows=self.windows[rows],
                       labels=None if self.labels is None else self.labels[rows])

    def with_windows(self, windows: np.ndarray) -> "DomainDataset":
        return replace(self, windows=np.asarray(windows, dtype=np.float64))

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        np.save(directory / "windows.npy", self.windows)
        if self.labels is not None:
            np.save(directory / "labels.npy", self.labels)
        meta = {"subject_id": self.subject_id, "num_classes": self.num_classes,
                "label_names": list(self.label_names) if self.label_names else None,
                "labeled": self.labels is not None}
        (directory / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")

    @staticmethod
    def load(directory) -> "DomainDataset":
        directory = Path(directory)
        meta = read_json(directory / "meta.json", "subject_id", "num_classes", "label_names",
                         "labeled")
        classes, names = meta["num_classes"], meta["label_names"]
        valid = {
            "subject_id": isinstance(meta["subject_id"], str),
            "num_classes": type(classes) is int and classes >= 1,
            "labeled": isinstance(meta["labeled"], bool),
            "label_names": names is None or (
                isinstance(names, list) and len(names) == classes
                and all(isinstance(n, str) for n in names) and len(set(names)) == classes),
        }
        for key, ok in valid.items():
            if not ok:
                raise PipelineError(f"{directory / 'meta.json'} is damaged: "
                                    f"{key} is {json.dumps(meta[key])}")
        labels = _read_array(directory / "labels.npy") if meta["labeled"] else None
        return DomainDataset(
            subject_id=meta["subject_id"], windows=_read_array(directory / "windows.npy"),
            labels=labels, num_classes=classes,
            label_names=None if names is None else tuple(names))


@dataclass(frozen=True)
class Windowing:
    """How a recording at `sample_rate` is cut: windows of `window_seconds`, each
    sharing the fraction `overlap` with the next."""
    sample_rate: float
    window_seconds: float
    overlap: float

    def __post_init__(self):
        _check_sample_rate(self.sample_rate)
        if not (0.0 <= self.overlap < 1.0):
            raise PipelineError(f"overlap must lie in [0, 1), got {self.overlap}")
        if self.frames < 1:
            raise PipelineError(f"window of {self.window_seconds}s at {self.sample_rate}Hz "
                                f"spans no frames")

    @property
    def frames(self) -> int:
        return half_up(self.window_seconds * self.sample_rate)

    @property
    def step(self) -> int:
        return max(1, half_up(self.frames * (1.0 - self.overlap)))


def segment_windows(rec: RawRecording, window_seconds: float, overlap_fraction: float) -> DomainDataset:
    """Frame-major windows, each labelled by the label most of its frames carry; a tie
    goes to whichever tied label shows up first inside the window."""
    cut = Windowing(rec.sample_rate, window_seconds, overlap_fraction)
    width = cut.frames
    total = rec.frames.shape[0]
    num_classes = len(rec.label_names)
    if total < width:
        warnings.warn(f"recording {rec.subject_id!r} is shorter than one window "
                      f"({total} < {width} frames); produced 0 windows")
        return DomainDataset(rec.subject_id, np.zeros((0, width * rec.num_channels)),
                             np.zeros(0, dtype=np.int64), num_classes, rec.label_names)
    # [windows, width, channels] views; reshape copies them out flattened frame-major
    windows = sliding_window_view(rec.frames, (width, rec.num_channels))[::cut.step, 0]
    windows = windows.reshape(len(windows), -1)
    in_window = sliding_window_view(rec.labels, width)[::cut.step]             # [windows, width]
    count = len(in_window)
    votes = np.bincount((np.arange(count)[:, None] * num_classes + in_window).ravel(),
                        minlength=count * num_classes).reshape(count, num_classes)
    tied = votes == votes.max(axis=1, keepdims=True)
    first = np.argmax(np.take_along_axis(tied, in_window, axis=1), axis=1)
    labels = in_window[np.arange(count), first]
    return DomainDataset(rec.subject_id, windows, labels, num_classes, rec.label_names)


# ---------------------------------------------------------------------------
# principal-component reduction


@dataclass
class PcaModel:
    mean: np.ndarray                      # [d]
    components: np.ndarray                # [d', d], orthonormal rows
    explained_variance_ratio: np.ndarray  # fractions of total variance, [d']

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.components = np.asarray(self.components, dtype=np.float64)
        self.explained_variance_ratio = np.asarray(self.explained_variance_ratio, dtype=np.float64)

    @property
    def output_dim(self) -> int:
        return self.components.shape[0]

    def transform(self, windows: np.ndarray) -> np.ndarray:
        windows = np.asarray(windows, dtype=np.float64)
        if windows.shape[-1] != self.mean.shape[0]:
            raise PipelineError(f"window dimension {windows.shape[-1]} does not match "
                                f"fitted dimension {self.mean.shape[0]}")
        return self.project(windows - self.mean)

    def project(self, centred: np.ndarray) -> np.ndarray:
        """Windows centred on `mean`, as fit_pca leaves its input, to their coordinates."""
        return centred @ self.components.T

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(
            {"mean": self.mean.tolist(), "components": self.components.tolist(),
             "explained_variance_ratio": self.explained_variance_ratio.tolist()},
            sort_keys=True) + "\n")


def fit_pca(windows: np.ndarray, output_dim: int) -> PcaModel:
    """Fit on the rows of a [rows, d] float64 matrix and centre it in place, so the
    caller gives up its raw values; keep output_dim components. `PcaModel.project`
    reduces the centred rows.

    The components are the leading eigenvectors of the d x d scatter matrix of
    the centred windows. That costs O(rows * d^2 + d^3), against O(rows * d *
    min(rows, d)) for an SVD of the windows themselves, so it only loses when
    there are fewer windows than dimensions. `prepare` passes the one matrix
    whose row halves are the two train splits, before the synthetic val and
    test windows exist, so the train windows are held once while it runs.
    """
    if not isinstance(windows, np.ndarray) or windows.dtype != np.float64 or windows.ndim != 2:
        raise PipelineError(f"need a float64 [rows, d] array to centre in place, got "
                            f"{type(windows).__name__} of shape {np.shape(windows)}")
    if windows.shape[0] < 2:
        raise PipelineError(f"need at least 2 windows, got shape {windows.shape}")
    rows, d = windows.shape
    bound = min(rows, d)
    if not 1 <= output_dim <= bound:
        raise PipelineError(f"output_dim must lie in [1, {bound}] for {rows} windows "
                            f"of dimension {d}, got {output_dim}")
    mean = windows.mean(axis=0)
    windows -= mean
    scatter = windows.T @ windows
    total = np.trace(scatter)
    if total <= 0.0:
        raise PipelineError("windows have zero variance; nothing to decompose")
    eigenvalues, eigenvectors = np.linalg.eigh(scatter)   # ascending
    # rank-deficient data can leave tiny negative eigenvalues
    leading = np.clip(eigenvalues[::-1][:output_dim], 0.0, None)
    components = eigenvectors[:, ::-1][:, :output_dim].T
    # deterministic sign: largest-magnitude entry of each component is positive
    flip = np.sign(components[np.arange(output_dim), np.argmax(np.abs(components), axis=1)])
    flip = np.where(flip == 0, 1.0, flip)
    components = components * flip[:, None]
    # a variance is a sum of squares over rows - 1; the divisor cancels in the share
    return PcaModel(mean, components, leading / total)


def apply_pca(model: PcaModel, ds: DomainDataset) -> DomainDataset:
    return ds.with_windows(model.transform(ds.windows))


# ---------------------------------------------------------------------------
# contiguous splits


@dataclass(frozen=True)
class SplitSpec:
    train: float = 0.6
    val: float = 0.1
    test: float = 0.3

    def __post_init__(self):
        for name, frac in (("train", self.train), ("val", self.val), ("test", self.test)):
            if frac <= 0.0:
                raise PipelineError(f"{name} fraction must be positive, got {frac}")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise PipelineError("split fractions must sum to 1")


def split_sizes(n: int, spec: SplitSpec = SplitSpec()) -> tuple[int, int, int]:
    """The train, val and test sizes of a contiguous split of n windows: train and val
    are their shares rounded half up, then the larger of the two gives up windows
    until test keeps at least one."""
    if n < 3:
        raise PipelineError(f"cannot split {n} windows into three non-empty parts")
    n_train = max(1, half_up(spec.train * n))
    n_val = max(1, half_up(spec.val * n))
    while n - n_train - n_val < 1:
        if n_train >= n_val:
            n_train -= 1
        else:
            n_val -= 1
    return n_train, n_val, n - n_train - n_val


def split_domain(ds: DomainDataset, spec: SplitSpec = SplitSpec()):
    """Contiguous train/val/test split preserving temporal order; each part is a view
    of its rows of `ds`."""
    n_train, n_val, _ = split_sizes(len(ds), spec)
    return (ds.take(slice(0, n_train)), ds.take(slice(n_train, n_train + n_val)),
            ds.take(slice(n_train + n_val, len(ds))))


# ---------------------------------------------------------------------------
# synthetic two-subject benchmark


@dataclass(frozen=True)
class SynthSpec:
    num_classes: int
    channels: int
    frames: int
    class_counts: tuple[int, ...]
    mixing: np.ndarray | None = None     # [channels, channels]; None = identity
    offset: float | np.ndarray = 0.0
    shift_noise: float = 0.0             # extra per-frame noise on the target
    sample_noise: float = 0.05           # class-process noise in both domains
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise PipelineError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.channels < 1 or self.frames < 1:
            raise PipelineError("channels and frames must be >= 1")
        if len(self.class_counts) != self.num_classes:
            raise PipelineError(f"{len(self.class_counts)} class counts for "
                                f"{self.num_classes} classes")
        if any(c < 1 for c in self.class_counts):
            raise PipelineError("class counts must be >= 1")
        if self.shift_noise < 0 or self.sample_noise < 0:
            raise PipelineError("noise amplitudes must be >= 0")
        if np.ndim(self.offset) and np.shape(self.offset) != (self.channels,):
            raise PipelineError(f"offset must be a number or {self.channels} per-channel values, "
                                f"got shape {np.shape(self.offset)}")
        if self.mixing is not None:
            m = np.asarray(self.mixing, dtype=np.float64)
            if m.shape != (self.channels, self.channels):
                raise PipelineError(f"mixing must be [{self.channels}, {self.channels}], "
                                    f"got {m.shape}")
            if np.linalg.matrix_rank(m) < self.channels:
                raise PipelineError("mixing matrix is singular")
            object.__setattr__(self, "mixing", m)

    @property
    def window_dim(self) -> int:
        return self.frames * self.channels


def rotation_mixing(channels: int, degrees: float) -> np.ndarray:
    """Block-diagonal planar rotation of consecutive channel pairs."""
    theta = math.radians(degrees)
    m = np.eye(channels)
    c, s = math.cos(theta), math.sin(theta)
    for i in range(0, channels - 1, 2):
        m[i, i] = c
        m[i, i + 1] = -s
        m[i + 1, i] = s
        m[i + 1, i + 1] = c
    return m


def _interleave_classes(counts) -> np.ndarray:
    """Deterministic proportional order, so every contiguous slice stays near-stratified.

    Each step emits the class furthest behind its share (the first on a tie),
    skipping classes that are used up.
    """
    counts = [int(c) for c in counts]
    total = sum(counts)
    share = [c / total for c in counts]
    emitted = [0] * len(counts)
    order = np.empty(total, dtype=np.int64)
    for i in range(total):
        best, most = -1, -math.inf
        for c, n in enumerate(counts):
            deficit = share[c] * (i + 1) - emitted[c]
            if emitted[c] < n and deficit > most:
                best, most = c, deficit
        emitted[best] += 1
        order[i] = best
    return order


def _prototypes(spec: SynthSpec, rng: RandomSource) -> np.ndarray:
    """Per-class [frames, channels] waveforms: class-keyed sinusoids."""
    t = np.arange(spec.frames) / spec.frames
    protos = np.empty((spec.num_classes, spec.frames, spec.channels))
    for c in range(spec.num_classes):
        amp = 0.5 + rng.uniform((spec.channels,))
        phase = rng.uniform((spec.channels,)) * 2.0 * np.pi
        freq = c + 1
        protos[c] = amp[None, :] * np.sin(2.0 * np.pi * freq * t[:, None] + phase[None, :])
    return protos


_NOISE_BLOCK_BYTES = 1 << 19   # noise per block: 64 KiB-1 MiB time alike, 4 MiB is slower


class SyntheticStream:
    """How far a draw of the synthetic pair of `spec` has got: the PCG64 stream, the
    class prototypes, each window's class and the count of windows drawn. Pass it
    to `generate_synthetic_pair` to draw its next windows; the first call sets up
    the stream, the prototypes and the class order, so all generation work
    happens there."""

    def __init__(self, spec: SynthSpec):
        self.spec = spec
        self.rng = self.protos = self.order = None
        self.drawn = 0

    def __len__(self) -> int:
        """Windows per domain, drawn or not."""
        return sum(self.spec.class_counts)


def generate_synthetic_pair(spec_or_stream: SynthSpec | SyntheticStream,
                            count: int | None = None, out: np.ndarray | None = None):
    """Build matched source/target datasets differing only by the declared subject shift:
    every window of a SynthSpec, or the next `count` windows (default: all that are
    left) of a SyntheticStream.

    The k source windows are the first k rows of one [2k, window_dim] matrix, the
    target windows the rest; a caller that passes that matrix as `out` keeps it.

    Per window the PCG64 stream yields source noise, target noise, then shift
    noise (only when `shift_noise > 0`), and one draw per block of windows reads
    it exactly as one draw per window would. So a window's bits do not depend on
    where a block or a call starts: drawing k1 windows of a stream and then k2
    gives the bytes of one draw of k1 + k2.

    Both datasets carry labels; the target's exist for evaluation only and
    must be stripped (DomainDataset.unlabeled()) before adaptation training.
    """
    stream = spec_or_stream if isinstance(spec_or_stream, SyntheticStream) \
        else SyntheticStream(spec_or_stream)
    spec, lo = stream.spec, stream.drawn
    k = len(stream) - lo if count is None else count
    if not 0 <= k <= len(stream) - lo:
        raise PipelineError(f"cannot draw {k} windows; {len(stream) - lo} are left")
    if out is not None and not (out.flags.c_contiguous and out.shape == (2 * k, spec.window_dim)):
        raise PipelineError(f"out must be a C-contiguous [{2 * k}, {spec.window_dim}] array")
    if stream.rng is None:   # the prototypes are the first values the stream yields
        stream.rng = RandomSource(spec.seed, "synthetic")
        stream.protos = _prototypes(spec, stream.rng)
        stream.order = _interleave_classes(spec.class_counts)   # each window's class
    mixing = spec.mixing if spec.mixing is not None else np.eye(spec.channels)
    offset = np.broadcast_to(np.asarray(spec.offset, dtype=np.float64), (spec.channels,))
    draws = 3 if spec.shift_noise > 0 else 2
    block = max(1, _NOISE_BLOCK_BYTES // (draws * spec.window_dim * 8))
    windows = np.empty((2 * k, spec.window_dim)) if out is None else out
    source, target = windows.reshape(2, k, spec.frames, spec.channels)   # views
    for start in range(0, k, block):
        stop = min(start + block, k)
        noise = stream.rng.normal((stop - start, draws, spec.frames, spec.channels))
        protos_here = stream.protos[stream.order[lo + start:lo + stop]]
        source[start:stop] = protos_here + spec.sample_noise * noise[:, 0]
        # a stacked [frames, channels] product per window: flattening it to one
        # 2-D product changes the last bits
        t_frames = (protos_here + spec.sample_noise * noise[:, 1]) @ mixing.T + offset
        if spec.shift_noise > 0:
            t_frames = t_frames + spec.shift_noise * noise[:, 2]
        target[start:stop] = t_frames
    stream.drawn = lo + k

    labels = stream.order[lo:lo + k]
    label_names = tuple(f"c{i}" for i in range(spec.num_classes))
    return (DomainDataset("source", windows[:k], labels, spec.num_classes, label_names),
            DomainDataset("target", windows[k:], labels.copy(), spec.num_classes, label_names))
