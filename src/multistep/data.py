"""Traffic-flow data pipeline: ingest, aggregate, normalize, window, split.

Raw PeMS-style CSVs carry one flow count per fixed interval. Everything
here is a pure transformation; series and datasets are treated as
immutable once built.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import accumulate, repeat
from pathlib import Path

import numpy as np

from . import schema
from .errors import ConfigError, IngestError, ShapeError

# how the CLI loads a CSV as a series; `train` records it as metadata.data
RECIPE = {
    "resolution_minutes": schema.Real(gt=0, lt=10**12, default=15),  # a timedelta holds it
    "aggregate_factor": schema.Int(1, default=1),
    "gap_policy": schema.OneOf(("reject", "linear"), default="reject"),
}


@dataclass(frozen=True)
class TimeSeries:
    start: datetime  # values[i] is at start + i * resolution, so only ingest checks spacing
    values: np.ndarray  # float64, finite, >= 0
    resolution: timedelta

    def __post_init__(self):
        if not isinstance(self.start, datetime):
            raise ConfigError(f"start must be a datetime, got {type(self.start).__name__}")
        if not (isinstance(self.resolution, timedelta) and self.resolution > timedelta(0)):
            raise ConfigError(f"resolution must be a timedelta > 0, got {self.resolution}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise ShapeError(f"values must be one-dimensional, got shape {self.values.shape}")
        if len(self.values) == 0:
            raise IngestError("no data rows")
        if not np.all(np.isfinite(self.values)):
            raise IngestError("non-finite values")
        if np.any(self.values < 0):
            raise IngestError("negative flow values")

    @property
    def timestamps(self) -> tuple:
        return tuple(accumulate(repeat(self.resolution, len(self) - 1), initial=self.start))

    def __len__(self) -> int:
        return len(self.values)

    def __array__(self, dtype=None, copy=None):  # np.asarray reads a series as its values
        return np.array(self.values, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class Normalizer:
    min: float
    max: float

    def __post_init__(self):
        if not self.max > self.min:
            raise ConfigError(f"max ({self.max}) must exceed min ({self.min})")

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.min) / (self.max - self.min)

    def invert(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float) * (self.max - self.min) + self.min


WIDTHS = {"p": schema.Int(1), "q": schema.Int(1)}  # a window's history and future lengths


@dataclass(frozen=True)
class WindowedDataset:
    histories: np.ndarray  # [num_samples, p]
    futures: np.ndarray  # [num_samples, q]
    p: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "histories", np.asarray(self.histories, dtype=float))
        object.__setattr__(self, "futures", np.asarray(self.futures, dtype=float))
        h, f = self.histories, self.futures
        if h.ndim != 2 or f.ndim != 2 or h.shape[0] != f.shape[0]:
            raise ShapeError(f"bad window shapes {h.shape}, {f.shape}")
        schema.check({"p": self.p, "q": self.q}, WIDTHS)
        if h.shape[1] != self.p or f.shape[1] != self.q:
            raise ShapeError(
                f"window widths ({h.shape[1]}, {f.shape[1]}) != (p={self.p}, q={self.q})"
            )

    def __len__(self) -> int:
        return self.histories.shape[0]


@dataclass(frozen=True)
class SplitSpec:
    train_end: datetime
    val_end: datetime

    def __post_init__(self):
        if (self.train_end.tzinfo is None) != (self.val_end.tzinfo is None):
            raise ConfigError("train_end and val_end must both have or both lack a UTC offset")
        if not self.train_end < self.val_end:
            raise ConfigError("train_end must precede val_end")


def ingest_csv(
    path, expected_resolution: timedelta, gap_policy: str = "reject"
) -> TimeSeries:
    """Read a `timestamp,flow` CSV into a validated TimeSeries.

    Each row is checked as it is read, and the first bad row in file
    order is named. Rows are then sorted by timestamp; a duplicate is
    rejected with its row number. Gaps are rejected by default or
    linearly interpolated under gap_policy='linear', which first requires
    some two consecutive rows to lie one resolution apart. The spacing
    loop runs only when some spacing differs from the resolution.
    """
    RECIPE["gap_policy"].check(gap_policy, "gap_policy")
    if not (isinstance(expected_resolution, timedelta) and expected_resolution > timedelta(0)):
        raise ConfigError(f"resolution must be a timedelta > 0, got {expected_resolution}")
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such file: {path}")
    rows = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f)
            for lineno, row in enumerate(reader, start=1):
                if lineno == 1 and row and row[0].strip().lower() == "timestamp":
                    continue  # header
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise IngestError(f"row {lineno}: expected 2 columns, got {len(row)}")
                try:
                    ts = datetime.fromisoformat(row[0].strip())
                except ValueError as exc:
                    raise IngestError(f"row {lineno}: bad timestamp {row[0]!r}") from exc
                if rows and (ts.tzinfo is None) != (rows[0][0].tzinfo is None):
                    has = "lacks" if ts.tzinfo is None else "has"  # the two do not compare
                    raise IngestError(f"row {lineno}: timestamp {has} a UTC offset, "
                                      f"unlike row {rows[0][2]}")
                try:
                    value = float(row[1])
                except ValueError as exc:
                    raise IngestError(f"row {lineno}: bad value {row[1]!r}") from exc
                if not math.isfinite(value):
                    raise IngestError(f"row {lineno}: non-finite value")
                if value < 0:
                    raise IngestError(f"row {lineno}: negative value {value}")
                rows.append((ts, value, lineno))
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not rows:
        raise IngestError("no data rows")
    rows.sort(key=operator.itemgetter(0))  # one pass when already in order
    timestamps, values, linenos = zip(*rows)
    deltas = list(map(operator.sub, timestamps[1:], timestamps))
    if deltas.count(expected_resolution) != len(deltas):  # duplicates, gaps or off-grid rows
        if timedelta(0) in deltas:
            i = deltas.index(timedelta(0)) + 1
            raise IngestError(f"row {linenos[i]}: duplicate timestamp {timestamps[i].isoformat()}")
        if gap_policy == "linear" and expected_resolution not in deltas:
            # a coarser series read at this resolution would be mostly invented points
            raise IngestError(f"no two consecutive rows are {expected_resolution} apart "
                              f"(smallest spacing {min(deltas)}); is the resolution right?")
        values = [values[0]]
        for (_, value, lineno), delta in zip(rows[1:], deltas):
            steps, rem = divmod(delta, expected_resolution)
            if rem:
                raise IngestError(
                    f"row {lineno}: spacing {delta} is not a multiple of "
                    f"{expected_resolution}"
                )
            if steps > 1:
                if gap_policy == "reject":
                    raise IngestError(f"row {lineno}: gap of {steps - 1} missing intervals")
                prev = values[-1]
                values.extend(prev + (value - prev) * k / steps for k in range(1, steps))
            values.append(value)
    return TimeSeries(timestamps[0], np.array(values), expected_resolution)


def write_series_csv(series: TimeSeries, path) -> None:
    lines = map("{},{!r}\r\n".format, map(datetime.isoformat, series.timestamps),
                series.values.tolist())
    with open(path, "w", newline="") as f:
        f.write("timestamp,flow\r\n" + "".join(lines))


def aggregate(series: TimeSeries, factor: int, how: str = "sum") -> TimeSeries:
    """Coarsen resolution by `factor` consecutive points (flow counts sum;
    `how='mean'` for rate-like data). A trailing remainder shorter than
    `factor` is dropped."""
    RECIPE["aggregate_factor"].check(factor, "factor")
    schema.OneOf(("sum", "mean")).check(how, "how")
    if factor == 1:
        return series
    n = len(series) // factor
    if n == 0:
        raise ConfigError(f"series length {len(series)} < factor {factor}")
    blocks = series.values[: n * factor].reshape(n, factor)
    values = blocks.sum(axis=1) if how == "sum" else blocks.mean(axis=1)
    return TimeSeries(series.start, values, series.resolution * factor)


def fit_normalizer(series) -> Normalizer:
    """Min-max statistics from a series (fit on the training split only)."""
    values = np.asarray(series, dtype=float)
    if values.size < 2:
        raise ConfigError("need at least 2 values to fit a normalizer")
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        raise ConfigError("constant series cannot be min-max normalized")
    return Normalizer(lo, hi)


def make_windows(series, p: int, q: int) -> WindowedDataset:
    """Slice a series into (history, future) pairs: sample i covers
    values[i : i+p] and the q points after it."""
    values = np.asarray(series, dtype=float)
    schema.check({"p": p, "q": q}, WIDTHS)
    n = len(values)
    if n < p + q:
        raise ConfigError(f"series length {n} < p + q = {p + q}")
    windows = np.lib.stride_tricks.sliding_window_view(values, p + q)
    return WindowedDataset(windows[:, :p].copy(), windows[:, p:].copy(), p, q)


def split_by_date(
    series: TimeSeries, spec: SplitSpec
) -> tuple[TimeSeries, TimeSeries, TimeSeries]:
    """Chronological split: train = (-inf, train_end], val = (train_end,
    val_end], test = (val_end, inf). All three segments must be non-empty."""
    start, n = series.start, len(series)
    if (spec.train_end.tzinfo is None) != (start.tzinfo is None):
        raise ConfigError("the split boundaries and the series timestamps must both have "
                          "or both lack a UTC offset")
    n_train, n_until_val = (min(max((t - start) // series.resolution + 1, 0), n)
                            for t in (spec.train_end, spec.val_end))  # rows at or before t
    n_val = n_until_val - n_train
    n_test = n - n_train - n_val
    if n_train == 0:
        raise ConfigError("empty training split")
    if n_val == 0:
        raise ConfigError("empty validation split")
    if n_test == 0:
        raise ConfigError("empty test split (boundaries beyond series range?)")

    def segment(lo, hi):
        return TimeSeries(start + lo * series.resolution, series.values[lo:hi], series.resolution)

    return (
        segment(0, n_train),
        segment(n_train, n_train + n_val),
        segment(n_train + n_val, n),
    )
