import csv
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from multistep import data as dt
from multistep import synth
from multistep.errors import ConfigError, IngestError, ShapeError

FIVE_MIN = timedelta(minutes=5)


def write_csv(path, rows, header="timestamp,flow"):
    lines = [header] + [f"{ts},{v}" for ts, v in rows]
    path.write_text("\n".join(lines) + "\n")


def mk_rows(n, start=datetime(2011, 1, 1), step=FIVE_MIN, values=None):
    if values is None:
        values = range(10, 10 + 10 * n, 10)
    return [((start + i * step).isoformat(), v) for i, v in enumerate(values)]


def mk_series(values, start=datetime(2011, 1, 1), step=FIVE_MIN):
    return dt.TimeSeries(start, np.array(values, dtype=float), step)


def ingest_error(path, *rows, gap_policy="reject"):
    """The message `ingest_csv` raises for a CSV of these lines under a header."""
    path.write_text("\n".join(["timestamp,flow", *rows]) + "\n")
    with pytest.raises(IngestError) as exc:
        dt.ingest_csv(path, FIVE_MIN, gap_policy=gap_policy)
    return str(exc.value)


def loop_ingest_csv(path, expected_resolution, gap_policy="reject"):
    """The per-row loop ingest_csv replaced; it must give the same series
    bitwise, or raise the same message."""
    if gap_policy not in ("reject", "linear"):
        raise ConfigError(f"unknown gap_policy {gap_policy!r}")
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such file: {path}")
    rows = []
    with open(path, newline="") as f:
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
            try:
                value = float(row[1])
            except ValueError as exc:
                raise IngestError(f"row {lineno}: bad value {row[1]!r}") from exc
            if not np.isfinite(value):
                raise IngestError(f"row {lineno}: non-finite value")
            if value < 0:
                raise IngestError(f"row {lineno}: negative value {value}")
            rows.append((ts, value, lineno))
    if not rows:
        raise IngestError("no data rows")
    rows.sort(key=lambda r: r[0])
    for (t0, _, _), (t1, _, ln) in zip(rows, rows[1:]):
        if t1 == t0:
            raise IngestError(f"row {ln}: duplicate timestamp {t1.isoformat()}")
    spacings = [t1 - t0 for (t0, _, _), (t1, _, _) in zip(rows, rows[1:])]
    if gap_policy == "linear" and spacings and expected_resolution not in spacings:
        raise IngestError(f"no two consecutive rows are {expected_resolution} apart "
                          f"(smallest spacing {min(spacings)}); is the resolution right?")

    timestamps = [rows[0][0]]
    values = [rows[0][1]]
    for ts, value, lineno in rows[1:]:
        delta = ts - timestamps[-1]
        steps, rem = divmod(delta, expected_resolution)
        if rem != timedelta(0):
            raise IngestError(
                f"row {lineno}: spacing {delta} is not a multiple of "
                f"{expected_resolution}"
            )
        if steps > 1:
            if gap_policy == "reject":
                raise IngestError(f"row {lineno}: gap of {steps - 1} missing intervals")
            prev = values[-1]
            for k in range(1, steps):
                timestamps.append(timestamps[-1] + expected_resolution)
                values.append(prev + (value - prev) * k / steps)
        timestamps.append(ts)
        values.append(value)
    series = dt.TimeSeries(timestamps[0], np.array(values), expected_resolution)
    assert series.timestamps == tuple(timestamps)
    return series


def ingest_outcome(ingest, path, gap_policy):
    try:
        s = ingest(path, FIVE_MIN, gap_policy=gap_policy)
    except IngestError as exc:
        return "error", str(exc)
    return s.timestamps, s.values.dtype, s.values.tobytes(), s.resolution


@st.composite
def csv_lines(draw):
    """A few CSV lines on a 5-minute grid, sometimes shuffled: good rows,
    gaps, duplicates and off-grid times, and in half the files each kind
    of bad row mixed in."""
    bad = ["blank", "columns", "timestamp", "value", "nan", "inf", "negative"]
    odd = st.sampled_from(["ok"] * 12 + ["gap", "duplicate", "off-grid"])
    kinds = st.one_of(odd, st.sampled_from(bad)) if draw(st.booleans()) else odd
    lines, slot = [], 0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(kinds)
        slot += {"gap": draw(st.integers(2, 3)), "duplicate": 0}.get(kind, 1)
        minutes = 5 * slot + (draw(st.integers(1, 4)) if kind == "off-grid" else 0)
        ts = (datetime(2011, 1, 1) + timedelta(minutes=minutes)).isoformat()
        value = repr(draw(st.one_of(st.floats(0, 1e6), st.integers(0, 999))))
        lines.append({
            "blank": "",
            "columns": f"{ts},{value},1",
            "timestamp": f"{ts}x,{value}",
            "value": f"{ts},{value}q",
            "nan": f"{ts},nan",
            "inf": f"{ts},{draw(st.sampled_from(['inf', '-inf', '1e999']))}",
            "negative": f"{ts},-{value}",
        }.get(kind, f"{ts},{value}"))
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    return (["timestamp,flow"] if draw(st.booleans()) else []) + lines


class TestIngest:
    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("timestamp,flow\n")
        with pytest.raises(IngestError, match="no data rows"):
            dt.ingest_csv(f, FIVE_MIN)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="no such file"):
            dt.ingest_csv(tmp_path / "nope.csv", FIVE_MIN)

    def test_three_rows(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, mk_rows(3, values=[10, 20, 30]))
        s = dt.ingest_csv(f, FIVE_MIN)
        assert len(s) == 3
        assert s.resolution == FIVE_MIN
        assert np.array_equal(s.values, [10, 20, 30])

    def test_gap_linear_fill_midpoint(self, tmp_path):
        rows = mk_rows(4, values=[10, 20, 30, 40])
        del rows[1]  # drop the second slot; the last pair keeps the 5-minute grid
        f = tmp_path / "s.csv"
        write_csv(f, rows)
        s = dt.ingest_csv(f, FIVE_MIN, gap_policy="linear")
        assert len(s) == 4
        assert s.values[1] == 20.0  # midpoint of 10 and 30

    def test_gap_linear_fill_bits(self, tmp_path):
        # prev + (value - prev) * k / steps, in that order: 31 * 1 / 3 and
        # 31 * (1 / 3) differ in the last bit
        rows = mk_rows(5, values=[10.0, 0, 0, 41.0, 50.0])
        del rows[1:3]
        f = tmp_path / "s.csv"
        write_csv(f, rows)
        s = dt.ingest_csv(f, FIVE_MIN, gap_policy="linear")
        assert s.values.tolist()[:4] == [10.0, 20.333333333333336, 30.666666666666668, 41.0]

    @pytest.mark.parametrize("n", [2, 30])
    def test_gap_linear_refuses_a_coarser_series(self, tmp_path, n):
        # 15-minute rows read as 5-minute data would be two thirds invented points
        f = tmp_path / "s.csv"
        write_csv(f, mk_rows(n, step=timedelta(minutes=15)))
        with pytest.raises(IngestError, match=r"smallest spacing 0:15:00"):
            dt.ingest_csv(f, FIVE_MIN, gap_policy="linear")

    def test_gap_rejected_by_default(self, tmp_path):
        rows = mk_rows(3)
        del rows[1]
        f = tmp_path / "s.csv"
        write_csv(f, rows)
        with pytest.raises(IngestError, match="gap"):
            dt.ingest_csv(f, FIVE_MIN)

    def test_duplicate_timestamp(self, tmp_path):
        rows = mk_rows(2)
        rows.append(rows[1])
        f = tmp_path / "s.csv"
        write_csv(f, rows)
        with pytest.raises(IngestError, match="duplicate"):
            dt.ingest_csv(f, FIVE_MIN)

    def test_negative_value_names_row(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, [(datetime(2011, 1, 1).isoformat(), -4)])
        with pytest.raises(IngestError, match="row 2"):
            dt.ingest_csv(f, FIVE_MIN)

    def test_unsorted_rows_are_sorted(self, tmp_path):
        rows = mk_rows(3, values=[10, 20, 30])
        rows.reverse()
        f = tmp_path / "s.csv"
        write_csv(f, rows)
        s = dt.ingest_csv(f, FIVE_MIN)
        assert np.array_equal(s.values, [10, 20, 30])

    def test_wrong_column_count_names_row(self, tmp_path):
        msg = ingest_error(tmp_path / "s.csv", "2011-01-01T00:00:00,5,6")
        assert msg == "row 2: expected 2 columns, got 3"

    def test_bad_timestamp_names_row(self, tmp_path):
        msg = ingest_error(tmp_path / "s.csv", "2011-01-01T00:00:00,5", "yesterday,6")
        assert msg == "row 3: bad timestamp 'yesterday'"

    def test_bad_value_names_row(self, tmp_path):
        msg = ingest_error(tmp_path / "s.csv", "2011-01-01T00:00:00,abc")
        assert msg == "row 2: bad value 'abc'"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_row(self, tmp_path, bad):
        msg = ingest_error(tmp_path / "s.csv", f"2011-01-01T00:00:00,{bad}")
        assert msg == "row 2: non-finite value"

    @pytest.mark.parametrize("gap_policy", ["reject", "linear"])
    def test_spacing_off_the_resolution_names_row(self, tmp_path, gap_policy):
        msg = ingest_error(tmp_path / "s.csv", "2011-01-01T00:00:00,5",
                           "2011-01-01T00:05:00,5", "2011-01-01T00:12:00,5",
                           gap_policy=gap_policy)
        assert msg == "row 4: spacing 0:07:00 is not a multiple of 0:05:00"

    @pytest.mark.parametrize("first, other", [("", "+00:00"), ("+02:00", "")])
    def test_mixed_utc_offsets_name_row(self, tmp_path, first, other):
        # rows are out of order and row 5 is bad too; row 4 is the first bad row read
        msg = ingest_error(tmp_path / "s.csv", f"2011-01-01T00:15:00{first},5",
                           f"2011-01-01T00:00:00{first},5", f"2011-01-01T00:05:00{other},5",
                           f"2011-01-01T00:10:00{other},-1")
        has = "lacks" if first else "has"
        assert msg == f"row 4: timestamp {has} a UTC offset, unlike row 2"

    def test_offset_change_is_written_in_the_first_rows_offset(self, tmp_path):
        # a daylight-saving change: 01:55+01:00 and 03:00+02:00 are five minutes apart
        times = ["2011-03-27T01:50:00+01:00", "2011-03-27T01:55:00+01:00",
                 "2011-03-27T03:00:00+02:00", "2011-03-27T03:05:00+02:00"]
        f, out = tmp_path / "s.csv", tmp_path / "out.csv"
        write_csv(f, [(t, v) for t, v in zip(times, [4.0, 5.0, 6.0, 7.0])])
        s = dt.ingest_csv(f, FIVE_MIN)
        assert s.timestamps == tuple(map(datetime.fromisoformat, times))  # the same instants
        dt.write_series_csv(s, out)
        assert out.read_text().splitlines() == [
            "timestamp,flow", "2011-03-27T01:50:00+01:00,4.0", "2011-03-27T01:55:00+01:00,5.0",
            "2011-03-27T02:00:00+01:00,6.0", "2011-03-27T02:05:00+01:00,7.0"]

    def test_first_bad_row_in_file_order_is_reported(self, tmp_path):
        # row 2 is later in time than row 3, and both are bad
        msg = ingest_error(tmp_path / "s.csv", "2011-01-01T00:10:00,abc",
                           "2011-01-01T00:00:00,-1")
        assert msg == "row 2: bad value 'abc'"

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])  # file rewritten
    @given(lines=csv_lines(), gap_policy=st.sampled_from(["reject", "linear"]))
    def test_equals_loop_oracle(self, tmp_path, lines, gap_policy):
        f = tmp_path / "s.csv"
        f.write_text("\n".join(lines) + "\n")
        assert ingest_outcome(dt.ingest_csv, f, gap_policy) == ingest_outcome(
            loop_ingest_csv, f, gap_policy)

    def test_csv_round_trip(self, tmp_path):
        s = mk_series([10.25, 20.5, 30.75])
        f = tmp_path / "out.csv"
        dt.write_series_csv(s, f)
        back = dt.ingest_csv(f, FIVE_MIN)
        assert np.array_equal(back.values, s.values)
        assert back.timestamps == s.timestamps


def csv_writer_series_csv(series, path):
    """The csv.writer loop write_series_csv replaced; same bytes."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["timestamp", "flow"])
        for ts, value in zip(series.timestamps, series.values):
            writer.writerow([ts.isoformat(), repr(float(value))])


class TestWriteSeries:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])  # files rewritten
    @given(
        st.lists(st.one_of(st.floats(0, 1e300), st.sampled_from([0.0, 1e-300, 5e-324])),
                 min_size=1, max_size=30),
        st.datetimes(datetime(1900, 1, 1), datetime(2100, 1, 1)),
        st.timedeltas(timedelta(microseconds=1), timedelta(days=2)),
    )
    def test_same_bytes_as_csv_writer(self, tmp_path, values, start, step):
        s = mk_series(values, start=start, step=step)
        ours, theirs = tmp_path / "a.csv", tmp_path / "b.csv"
        dt.write_series_csv(s, ours)
        csv_writer_series_csv(s, theirs)
        assert ours.read_bytes() == theirs.read_bytes()


class TestTimeSeries:
    def test_timestamps_are_the_tuples_each_producer_built(self, tmp_path):
        start = datetime(2011, 1, 1, 6)
        s = synth.make_synthetic_series(30, start=start, resolution=FIVE_MIN)
        built = tuple(start + i * FIVE_MIN for i in range(30))
        assert s.timestamps == built
        assert dt.aggregate(s, 4).timestamps == built[:28:4]
        spec = dt.SplitSpec(built[9], built[19] + FIVE_MIN / 2)
        assert [seg.timestamps for seg in dt.split_by_date(s, spec)] == [
            built[:10], built[10:20], built[20:]]
        f = tmp_path / "s.csv"
        write_csv(f, [(built[i].isoformat(), 1) for i in (0, 1, 4)])
        assert dt.ingest_csv(f, FIVE_MIN, gap_policy="linear").timestamps == built[:5]

    BAD_RESOLUTIONS = pytest.mark.parametrize(
        "resolution", [timedelta(0), timedelta(minutes=-5), 5], ids=["0", "-5", "int"])

    def test_negative_value(self):
        # ingest_csv refuses the row first; a library caller reaches this check
        with pytest.raises(IngestError, match="negative flow values"):
            dt.TimeSeries(datetime(2011, 1, 1), np.array([1.0, -0.5, 2.0]), FIVE_MIN)

    @BAD_RESOLUTIONS
    def test_non_positive_resolution(self, resolution):
        with pytest.raises(ConfigError, match="resolution must be a timedelta > 0"):
            dt.TimeSeries(datetime(2011, 1, 1), np.ones(3), resolution)

    @pytest.mark.parametrize("values", [np.ones((3, 2)), np.ones((3, 1)), np.float64(1.0)],
                             ids=["3x2", "3x1", "scalar"])
    def test_values_must_be_one_dimensional(self, values):
        with pytest.raises(ShapeError, match="one-dimensional"):
            dt.TimeSeries(datetime(2011, 1, 1), values, FIVE_MIN)

    @pytest.mark.parametrize("start", ["2011-01-01", date(2011, 1, 1), 0, None],
                             ids=["iso-string", "date", "int", "none"])
    def test_start_must_be_a_datetime(self, start):
        with pytest.raises(ConfigError, match="start must be a datetime"):
            dt.TimeSeries(start, np.ones(3), FIVE_MIN)

    @BAD_RESOLUTIONS
    def test_ingest_refuses_non_positive_resolution_before_reading(self, tmp_path, resolution):
        # a missing file would be an IngestError: the resolution is checked first
        with pytest.raises(ConfigError, match="resolution must be a timedelta > 0"):
            dt.ingest_csv(tmp_path / "absent.csv", resolution)


class TestAggregate:
    def test_factor_one_is_identity(self):
        s = mk_series([1, 2, 3])
        assert dt.aggregate(s, 1) is s

    def test_sum_hand_arithmetic(self):
        s = mk_series([1, 2, 3, 4, 5, 6])
        out = dt.aggregate(s, 3)
        assert np.array_equal(out.values, [6, 15])
        assert out.resolution == timedelta(minutes=15)

    def test_trailing_remainder_dropped(self):
        s = mk_series(list(range(7)))
        assert len(dt.aggregate(s, 3)) == 2

    def test_bad_factor(self):
        with pytest.raises(ConfigError):
            dt.aggregate(mk_series([1, 2]), 0)

    @pytest.mark.parametrize("factor", [-2, 1.5, 2.0, True, "2", None])
    def test_factor_must_be_an_integer_of_at_least_one(self, factor):
        with pytest.raises(ConfigError, match="factor must be an integer >= 1"):
            dt.aggregate(mk_series([1, 2, 3, 4]), factor)

    def test_numpy_integer_factor(self):
        assert np.array_equal(dt.aggregate(mk_series([1, 2, 3, 4]), np.int64(2)).values, [3, 7])

    @given(st.integers(1, 40), st.integers(1, 5))
    def test_timestamps_are_each_blocks_first(self, n, factor):
        if n < factor:
            return
        s = mk_series(list(range(n)))
        out = dt.aggregate(s, factor)
        assert out.timestamps == tuple(s.timestamps[i * factor] for i in range(n // factor))

    @given(st.lists(st.floats(0, 1e6), min_size=3, max_size=40),
           st.integers(1, 5))
    def test_conservation(self, values, factor):
        if len(values) < factor:
            return
        s = mk_series(values)
        out = dt.aggregate(s, factor)
        kept = len(out) * factor
        assert np.isclose(out.values.sum(), s.values[:kept].sum())


class TestNormalizer:
    def test_hand_arithmetic(self):
        n = dt.fit_normalizer(np.array([10.0, 20.0, 30.0]))
        assert np.array_equal(n.apply(np.array([10.0, 20.0, 30.0])), [0, 0.5, 1])

    def test_out_of_range_not_clamped(self):
        n = dt.Normalizer(10.0, 30.0)
        assert n.apply(np.array([40.0]))[0] == 1.5

    def test_constant_series_rejected(self):
        with pytest.raises(ConfigError):
            dt.fit_normalizer(np.array([5.0, 5.0, 5.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e9, 1e9), min_size=2, max_size=1000))
    def test_round_trip(self, values):
        values = np.array(values)
        if values.max() == values.min():
            return
        n = dt.fit_normalizer(values)
        assert np.max(np.abs(n.invert(n.apply(values)) - values)) < 1e-12 * max(
            1.0, np.max(np.abs(values))
        )

    def test_apply_does_not_mutate(self):
        n = dt.fit_normalizer(np.array([0.0, 10.0]))
        n.apply(np.array([50.0]))
        assert (n.min, n.max) == (0.0, 10.0)


def loop_windows(values, p, q):
    """The per-sample loop make_windows replaced; it must equal this bitwise."""
    num = len(values) - p - q + 1
    histories = np.empty((num, p))
    futures = np.empty((num, q))
    for i in range(num):
        histories[i] = values[i : i + p]
        futures[i] = values[i + p : i + p + q]
    return histories, futures


class TestWindows:
    @settings(deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.lists(st.floats(0, 1e6), min_size=2, max_size=60),
    )
    def test_equals_loop_oracle(self, p, q, values):
        assume(len(values) >= p + q)
        values = np.array(values)
        ds = dt.make_windows(values, p, q)
        histories, futures = loop_windows(values, p, q)
        assert np.array_equal(ds.histories, histories)
        assert np.array_equal(ds.futures, futures)
        assert ds.histories.flags.c_contiguous and ds.futures.flags.c_contiguous
        assert not np.shares_memory(ds.histories, values)
        assert not np.shares_memory(ds.futures, values)

    def test_enumeration(self):
        ds = dt.make_windows(np.array([1.0, 2, 3, 4, 5]), p=2, q=2)
        assert ds.histories.tolist() == [[1, 2], [2, 3]]
        assert ds.futures.tolist() == [[3, 4], [4, 5]]

    def test_exact_length_gives_one_sample(self):
        ds = dt.make_windows(np.arange(4.0), p=2, q=2)
        assert len(ds) == 1

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError):
            dt.make_windows(np.arange(3.0), p=2, q=2)

    @pytest.mark.parametrize("p, q", [(2.5, 2), (2, 2.5), (2.0, 2), (True, 2), (2, 0)])
    def test_non_integer_or_small_p_q_rejected(self, p, q):
        with pytest.raises(ConfigError, match="^[pq] must be an integer >= 1"):
            dt.make_windows(np.arange(10.0), p, q)

    @pytest.mark.parametrize("field, value", [
        ("p", True), ("p", 1.5), ("p", 2.0), ("p", 0), ("p", "2"),
        ("q", False), ("q", 1.0), ("q", -1), ("q", None),
    ])
    def test_dataset_refuses_a_bad_p_or_q_by_name(self, field, value):
        widths = {"p": 2, "q": 1, field: value}
        with pytest.raises(ConfigError, match=f"^{field} must be an integer >= 1"):
            dt.WindowedDataset(np.zeros((3, 2)), np.zeros((3, 1)), **widths)

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(6, 30))
    def test_stride_one_reconstruction(self, p, q, n):
        if n < p + q:
            return
        values = np.arange(float(n))
        ds = dt.make_windows(values, p, q)
        rebuilt = np.full(n, np.nan)
        for i in range(len(ds)):
            rebuilt[i : i + p] = ds.histories[i]
            rebuilt[i + p : i + p + q] = ds.futures[i]
        assert np.array_equal(rebuilt, values)

    def test_sample_count_formula(self):
        for n, p, q in [(20, 3, 2), (9, 4, 5)]:
            ds = dt.make_windows(np.arange(float(n)), p, q)
            assert len(ds) == n - p - q + 1


def counted_split_sizes(series, spec):
    """The counting split_by_date replaced: (n_train, n_val, n_test)."""
    ts = series.timestamps
    n_train = sum(1 for t in ts if t <= spec.train_end)
    n_val = sum(1 for t in ts if spec.train_end < t <= spec.val_end)
    return n_train, n_val, len(ts) - n_train - n_val


class TestSplit:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.lists(st.integers(-3, 27), min_size=2, max_size=2,
                                        unique=True))
    def test_equals_counting_formula(self, n, halves):
        # boundaries in half steps: before, on, between and after the timestamps
        s = mk_series(list(range(n)))
        train_end, val_end = (s.timestamps[0] + k * FIVE_MIN / 2 for k in sorted(halves))
        spec = dt.SplitSpec(train_end, val_end)
        sizes = counted_split_sizes(s, spec)
        if 0 in sizes:
            with pytest.raises(ConfigError):
                dt.split_by_date(s, spec)
            return
        segments = dt.split_by_date(s, spec)
        assert tuple(map(len, segments)) == sizes
        assert sum((seg.timestamps for seg in segments), ()) == s.timestamps

    def mk(self, n=10):
        return mk_series(list(range(1, n + 1)))

    def test_six_two_two(self):
        s = self.mk()
        spec = dt.SplitSpec(s.timestamps[5], s.timestamps[7])
        train, val, test = dt.split_by_date(s, spec)
        assert (len(train), len(val), len(test)) == (6, 2, 2)
        glued = np.concatenate([train.values, val.values, test.values])
        assert np.array_equal(glued, s.values)

    def test_boundary_beyond_range(self):
        s = self.mk()
        spec = dt.SplitSpec(
            s.timestamps[-1] + FIVE_MIN, s.timestamps[-1] + 2 * FIVE_MIN
        )
        with pytest.raises(ConfigError):
            dt.split_by_date(s, spec)

    def test_equal_boundaries_rejected(self):
        s = self.mk()
        with pytest.raises(ConfigError):
            dt.SplitSpec(s.timestamps[5], s.timestamps[5])

    def test_mixed_utc_offsets_rejected(self):
        s = self.mk()
        aware = datetime(2011, 1, 1, 0, 30, tzinfo=timezone.utc)
        with pytest.raises(ConfigError, match="UTC offset"):
            dt.SplitSpec(s.timestamps[5], aware)
        with pytest.raises(ConfigError, match="UTC offset"):
            dt.split_by_date(s, dt.SplitSpec(aware, aware + FIVE_MIN))

    def test_empty_validation_rejected(self):
        s = self.mk()
        # val boundary between the same two points as train boundary
        spec = dt.SplitSpec(s.timestamps[5], s.timestamps[5] + FIVE_MIN / 2)
        with pytest.raises(ConfigError, match="validation"):
            dt.split_by_date(s, spec)
