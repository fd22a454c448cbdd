from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multistep import data as dt
from multistep.errors import ConfigError, IngestError

FIVE_MIN = timedelta(minutes=5)


def write_csv(path, rows, header="timestamp,flow"):
    lines = [header] + [f"{ts},{v}" for ts, v in rows]
    path.write_text("\n".join(lines) + "\n")


def mk_rows(n, start=datetime(2011, 1, 1), step=FIVE_MIN, values=None):
    if values is None:
        values = range(10, 10 + 10 * n, 10)
    return [((start + i * step).isoformat(), v) for i, v in enumerate(values)]


def mk_series(values, start=datetime(2011, 1, 1), step=FIVE_MIN):
    ts = tuple(start + i * step for i in range(len(values)))
    return dt.TimeSeries(ts, np.array(values, dtype=float), step)


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
        rows = mk_rows(3, values=[10, 20, 30])
        del rows[1]  # drop the middle slot
        f = tmp_path / "s.csv"
        write_csv(f, rows)
        s = dt.ingest_csv(f, FIVE_MIN, gap_policy="linear")
        assert len(s) == 3
        assert s.values[1] == 20.0  # midpoint of 10 and 30

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

    def test_csv_round_trip(self, tmp_path):
        s = mk_series([10.25, 20.5, 30.75])
        f = tmp_path / "out.csv"
        dt.write_series_csv(s, f)
        back = dt.ingest_csv(f, FIVE_MIN)
        assert np.array_equal(back.values, s.values)
        assert back.timestamps == s.timestamps


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

    def test_mean_override(self):
        s = mk_series([1, 2, 3, 4, 5, 6])
        assert np.array_equal(dt.aggregate(s, 3, how="mean").values, [2, 5])

    def test_bad_factor(self):
        with pytest.raises(ConfigError):
            dt.aggregate(mk_series([1, 2]), 0)

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


def loop_windows(values, p, q, stride):
    """The per-sample loop make_windows replaced; it must equal this bitwise."""
    num = (len(values) - p - q) // stride + 1
    histories = np.empty((num, p))
    futures = np.empty((num, q))
    for i in range(num):
        s = i * stride
        histories[i] = values[s : s + p]
        futures[i] = values[s + p : s + p + q]
    return histories, futures


class TestWindows:
    @settings(deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 7),
        st.lists(st.floats(0, 1e6), min_size=2, max_size=60),
    )
    def test_equals_loop_oracle(self, p, q, stride, values):
        assume(len(values) >= p + q)
        values = np.array(values)
        ds = dt.make_windows(values, p, q, stride)
        histories, futures = loop_windows(values, p, q, stride)
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

    def test_large_stride_gives_one_sample(self):
        ds = dt.make_windows(np.arange(10.0), p=2, q=2, stride=10)
        assert len(ds) == 1

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError):
            dt.make_windows(np.arange(3.0), p=2, q=2)

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(6, 30))
    def test_stride_one_reconstruction(self, p, q, n):
        if n < p + q:
            return
        values = np.arange(float(n))
        ds = dt.make_windows(values, p, q, stride=1)
        rebuilt = np.full(n, np.nan)
        for i in range(len(ds)):
            rebuilt[i : i + p] = ds.histories[i]
            rebuilt[i + p : i + p + q] = ds.futures[i]
        assert np.array_equal(rebuilt, values)

    def test_sample_count_formula(self):
        for n, p, q, stride in [(20, 3, 2, 1), (20, 3, 2, 4), (9, 4, 5, 3)]:
            ds = dt.make_windows(np.arange(float(n)), p, q, stride)
            assert len(ds) == (n - p - q) // stride + 1


class TestSplit:
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

    def test_empty_validation_rejected(self):
        s = self.mk()
        # val boundary between the same two points as train boundary
        spec = dt.SplitSpec(s.timestamps[5], s.timestamps[5] + FIVE_MIN / 2)
        with pytest.raises(ConfigError, match="validation"):
            dt.split_by_date(s, spec)
