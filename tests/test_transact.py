import csv
import io
import json
import math
import random
import re
from collections import Counter
from datetime import datetime, timezone
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semarm import transact
from semarm.graph import load_graph
from semarm.synth import SyntheticSpec, build_dataset
from semarm.transact import (
    EncodedMatrix,
    Enrichment,
    Feature,
    GroupLayout,
    SensorSeries,
    TransactionTable,
    _parse_timestamp,
    _semantic_features,
    aggregate,
    build_transactions,
    discretize_equal_frequency,
    load_sensor_csv,
    one_hot_encode,
)

from conftest import WATER_GRAPH, expected_one_hot, make_random_table
from oracles import group_slice, slot


def oracle_from_readings(readings) -> SensorSeries:
    """The series of a (sensor_id, timestamp) -> value mapping, in its order."""
    names = [sensor for sensor, _ in readings]
    sensors = sorted(set(names))
    index = {s: i for i, s in enumerate(sensors)}
    sensor = np.array([index[s] for s in names], dtype=np.int64)
    raw = list(readings.values())
    vocab = sorted(v for v in set(raw) if isinstance(v, str))
    code = {v: i for i, v in enumerate(vocab)}
    codes = np.array([code.get(v, -1) for v in raw], dtype=np.int64)
    numeric = codes < 0
    _, first = np.unique(sensor, return_index=True)
    mixed = np.flatnonzero(numeric != numeric[first][sensor])
    if mixed.size:
        raise ValueError(f"sensor {names[mixed[0]]!r} mixes numeric and categorical values")
    numbers = np.where(numeric, np.array(raw, dtype=object), 0.0).astype(np.float64)
    timestamps = np.array([ts for _, ts in readings], dtype=np.float64)
    return SensorSeries(sensors, sensor, timestamps, numbers, codes, vocab)


class TestSensorCsv:
    def test_parses_numeric_and_quoted_categorical(self):
        text = 'timestamp,sensor_id,value\n0,s1,2.5\n60,s1,4.5\n0,door,"open"\n60,door,"closed"\n'
        series = load_sensor_csv(text)
        assert series.readings[("s1", 0.0)] == 2.5
        assert series.readings[("door", 60.0)] == "closed"
        assert series.sensors == ["door", "s1"] and series.vocab == ["closed", "open"]
        assert series.codes.tolist() == [-1, -1, 1, 0]

    def test_iso_timestamps(self):
        text = "timestamp,sensor_id,value\n1970-01-01T00:01:00+00:00,s1,1\n"
        series = load_sensor_csv(text)
        assert ("s1", 60.0) in series.readings

    def test_duplicate_reading_rejected(self):
        text = "timestamp,sensor_id,value\n0,s1,1\n0,s1,2\n"
        with pytest.raises(ValueError, match="duplicate"):
            load_sensor_csv(text)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            load_sensor_csv("time,id,val\n0,s1,1\n")

    def test_mixed_types_per_sensor_rejected(self):
        with pytest.raises(ValueError, match="mixes"):
            load_sensor_csv('timestamp,sensor_id,value\n0,s1,1\n60,s1,"open"\n')

    def test_mixed_types_name_the_first_conflicting_reading(self):
        text = 'timestamp,sensor_id,value\n0,s2,1\n0,s1,"a"\n60,s2,"x"\n60,s1,2\n'
        with pytest.raises(ValueError, match="^line 4: sensor 's2' mixes"):
            load_sensor_csv(text)


class TestAggregate:
    def test_numeric_mean_per_window(self):
        series = oracle_from_readings({("s1", 0.0): 2.0, ("s1", 30.0): 4.0})
        out = aggregate(series, 60.0)
        assert out.readings == {("s1", 0.0): 3.0}

    def test_categorical_mode(self):
        series = oracle_from_readings(
            {("door", 0.0): "open", ("door", 10.0): "open", ("door", 20.0): "closed"}
        )
        out = aggregate(series, 60.0)
        assert out.readings == {("door", 0.0): "open"}

    def test_mode_tie_breaks_lexicographically(self):
        series = oracle_from_readings({("door", 0.0): "open", ("door", 10.0): "closed"})
        out = aggregate(series, 60.0)
        assert out.readings[("door", 0.0)] == "closed"

    def test_windows_without_all_sensors_are_dropped(self):
        series = oracle_from_readings(
            {("s1", 0.0): 1.0, ("s1", 60.0): 2.0, ("s2", 0.0): 5.0}
        )
        out = aggregate(series, 60.0)
        assert sorted(out.readings) == [("s1", 0.0), ("s2", 0.0)]

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            aggregate(oracle_from_readings({}), 60.0)

    def test_tiny_window_that_does_not_overflow_is_one_window_per_timestamp(self):
        series = oracle_from_readings({("s1", 0.0): 1.0, ("s1", 60.0): 2.0})
        assert aggregate(series, 1e-300).readings == {("s1", 0.0): 1.0, ("s1", 60.0): 2.0}

    def test_nonpositive_window_rejected(self):
        for window in (0.0, -60.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="window must be positive and finite"):
                aggregate(oracle_from_readings({("s1", 0.0): 1.0}), window)


def brute_force_bin_counts(values, assignment):
    counts = {}
    for b in assignment:
        counts[b] = counts.get(b, 0) + 1
    return [counts[b] for b in sorted(counts)]


class TestDiscretize:
    def test_exact_split_of_one_to_ten(self):
        disc = discretize_equal_frequency(list(range(1, 11)), 2)
        assert disc.labels == ["1-5", "6-10"]
        assert disc.edges == [5.0]
        assert disc.assignment == [0] * 5 + [1] * 5

    def test_constant_column_collapses_to_one_class(self):
        disc = discretize_equal_frequency([7, 7, 7], 10)
        assert disc.labels == ["7-7"]
        assert disc.edges == []
        assert disc.assignment == [0, 0, 0]

    def test_values_equal_to_edge_go_to_lower_bin(self):
        disc = discretize_equal_frequency([1, 1, 1, 2, 3, 4], 2)
        assert disc.assignment == [0, 0, 0, 1, 1, 1]
        assert disc.labels == ["1-1", "2-4"]

    def test_bounds_equal_to_twelve_digits_get_exact_labels(self):
        series = oracle_from_readings({("s", 0.0): 0.1 + 0.2, ("s", 60.0): 0.3})
        table = build_transactions(series, intervals=2)
        assert table.features[0].class_values == [
            "0.3-0.3", "0.30000000000000004-0.30000000000000004"
        ]
        assert table.rows.tolist() == [[1], [0]]

    def test_exact_labels_only_in_the_colliding_column(self):
        readings = {("s", 0.0): 0.1 + 0.2, ("s", 60.0): 0.3, ("s", 120.0): 2.5}
        readings.update({("t", 0.0): 0.1, ("t", 60.0): 0.25, ("t", 120.0): 1 / 3})
        table = build_transactions(oracle_from_readings(readings), intervals=3)
        assert table.features[0].class_values == [
            "0.3-0.3", "0.30000000000000004-0.30000000000000004", "2.5-2.5"
        ]
        assert table.features[1].class_values == [
            "0.1-0.1", "0.25-0.25", "0.333333333333-0.333333333333"
        ]

    def test_thousand_normal_samples_balance(self):
        rng = np.random.default_rng(0)
        values = list(rng.normal(size=1000))
        disc = discretize_equal_frequency(values, 10)
        assert brute_force_bin_counts(values, disc.assignment) == [100] * 10

    def test_duplicate_free_divisible_inputs_split_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            intervals = int(rng.integers(1, 8))
            n = intervals * int(rng.integers(1, 12))
            values = list(rng.permutation(np.arange(n, dtype=float) * 1.7 - 3.0))
            disc = discretize_equal_frequency(values, intervals)
            assert brute_force_bin_counts(values, disc.assignment) == [n // intervals] * intervals
            assert disc.edges == sorted(disc.edges)
            assert len(set(disc.edges)) == len(disc.edges)

    def test_empty_and_bad_interval_inputs(self):
        with pytest.raises(ValueError):
            discretize_equal_frequency([], 3)
        with pytest.raises(ValueError):
            discretize_equal_frequency([1.0], 0)


def water_context(depth=1):
    graph, _, binding = load_graph(json.dumps(WATER_GRAPH))
    return Enrichment(graph, binding, depth=depth)


def series_for(sensors, n_windows, rng=None):
    rng = rng or np.random.default_rng(0)
    readings = {}
    for sensor in sensors:
        for w in range(n_windows):
            readings[(sensor, float(w * 60))] = float(rng.normal())
    return oracle_from_readings(readings)


class TestBuildTransactions:
    def test_two_sensors_ten_intervals_shape(self):
        table = build_transactions(series_for(["a", "b"], 40), intervals=10)
        assert [f.name for f in table.features] == ["a", "b"]
        assert all(len(f.class_values) <= 10 for f in table.features)
        assert table.rows.shape == (40, 2)

    def test_enrichment_depth_zero_adds_self_items(self):
        series = series_for(["s1"], 30)
        table = build_transactions(series, water_context(depth=0))
        assert [f.name for f in table.features] == [
            "s1",
            "s1.self.Pipe.length",
            "s1.self.type",
        ]
        # static graph: semantic columns are constant, single-class features
        assert table.features[1].class_values == ["850-850"]
        assert table.features[2].class_values == ["Pipe"]

    def test_enriched_features_superset_of_unenriched(self):
        series = series_for(["s1", "s2", "s3"], 25)
        plain = build_transactions(series)
        enriched = build_transactions(series, water_context(depth=1))
        plain_names = {f.name for f in plain.features}
        enriched_names = {f.name for f in enriched.features}
        assert plain_names < enriched_names
        # measurement columns are identical in both tables
        for name in plain_names:
            col_plain = plain.rows[:, plain.feature_index(name)]
            col_enriched = enriched.rows[:, enriched.feature_index(name)]
            assert np.array_equal(col_plain, col_enriched)

    def test_three_sensor_depth_one_feature_enumeration(self):
        series = series_for(["s1", "s2", "s3"], 25)
        table = build_transactions(series, water_context(depth=1))
        assert [f.name for f in table.features] == [
            "s1",
            "s1.hop1.Junction.elevation",
            "s1.self.Pipe.length",
            "s1.self.type",
            "s2",
            "s2.hop1.Pipe.length",
            "s2.self.Junction.elevation",
            "s2.self.type",
            "s3",
            "s3.hop1.Junction.elevation",
            "s3.self.Pipe.length",
            "s3.self.type",
        ]

    def test_semantic_columns_constant_across_rows(self):
        series = series_for(["s1", "s2"], 20)
        table = build_transactions(series, water_context(depth=1))
        for idx, feature in enumerate(table.features):
            if "." in feature.name:
                assert len(set(table.rows[:, idx])) == 1

    def test_unbound_sensor_with_enrichment_fails(self):
        series = series_for(["mystery"], 5)
        with pytest.raises(KeyError):
            build_transactions(series, water_context())

    def test_non_aggregated_series_rejected(self):
        readings = {("a", 0.0): 1.0, ("a", 60.0): 2.0, ("b", 0.0): 3.0}
        with pytest.raises(ValueError, match="aggregated"):
            build_transactions(oracle_from_readings(readings))

    def test_categorical_sensor_classes_sorted(self):
        readings = {("d", 0.0): "open", ("d", 60.0): "closed", ("d", 120.0): "open"}
        table = build_transactions(oracle_from_readings(readings))
        assert table.features[0].class_values == ["closed", "open"]
        assert list(table.rows[:, 0]) == [1, 0, 1]


class TestOneHot:
    def test_single_feature_two_classes(self):
        table = TransactionTable([Feature("f", "categorical", ["a", "b"])], np.array([[0]]))
        matrix = one_hot_encode(table)
        assert matrix.data.tolist() == [[1.0, 0.0]]

    def test_two_features_layout(self):
        table = TransactionTable(
            [
                Feature("f1", "categorical", ["a", "b"]),
                Feature("f2", "categorical", ["c", "d", "e"]),
            ],
            np.array([[0, 0]]),
        )
        matrix = one_hot_encode(table)
        assert matrix.data.tolist() == [[1.0, 0.0, 1.0, 0.0, 0.0]]

    def test_round_trip_on_random_tables(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            table = make_random_table(rng)
            matrix = one_hot_encode(table)
            assert matrix.layout == table.layout()
            assert matrix.data.dtype == np.float64
            assert np.array_equal(matrix.data, expected_one_hot(table))

    def test_every_row_group_sums_to_one(self):
        rng = np.random.default_rng(8)
        table = make_random_table(rng)
        matrix = one_hot_encode(table)
        for feature in range(matrix.layout.n_features):
            block = matrix.data[:, group_slice(matrix.layout, feature)]
            assert np.all(block.sum(axis=1) == 1.0)

    def test_out_of_range_class_rejected_at_construction(self):
        with pytest.raises(ValueError):
            TransactionTable([Feature("f", "categorical", ["a", "b"])], np.array([[2]]))

    def test_checked_rows_are_read_only_and_the_tables_own(self):
        features = [Feature("f1", "categorical", ["a", "b"]), Feature("f2", "categorical", ["c"])]
        given = np.array([[0, 0], [1, 0]])
        table = TransactionTable(features, given)
        with pytest.raises(ValueError, match="read-only"):
            table.rows[1, 1] = -1
        given[1, 1] = -1  # the caller's array stays writeable, and apart
        assert given.flags.writeable
        assert table.rows.dtype == np.int64 and table.rows.tolist() == [[0, 0], [1, 0]]
        assert one_hot_encode(table).data.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]

    def test_layout_slots(self):
        layout = GroupLayout((2, 3, 4))
        assert layout.width == 9
        assert layout.offsets == (0, 2, 5)
        assert slot(layout, 1, 2) == 4
        with pytest.raises(IndexError):
            slot(layout, 0, 2)

    def test_layout_of_features_is_the_table_layout(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            table = make_random_table(rng)
            assert GroupLayout.of(table.features) == table.layout()
        assert GroupLayout.of([Feature("f", "categorical", ["a", "b", "c"])]).class_counts == (3,)
        assert GroupLayout.of([]).class_counts == ()

    def test_encoded_matrix_width_checked(self):
        with pytest.raises(ValueError):
            EncodedMatrix(GroupLayout((2, 2)), np.zeros((1, 3)))


# Row-at-a-time references for the column-at-a-time aggregate, discretize and
# build_transactions: the implementations they replaced, kept as oracles.


def oracle_aggregate(series: SensorSeries, window: float) -> SensorSeries:
    if not series.readings:
        raise ValueError("cannot aggregate an empty series")
    buckets: dict[str, dict[float, list]] = {}
    for (sensor, ts), value in series.readings.items():
        start = math.floor(ts / window) * window
        buckets.setdefault(sensor, {}).setdefault(start, []).append((ts, value))

    sensors = sorted(buckets)
    shared = set(buckets[sensors[0]])
    for sensor in sensors[1:]:
        shared &= set(buckets[sensor])

    out: dict[tuple[str, float], float | str] = {}
    for sensor in sensors:
        for start in sorted(shared):
            values = [v for _, v in sorted(buckets[sensor][start])]
            if isinstance(values[0], str):
                counts = Counter(values)
                best = max(counts.values())
                out[(sensor, start)] = min(v for v, c in counts.items() if c == best)
            else:
                # a left fold: what sum() computes before Python 3.12, which
                # made sum() of floats compensated
                out[(sensor, start)] = float(reduce(add, values, 0)) / len(values)
    return oracle_from_readings(out)


def oracle_discretize(values, intervals):
    values = [float(v) for v in values]
    n = len(values)
    ordered = sorted(values)
    raw_edges = []
    for k in range(1, intervals):
        idx = math.ceil(k * n / intervals)
        raw_edges.append(ordered[idx - 1])
    edges = sorted(set(raw_edges))
    provisional = [int(np.searchsorted(edges, v, side="left")) for v in values]
    occupied = sorted(set(provisional))
    remap = {old: new for new, old in enumerate(occupied)}
    assignment = [remap[b] for b in provisional]
    lows: dict[int, float] = {}
    highs: dict[int, float] = {}
    for v, b in zip(values, assignment):
        lows[b] = min(v, lows.get(b, v))
        highs[b] = max(v, highs.get(b, v))
    labels = [f"{_format(lows[b])}-{_format(highs[b])}" for b in range(len(occupied))]
    if len(set(labels)) < len(labels):
        labels = [
            f"{_format(lows[b], exact=True)}-{_format(highs[b], exact=True)}"
            for b in range(len(occupied))
        ]
    final_edges = [highs[b] for b in range(len(occupied) - 1)]
    return final_edges, labels, assignment


def _format(value, exact=False):
    if float(value).is_integer():
        return str(int(value))
    return repr(value) if exact else f"{value:.12g}"


def oracle_build_transactions(series, enrichment=None, intervals=10):
    if not series.readings:
        raise ValueError("empty series")
    sensors = series.sensors
    windows = sorted({ts for _, ts in series.readings})
    for sensor in sensors:
        if sorted(ts for (s, ts) in series.readings if s == sensor) != windows:
            raise ValueError(f"series is not aggregated: sensor {sensor!r} misses some windows")
    features, columns = [], []

    def add_numeric(name, values):
        edges, labels, assignment = oracle_discretize(values, intervals)
        features.append(Feature(name, "numeric", labels, edges))
        columns.append(assignment)

    def add_categorical(name, values):
        classes = sorted(set(values))
        index = {v: i for i, v in enumerate(classes)}
        features.append(Feature(name, "categorical", classes))
        columns.append([index[v] for v in values])

    n = len(windows)
    for sensor in sensors:
        values = [series.readings[(sensor, w)] for w in windows]
        if isinstance(values[0], str):
            add_categorical(sensor, values)
        else:
            add_numeric(sensor, [float(v) for v in values])
        if enrichment is not None:
            for name, raw in _semantic_features(sensor, enrichment):
                if isinstance(raw, (bool, str)):
                    add_categorical(name, [str(raw)] * n)
                else:
                    add_numeric(name, [float(raw)] * n)
    return TransactionTable(features, np.array(columns, dtype=np.int64).T)


def exact_items(readings):
    """Readings in insertion order, with value types and the sign of zeros."""
    return [(s, repr(ts), type(v), repr(v)) for (s, ts), v in readings.items()]


def exact_features(table):
    return [(f.name, f.kind, f.class_values, [repr(e) for e in f.bin_edges]) for f in table.features]


WINDOWS = (60.0, 7.5, 1.0, 0.3)
NUMBER_POOLS = (
    [4.0],  # constant
    [0.1, 0.2, 0.3],  # duplicate-heavy, sums that round differently by order
    [-2.5, 0.0, 1e-3, 1e16, 3.0],
)


SENSOR_NAMES = ("s1", "s2", "s3", "t4")


@st.composite
def raw_readings(draw, names=SENSOR_NAMES):
    """Readings from 1-4 sensors, numeric and categorical mixed, in shuffled
    insertion order; each sensor reports 1-40 readings in some windows,
    negative and fractional timestamps included."""
    window = draw(st.sampled_from(WINDOWS))
    sensors = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
    windows = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    readings = []
    for sensor in sensors:
        categorical = rng.random() < 0.5
        pool = rng.choice(NUMBER_POOLS)
        for w in windows:
            if len(windows) > 1 and rng.random() < 0.15:
                continue  # this sensor misses the window
            count = draw(st.integers(1, 40))
            offsets = rng.sample(range(1, 1000), count)
            if rng.random() < 0.3:
                offsets[0] = 0  # a window start; at 0 it may be -0.0
            for offset in offsets:
                ts = (w + offset / 1000) * window
                if ts == 0.0 and rng.random() < 0.5:
                    ts = -0.0
                if categorical:
                    value = rng.choice("ab" if rng.random() < 0.5 else "abc")
                elif rng.random() < 0.3:
                    value = rng.uniform(-100.0, 100.0)
                else:
                    value = rng.choice(pool)
                readings.append(((sensor, ts), value))
    rng.shuffle(readings)
    return dict(readings), window


def raw_series():
    return raw_readings().map(lambda drawn: (oracle_from_readings(drawn[0]), drawn[1]))


@st.composite
def one_and_tied_windows(draw):
    """(readings, window): categorical sensors whose (sensor, window) cells
    each hold one reading or several whose most frequent classes tie, with
    a numeric sensor alongside at times."""
    window = draw(st.sampled_from(WINDOWS))
    sensors = draw(st.lists(st.sampled_from(SENSOR_NAMES), min_size=1, max_size=4, unique=True))
    numeric = draw(st.sampled_from([None, *sensors])) if len(sensors) > 1 else None
    windows = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
    readings = []
    for sensor in sensors:
        for w in windows:
            if sensor == numeric:
                values = draw(st.lists(st.sampled_from([0.5, -1.0, 2.0]), min_size=1, max_size=3))
            elif draw(st.booleans()):
                values = [draw(st.sampled_from("abc"))]
            else:  # the tied classes k times each, and at times one other class once
                tied = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True))
                k = draw(st.integers(1, 3))
                once = k > 1 and draw(st.booleans())
                other = [c for c in "abcd" if c not in tied][:1] if once else []
                values = draw(st.permutations(tied * k + other))
            offsets = draw(st.lists(st.integers(0, 999), min_size=len(values),
                                    max_size=len(values), unique=True))
            readings += [((sensor, (w + o / 1000) * window), v) for o, v in zip(offsets, values)]
    return dict(draw(st.permutations(readings))), window


class TestSeriesColumns:
    @given(raw_readings())
    @settings(max_examples=150, deadline=None)
    def test_readings_view_round_trips(self, drawn):
        readings, _ = drawn
        view = oracle_from_readings(readings).readings
        assert exact_items(view) == exact_items(readings)

    @given(raw_readings(), st.sets(st.sampled_from(SENSOR_NAMES)))
    @example(({("s1", 0.0): 1.0, ("s2", 0.0): "a"}, 60.0), set())
    @settings(max_examples=150, deadline=None)
    def test_select_matches_filter(self, drawn, names):
        readings, window = drawn
        selected = oracle_from_readings(readings).select(names)
        expected = {key: v for key, v in readings.items() if key[0] in names}
        assert exact_items(selected.readings) == exact_items(expected)
        assert selected.sensors == sorted({sensor for sensor, _ in expected})
        if expected:
            def outcome(series):
                try:
                    return exact_items(aggregate(series, window).readings)
                except ValueError as exc:
                    return str(exc)

            assert outcome(selected) == outcome(oracle_from_readings(expected))
        else:  # the selection removed every reading
            assert selected.timestamps.size == 0



class TestColumnarMatchesOracle:
    @given(raw_series())
    @example((oracle_from_readings({}), 60.0))  # every sensor missed every window
    @settings(max_examples=150, deadline=None)
    def test_aggregate(self, drawn):
        series, window = drawn
        if not series.readings:
            for agg in (aggregate, oracle_aggregate):
                with pytest.raises(ValueError, match="cannot aggregate an empty series"):
                    agg(series, window)
            return
        expected = oracle_aggregate(series, window)
        if not expected.readings:
            with pytest.raises(ValueError, match=f"no {window:g}-second window"):
                aggregate(series, window)
        else:
            assert exact_items(aggregate(series, window).readings) == exact_items(expected.readings)

    @given(one_and_tied_windows())
    @example(({("s1", 0.0): "b", ("s1", 60.0): "b", ("s1", 61.0): "a"}, 60.0))
    @settings(max_examples=150, deadline=None)
    def test_aggregate_mixes_one_reading_and_tied_windows(self, drawn):
        """A one-reading window keeps its reading as its mode, beside windows
        whose tied modes go to the smallest class."""
        readings, window = drawn
        series = oracle_from_readings(readings)
        expected = oracle_aggregate(series, window)
        assert exact_items(aggregate(series, window).readings) == exact_items(expected.readings)

    @given(raw_series(), st.integers(1, 12), st.sampled_from([None, 0, 1, 2]), st.booleans())
    @example((oracle_from_readings({}), 60.0), 1, None, False)
    @example((oracle_from_readings({}), 60.0), 1, None, True)
    @settings(max_examples=150, deadline=None)
    def test_build_transactions(self, drawn, intervals, depth, pre_aggregate):
        series, window = drawn
        if pre_aggregate and series.readings:
            series = oracle_aggregate(series, window)
            if not series.readings:
                return
        enrichment = None
        if depth is not None:
            if any(s not in WATER_GRAPH["bindings"] for s in series.sensors):
                return
            enrichment = water_context(depth)

        def outcome(build):
            try:
                table = build(series, enrichment, intervals)
            except ValueError as exc:
                return str(exc)
            return exact_features(table), table.rows.tolist()

        assert outcome(build_transactions) == outcome(oracle_build_transactions)

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 0.1]),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=80,
        ),
        st.integers(1, 12),
    )
    @settings(max_examples=300, deadline=None)
    def test_discretize(self, values, intervals):
        disc = discretize_equal_frequency(values, intervals)
        edges, labels, assignment = oracle_discretize(values, intervals)
        assert [repr(e) for e in disc.edges] == [repr(e) for e in edges]
        assert disc.labels == labels
        assert disc.assignment == assignment
        assert all(type(e) is float for e in disc.edges)
        assert all(type(a) is int for a in disc.assignment)


# The per-line sensor-CSV loader, as it was before load_sensor_csv built its
# columns a column at a time; a NUL is refused on every Python, as csv does
# before 3.11, and a sensor that mixes kinds is named by its first line that
# differs from the sensor's first reading.


def oracle_load_sensor_csv(source) -> SensorSeries:
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = source.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"line {line}: byte {source[exc.start]:#04x} is not UTF-8 "
                             f"({exc.reason})") from None
    reader = csv.reader(io.StringIO(source), quoting=csv.QUOTE_NONE)

    def rows():
        for lineno, row in enumerate(reader, start=1):
            if any("\0" in field for field in row):
                raise ValueError(f"line {lineno}: line contains NUL")
            yield row

    lines = rows()
    try:
        header = next(lines, None)
        if header is None or [h.strip() for h in header] != ["timestamp", "sensor_id", "value"]:
            raise ValueError("sensor CSV must start with header 'timestamp,sensor_id,value'")
        readings: dict[tuple[str, float], float | str] = {}
        kinds, mixed = {}, None
        for lineno, row in enumerate(lines, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"line {lineno}: expected 3 fields, got {len(row)}")
            ts_text, sensor, raw = (f.strip() for f in row)
            if not sensor:
                raise ValueError(f"line {lineno}: empty sensor_id")
            if not raw:
                raise ValueError(f"line {lineno}: empty value")
            try:
                key = (sensor, _parse_timestamp(ts_text))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if key in readings:
                raise ValueError(f"line {lineno}: duplicate reading for {key}")
            if len(raw) >= 2 and raw.startswith('"') and raw.endswith('"'):
                value: float | str = raw[1:-1]
            else:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
                else:
                    if not math.isfinite(value):
                        raise ValueError(f"line {lineno}: non-finite value {raw!r}")
            readings[key] = value
            if kinds.setdefault(sensor, type(value)) is not type(value) and mixed is None:
                mixed = f"line {lineno}: sensor {sensor!r} mixes numeric and categorical values"
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if mixed is not None:
        raise ValueError(mixed)
    return oracle_from_readings(readings)


def csv_outcome(load, source):
    """A loaded series as its exact columns, or the message it was refused with."""
    try:
        s = load(source)
    except ValueError as exc:
        return str(exc)
    return (s.sensors, s.vocab, s.sensor.dtype.str, s.sensor.tobytes(), s.timestamps.tobytes(),
            s.numbers.tobytes(), s.codes.tobytes())


# Fields wider than 8 bytes that differ only after byte 8, non-ASCII ones,
# and Unicode whitespace that str.strip removes
STAMPS = ["0", "-0.0", "60", "60.5", "1e3", "-120", "1700000000", "1700000060"]
ISO_STAMP = "1970-01-01T00:01:00+00:00"
NAMES = ["s1", "s2", "door", "t4", "building_3.floor_2.temp_01", "building_3.floor_2.temp_02",
         "température", "温度"]
NUMBERS = ["1.5", "-0", "2", "0.1", "1e16", "-3.25", "12.345678", "12.345679"]
LABELS = ['"a"', '"b"', '"1"', '""', "open", "closed", "a", '"state_open_1"', '"state_open_2"',
          "valve_closed_1", "valve_closed_2", '"fermé"', "geöffnet"]
PADDING = [" {} ", "\t{}", "{}\x1c", "\u00a0{}", "{}\u2003", "\x85{}\x85"]
CSV_FAULTS = ["fields", "empty", "non-finite", "duplicate", "mixed", "iso", "padding",
              "blank", "crlf", "cr", "non-utf8", "over-limit", "nul", "surrogate"]


@st.composite
def sensor_csv(draw):
    """(source, fault): a sensor CSV as text or bytes, with at most one fault
    injected into its shuffled data lines."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    stamps = draw(st.lists(st.sampled_from(STAMPS), min_size=1, max_size=4, unique_by=float))
    rows = []
    for name in names:
        pool = draw(st.sampled_from([NUMBERS, LABELS]))
        rows += [[ts, name, draw(st.sampled_from(pool))] for ts in stamps]
    rows = draw(st.permutations(rows))
    fault = draw(st.sampled_from([None, *CSV_FAULTS]))
    at = draw(st.integers(0, len(rows) - 1))
    row = rows[at]
    if fault == "fields":
        rows[at] = row[:2] if draw(st.booleans()) else row + ["x"]
    elif fault == "empty":
        row[draw(st.integers(0, 2))] = draw(st.sampled_from(["", " "]))
    elif fault == "non-finite":
        row[draw(st.sampled_from([0, 2]))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif fault == "duplicate":
        same = {"0": "-0.0", "-0.0": "0"}.get(row[0], row[0])
        rows.insert(draw(st.integers(0, len(rows))), [same, row[1], row[2]])
    elif fault == "mixed":
        row[2] = '"x"' if row[2] in NUMBERS else "7"
    elif fault == "iso":
        row[0] = draw(st.sampled_from([ISO_STAMP, "1970-01-01 00:01:00", "1970-01-01T00:00:60"]))
    elif fault == "padding":  # some fields padded, so padded and bare copies of one text meet
        field = draw(st.integers(0, 2))
        for r in rows:
            if draw(st.booleans()):
                r[field] = draw(st.sampled_from(PADDING)).format(r[field])
    elif fault in ("nul", "surrogate"):
        field = draw(st.integers(0, 2))
        cut = draw(st.integers(0, len(row[field])))
        odd = {"nul": "\0", "surrogate": "\ud800"}[fault]
        row[field] = row[field][:cut] + odd + row[field][cut:]
    elif fault == "over-limit":
        width = csv.field_size_limit() + draw(st.integers(0, 1))
        row[2] = draw(st.sampled_from(["7", "a", '"'])) * width
    lines = ["timestamp,sensor_id,value", *(",".join(r) for r in rows)]
    if fault == "blank":
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "", " "])))
    newline = {"crlf": "\r\n", "cr": "\r"}.get(fault, "\n")
    if fault == "crlf" and draw(st.booleans()):  # one line ending only
        text = "\n".join(lines[:at + 1]) + "\r\n" + "\n".join(lines[at + 1:]) + "\n"
    else:
        text = newline.join(lines) + newline * draw(st.booleans())
    if fault == "non-utf8":
        data = text.encode()
        cut = draw(st.integers(0, len(data)))
        return data[:cut] + b"\xff" + data[cut:], fault
    if fault == "surrogate":
        return text, fault
    return (text.encode() if draw(st.booleans()) else text), fault


class TestSensorCsvMatchesOracle:
    @given(sensor_csv(), st.sampled_from([None, "sensors f.csv"]))
    @example((b"timestamp,sensor_id,value\n0,s1,1\n-0.0,s1,2\n", "duplicate"), None)
    @example(("timestamp,sensor_id,value\n0,s1,1\n60,s1,\"a\"\n", "mixed"), None)
    @example(("timestamp,sensor_id,value\r\n0,s1,1\r60,s1,2\r\n", "cr"), None)
    @example(("timestamp,sensor_id,value\n0,s1,a\rb\n", "cr"), None)
    @example(("timestamp,sensor_id,value\n0,s1," + "a" * 131073, "over-limit"), None)
    @example(("timestamp,sensor_id,value\n0\x00,s1,1\n", None), "sensors f.csv")
    @example(("timestamp,sensor_id,value\n", None), None)
    @example(('timestamp,sensor_id,value\n0,s1, a\n60,s1,a\n120, s1 ,\u2003"b"\n', "padding"), None)
    @example(("timestamp" + " " * 131073 + ",sensor_id,value\n0,s1,1\n", "over-limit"), None)
    @example(("timestamp,sensor_id,value\n0,s1,1\n60,s1,", "empty"), None)  # the last line
    @example(("timestamp,sensor_id,value\n0,s1,nan\n60,s1,\n0,s1,2\n60,,1\n", "empty"), None)
    @example((b"timestamp,sensor_id,value\n0,s1,\x00" + b"a" * 131073 + b"\n", "over-limit"), None)
    @example(('timestamp,sensor_id,value\n0,s1,1\n60,s1,"a"\n120,s1,nan\n', "mixed"), None)
    @example(("timestamp,sensor_id,value\n0,s1,\n60,s1,1,2\n", "empty"), None)  # a field first
    @example(("timestamp,sensor_id,value\n0,s1\n60,s1,\n", "fields"), None)  # a line's shape first
    @example((b"timestamp,sensor_id,value\n0,s1,inf\n60,s1,\x00\n", "nul"), None)
    @example((b"timestamp,sensor_id,value\n0,s1,1\n60\x00,s1,\n", "nul"), None)
    @example((b"timestamp,sensor_id\x00,value\n", "nul"), None)
    @example(("timestamp,sensor_id,value\r0,s1,1\r60,s1,2\r", "cr"), None)  # a str's lone \r
    @example(("timestamp,sensor_id,value\n0,s1,\ud800\n", "surrogate"), None)
    @settings(max_examples=400, deadline=None)
    def test_columns_or_message_match_the_per_line_loader(self, drawn, name):
        source, _ = drawn
        data = source.encode("utf-8", "surrogatepass") if isinstance(source, str) else source
        expected = csv_outcome(oracle_load_sensor_csv, data)
        if name is not None and isinstance(expected, str):
            expected = f"{name}: {expected}"
        assert csv_outcome(lambda s: load_sensor_csv(s, name), source) == expected

    @pytest.mark.parametrize("kind", ["categorical", "numeric", "iso", "padded", "wide",
                                      "non-ascii"])
    def test_valid_input_takes_the_column_path(self, kind):
        _, text, _ = build_dataset(SyntheticSpec(4, 3, 50, seed=8))
        if kind == "numeric":  # s00 and s02 read numbers, s01 and s03 states
            text = re.sub(r'(s0[02]),"c(\d)"', r"\1,\2.5", text)
        elif kind == "iso":
            text = re.sub(r"^(\d+),", lambda m: datetime.fromtimestamp(
                int(m[1]), timezone.utc).isoformat() + ",", text, flags=re.M)
        elif kind == "padded":
            text = text.replace(",", ", ")
        elif kind == "wide":
            text = re.sub(r'(s0[02]),"c(\d)"', lambda m: f"{m[1]},{int(m[2]) / 7 + 10:.6f}", text)
            text = re.sub(r",s0(\d),", r",building_3.floor_2.temp_0\1,", text)
        elif kind == "non-ascii":
            text = re.sub(r',s0(\d),"c(\d)"', r',température_\1,"état_\2"', text)
        expected = csv_outcome(oracle_load_sensor_csv, text)
        assert not isinstance(expected, str)
        assert csv_outcome(load_sensor_csv, text) == expected
        assert csv_outcome(load_sensor_csv, text.encode()) == expected

    @pytest.mark.parametrize("bad_line", ["6000,s0,", "6000,s0,nan", "x,s0,1.5", "0,s0,1.5",
                                          "6000,s0", "6000,s0,1.5\0", '6000,s0,"a"'])
    def test_a_bad_last_line_parses_each_distinct_field_at_most_once(self, monkeypatch,
                                                                      bad_line):
        rows = [[str(ts), f"s{i}", ["1.5", "2.5", '"a"', '"b"'][i // 5 * 2 + ts // 60 % 2]]
                for ts in range(0, 6000, 60) for i in range(10)]
        text = "\n".join(["timestamp,sensor_id,value", *map(",".join, rows), bad_line]) + "\n"
        expected = csv_outcome(oracle_load_sensor_csv, text)
        assert isinstance(expected, str) and expected.startswith("line 1002: ")
        calls = []
        for parse in ("_parse_timestamp", "_parse_value"):
            def counted(text, parse=getattr(transact, parse)):
                calls.append(text)
                return parse(text)
            monkeypatch.setattr(transact, parse, counted)
        assert csv_outcome(load_sensor_csv, text) == expected
        distinct = sum(len({row[k] for row in rows}) for k in range(3))
        assert len(calls) <= distinct < len(rows)

    def test_fields_that_mix_to_one_number_are_told_apart_by_their_bytes(self, monkeypatch):
        # with no mixing a field's number is its last word, "001" for both ids
        text = ("timestamp,sensor_id,value\n0,sensor_0001,2.5\n0,sensor_1001,3.5\n"
                "60,sensor_0001,1\n60,sensor_1001,1\n")
        expected = csv_outcome(oracle_load_sensor_csv, text)
        monkeypatch.setattr(transact, "_MIX", np.uint64(0))
        assert csv_outcome(load_sensor_csv, text) == expected
        assert expected[0] == ["sensor_0001", "sensor_1001"]
