"""Turn raw time-stamped sensor readings into discretized, optionally
semantically enriched, one-hot encodable transactions."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import accumulate, repeat

import numpy as np

from .graph import Binding, PropertyGraph, semantic_items_for_sensor

__all__ = [
    "SensorSeries",
    "GroupLayout",
    "Feature",
    "TransactionTable",
    "EncodedMatrix",
    "Enrichment",
    "Discretization",
    "load_sensor_csv",
    "aggregate",
    "discretize_equal_frequency",
    "build_transactions",
    "one_hot_encode",
    "decode_one_hot",
]

DEFAULT_INTERVALS = 10


@dataclass
class SensorSeries:
    """Raw or aggregated readings: (sensor_id, timestamp) -> value.

    Values are floats for measurement sensors and strings for categorical
    (state) sensors; a given sensor must be consistently one or the other.
    """

    readings: dict[tuple[str, float], float | str]

    def __post_init__(self):
        kinds: dict[str, type] = {}
        for (sensor, _), value in self.readings.items():
            kind = str if isinstance(value, str) else float
            if kinds.setdefault(sensor, kind) is not kind:
                raise ValueError(f"sensor {sensor!r} mixes numeric and categorical values")

    @property
    def sensors(self) -> list[str]:
        return sorted({sensor for sensor, _ in self.readings})

    def is_numeric(self, sensor: str) -> bool:
        for (s, _), value in self.readings.items():
            if s == sensor:
                return not isinstance(value, str)
        raise KeyError(sensor)


def _parse_timestamp(text: str) -> float:
    """Integer epoch seconds or ISO-8601; naive ISO datetimes are read as UTC."""
    try:
        value = float(text)
    except ValueError:
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.timestamp()
    if not math.isfinite(value):
        raise ValueError(f"non-finite timestamp {text!r}")
    return value


def load_sensor_csv(source) -> SensorSeries:
    """Parse sensor reading CSV with header ``timestamp,sensor_id,value``.

    Values wrapped in double quotes are categorical; unquoted values are
    parsed as decimals, falling back to categorical for non-numeric text.
    Duplicate (sensor, timestamp) keys, empty sensor ids or values,
    unparseable timestamps and non-finite numbers are rejected with the
    line number.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    reader = csv.reader(io.StringIO(source), quoting=csv.QUOTE_NONE)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["timestamp", "sensor_id", "value"]:
        raise ValueError("sensor CSV must start with header 'timestamp,sensor_id,value'")
    readings: dict[tuple[str, float], float | str] = {}
    for lineno, row in enumerate(reader, start=2):
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
    return SensorSeries(readings)


def _key_columns(series: SensorSeries):
    """Sorted sensor names, plus each reading's index into them and its
    timestamp, as arrays in reading order."""
    names, stamps = zip(*series.readings)
    sensors = sorted(set(names))
    sensor_of = np.array(list(map({s: i for i, s in enumerate(sensors)}.__getitem__, names)))
    return sensors, sensor_of, np.array(stamps, dtype=np.float64)


def _segment_means(values: np.ndarray, first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Mean of each run ``values[first[i]:first[i] + lengths[i]]``.

    Each run is summed left to right, one add per value, which fixes the last
    bit of every mean; ``np.add.reduceat`` sums runs of 8 or more pairwise and
    can round differently. Runs are visited longest first, so step k adds the
    k-th value of each run in a prefix of them.
    """
    by_length = np.argsort(-lengths, kind="stable")
    first, lengths = first[by_length], lengths[by_length]
    sums = np.zeros(len(first))
    active = np.searchsorted(-lengths, -np.arange(lengths.max(initial=0)), side="left")
    for k, m in enumerate(active.tolist()):
        sums[:m] += values[first[:m] + k]
    means = np.empty_like(sums)
    means[by_length] = sums / lengths
    return means


def _segment_modes(codes: np.ndarray, segment: np.ndarray, n_codes: int):
    """(segment, code) of the most frequent code in each segment, ties going
    to the smallest code, for readings with the given segment ids."""
    pairs, counts = np.unique(segment * n_codes + codes, return_counts=True)
    seg, code = np.divmod(pairs, n_codes)
    order = np.lexsort((code, -counts, seg))
    seg, code = seg[order], code[order]
    best = np.r_[True, seg[1:] != seg[:-1]]
    return seg[best], code[best]


def aggregate(series: SensorSeries, window: float) -> SensorSeries:
    """Aggregate readings into time frames of ``window`` seconds.

    Numeric sensors take the arithmetic mean of in-window values, summed in
    timestamp order; categorical sensors the modal value (ties broken by the
    lexicographically smallest). Only windows in which every sensor reports
    survive: a transaction exists only where all sensors have a value. Output
    timestamps are window starts, in (sensor, window start) order.

    The work is done column at a time: one lexsort by (sensor, window start,
    timestamp) makes each (sensor, window) cell a contiguous segment.
    """
    if not series.readings:
        raise ValueError("cannot aggregate an empty series")
    if not (window > 0 and math.isfinite(window)):
        raise ValueError("window must be positive and finite")
    sensors, sensor, ts = _key_columns(series)
    raw = list(series.readings.values())
    n = len(raw)
    # categorical values become codes into their sorted vocabulary, numbers -1
    vocab = sorted(v for v in set(raw) if isinstance(v, str))
    value_code = {v: i for i, v in enumerate(vocab)}
    codes = np.array(list(map(value_code.get, raw, repeat(-1))), dtype=np.int64)
    numbers = np.zeros(n)
    numeric_reading = codes < 0
    numbers[numeric_reading] = np.array(raw, dtype=object)[numeric_reading].astype(np.float64)
    # + 0.0 maps -0.0 to 0.0, as math.floor(ts / window) * window does
    start = np.floor(ts / window) * window + 0.0
    order = np.lexsort((ts, start, sensor))
    sensor, start, codes, numbers = sensor[order], start[order], codes[order], numbers[order]

    first = np.flatnonzero(np.r_[True, (sensor[1:] != sensor[:-1]) | (start[1:] != start[:-1])])
    lengths = np.diff(np.r_[first, n])
    seg_sensor, seg_start = sensor[first], start[first]
    # each (sensor, window) is one segment: a window every sensor reports
    # is the start of len(sensors) segments
    _, window_of, per_window = np.unique(seg_start, return_inverse=True, return_counts=True)
    keep = per_window[window_of] == len(sensors)
    if not keep.any():
        raise ValueError(f"no {window:g}-second window in which every sensor reports")

    categorical = codes[first] >= 0
    values = np.empty(len(first), dtype=object)
    numeric = np.flatnonzero(keep & ~categorical)
    values[numeric] = _segment_means(numbers, first[numeric], lengths[numeric])
    modal = np.repeat(keep & categorical, lengths)
    if modal.any():
        segment = np.repeat(np.arange(len(first)), lengths)
        seg, code = _segment_modes(codes[modal], segment[modal], len(vocab))
        values[seg] = np.array(vocab, dtype=object)[code]

    kept = np.flatnonzero(keep)
    keys = zip(np.array(sensors, dtype=object)[seg_sensor[kept]].tolist(), seg_start[kept].tolist())
    return SensorSeries(dict(zip(keys, values[kept].tolist())))


@dataclass
class Discretization:
    """Equal-frequency binning of one numeric column.

    ``edges`` are the interior boundaries between surviving bins (strictly
    increasing; values <= an edge fall in the lower bin), ``labels`` the
    "lo-hi" class names, ``assignment`` the per-value bin index.
    """

    edges: list[float]
    labels: list[str]
    assignment: list[int]


def _format_bound(value: float, exact: bool = False) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(value) if exact else f"{value:.12g}"


def discretize_equal_frequency(values, intervals: int) -> Discretization:
    """Bin numeric values so each bin holds roughly the same count.

    Interior edges sit at the sorted-order indices ceil(k*n/intervals) for
    k = 1..intervals-1; a value equal to an edge goes to the lower bin.
    Duplicate-heavy or constant columns collapse to fewer classes (down to a
    single class) instead of erroring. Labels print bounds to 12 significant
    digits, or exactly (``repr``) in a column where that would repeat a label.
    """
    values = np.fromiter(values, dtype=np.float64)
    if intervals < 1:
        raise ValueError("intervals must be >= 1")
    if not values.size:
        raise ValueError("cannot discretize an empty column")
    n = len(values)
    # stable, so equal values keep input order and each bin's last sorted
    # value is its last maximal input value, as a running max() keeps
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    raw_edges = [ordered[math.ceil(k * n / intervals) - 1] for k in range(1, intervals)]
    edges = np.unique(raw_edges)

    # values <= edge fall below it, so bin index = count of edges < value
    provisional = np.searchsorted(edges, values, side="left")
    _, assignment = np.unique(provisional, return_inverse=True)
    ends = np.cumsum(np.bincount(assignment))
    lows = ordered[np.r_[0, ends[:-1]]].tolist()
    highs = ordered[ends - 1].tolist()
    labels = [f"{_format_bound(lo)}-{_format_bound(hi)}" for lo, hi in zip(lows, highs)]
    if len(set(labels)) < len(labels):
        # bounds that agree to 12 significant digits: exact labels, distinct
        # because bins are disjoint
        labels = [
            f"{_format_bound(lo, exact=True)}-{_format_bound(hi, exact=True)}"
            for lo, hi in zip(lows, highs)
        ]
    return Discretization(highs[:-1], labels, assignment.tolist())


@dataclass(frozen=True)
class GroupLayout:
    """Slot layout of one-hot encoded features: class count per feature, in
    feature order, with derived contiguous slot ranges."""

    class_counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.class_counts)
        if any(c < 1 for c in counts):
            raise ValueError("every feature needs at least one class")
        object.__setattr__(self, "class_counts", counts)
        object.__setattr__(self, "_offsets", tuple(accumulate((0,) + counts))[:-1])

    @property
    def n_features(self) -> int:
        return len(self.class_counts)

    @property
    def width(self) -> int:
        return sum(self.class_counts)

    @property
    def offsets(self) -> tuple[int, ...]:
        return self._offsets  # type: ignore[attr-defined]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """(feature_index, class_count) in slot order."""
        return list(enumerate(self.class_counts))

    def slot(self, feature: int, class_index: int) -> int:
        if not 0 <= class_index < self.class_counts[feature]:
            raise IndexError(f"class {class_index} out of range for feature {feature}")
        return self.offsets[feature] + class_index

    def group_slice(self, feature: int) -> slice:
        start = self.offsets[feature]
        return slice(start, start + self.class_counts[feature])


@dataclass
class Feature:
    """One transaction column: a named categorical variable with its ordered
    class values and, for binned numeric columns, the interior bin edges."""

    name: str
    kind: str  # "numeric" or "categorical"
    class_values: list[str]
    bin_edges: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if len(set(self.class_values)) != len(self.class_values):
            raise ValueError(f"feature {self.name!r} has duplicate class values")
        if not self.class_values:
            raise ValueError(f"feature {self.name!r} has no class values")
        if self.kind == "numeric" and self.bin_edges != sorted(set(self.bin_edges)):
            raise ValueError(f"feature {self.name!r} bin edges not strictly increasing")


@dataclass(eq=False)
class TransactionTable:
    """Discretized transactions: one class index per feature per row."""

    features: list[Feature]
    rows: np.ndarray  # shape (n_rows, n_features), integer class indices

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.features):
            raise ValueError("rows must be (n_rows, n_features)")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature names")
        for col, feature in enumerate(self.features):
            column = self.rows[:, col]
            if column.size and (column.min() < 0 or column.max() >= len(feature.class_values)):
                raise ValueError(f"row value out of range for feature {feature.name!r}")

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return len(self.features)

    def layout(self) -> GroupLayout:
        return GroupLayout(tuple(len(f.class_values) for f in self.features))

    def row_values(self, index: int) -> list[str]:
        return [
            feature.class_values[self.rows[index, col]]
            for col, feature in enumerate(self.features)
        ]

    def feature_index(self, name: str) -> int:
        for idx, feature in enumerate(self.features):
            if feature.name == name:
                return idx
        raise KeyError(name)


@dataclass(frozen=True)
class Enrichment:
    """Graph context for semantic enrichment of transactions."""

    graph: PropertyGraph
    binding: Binding
    depth: int = 1


@dataclass(eq=False)
class EncodedMatrix:
    """One-hot encoded transactions: one row per transaction, one column per
    (feature, class) slot, grouped per the layout."""

    layout: GroupLayout
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[1] != self.layout.width:
            raise ValueError("data width does not match layout")

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    def validate(self):
        """Assert the per-feature one-hot invariant on every row."""
        for feature in range(self.layout.n_features):
            block = self.data[:, self.layout.group_slice(feature)]
            if not np.allclose(block.sum(axis=1), 1.0):
                raise ValueError(f"feature {feature} group does not sum to 1")
            if not np.all((block == 0.0) | (block == 1.0)):
                raise ValueError(f"feature {feature} group is not one-hot")


def _semantic_features(sensor: str, enrichment: Enrichment) -> list[tuple[str, object]]:
    """Qualified (feature name, raw value) pairs for one sensor.

    Duplicate "self.type" names from multi-labeled nodes become one
    value-qualified feature per label; for any other colliding name the first
    pair in sorted order wins.
    """
    items = semantic_items_for_sensor(
        enrichment.graph,
        enrichment.binding,
        sensor,
        neighbor_depth=enrichment.depth,
    )
    type_items = [(name, value) for name, value in items if name == "self.type"]
    rest = [(name, value) for name, value in items if name != "self.type"]
    resolved: dict[str, object] = {}
    if len(type_items) == 1:
        resolved["self.type"] = type_items[0][1]
    else:
        for _, label in type_items:
            resolved[f"self.type.{label}"] = label
    for name, value in rest:
        resolved.setdefault(name, value)
    return [(f"{sensor}.{name}", value) for name, value in sorted(resolved.items())]


def build_transactions(
    series: SensorSeries,
    enrichment: Enrichment | None = None,
    intervals: int = DEFAULT_INTERVALS,
) -> TransactionTable:
    """Build the transaction table from an aggregated series.

    One feature per sensor (numeric measurements discretized into
    equal-frequency bins); with enrichment, additional features per semantic
    item, numeric properties discretized by the same rule and categorical
    property values used verbatim.
    """
    if not series.readings:
        raise ValueError("empty series")
    sensors, sensor_of, ts = _key_columns(series)
    windows, window_of = np.unique(ts, return_inverse=True)
    n = len(windows)
    # (sensor, timestamp) keys are unique, so a sensor with n readings has all n windows
    short = np.flatnonzero(np.bincount(sensor_of, minlength=len(sensors)) != n)
    if short.size:
        raise ValueError(
            f"series is not aggregated: sensor {sensors[short[0]]!r} misses some windows"
        )
    order = np.lexsort((window_of, sensor_of))
    grid = np.array(list(series.readings.values()), dtype=object)[order].reshape(len(sensors), n)

    features: list[Feature] = []
    columns: list[list[int]] = []

    def add_numeric(name: str, values):
        disc = discretize_equal_frequency(values, intervals)
        features.append(Feature(name, "numeric", disc.labels, disc.edges))
        columns.append(disc.assignment)

    def add_categorical(name: str, values: list[str]):
        classes = sorted(set(values))
        index = {v: i for i, v in enumerate(classes)}
        features.append(Feature(name, "categorical", classes))
        columns.append([index[v] for v in values])

    for sensor, row in zip(sensors, grid):
        values = row.tolist()
        if isinstance(values[0], str):
            add_categorical(sensor, values)
        else:
            add_numeric(sensor, values)
        if enrichment is not None:
            for name, raw in _semantic_features(sensor, enrichment):
                if isinstance(raw, bool) or isinstance(raw, str):
                    add_categorical(name, [str(raw)] * n)
                else:
                    add_numeric(name, np.full(n, float(raw)))

    rows = np.array(columns, dtype=np.int64).T if columns else np.zeros((0, 0), np.int64)
    return TransactionTable(features, rows)


def one_hot_encode(table: TransactionTable) -> EncodedMatrix:
    """Encode the table row-major: 1.0 at each row's class slot, 0.0 elsewhere."""
    layout = table.layout()
    data = np.zeros((table.n_rows, layout.width), dtype=np.float64)
    for col in range(table.n_features):
        indices = table.rows[:, col]
        if indices.size and (indices.min() < 0 or indices.max() >= layout.class_counts[col]):
            raise ValueError(f"row class out of range for feature {table.features[col].name!r}")
        data[np.arange(table.n_rows), layout.offsets[col] + indices] = 1.0
    return EncodedMatrix(layout, data)


def decode_one_hot(matrix: EncodedMatrix) -> np.ndarray:
    """Invert one_hot_encode: per-feature argmax back to class indices."""
    rows = np.empty((matrix.n_rows, matrix.layout.n_features), dtype=np.int64)
    for feature in range(matrix.layout.n_features):
        block = matrix.data[:, matrix.layout.group_slice(feature)]
        rows[:, feature] = block.argmax(axis=1)
    return rows
