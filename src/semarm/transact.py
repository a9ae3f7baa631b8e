"""Turn raw time-stamped sensor readings into discretized, optionally
semantically enriched, one-hot encodable transactions."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import accumulate
from types import MappingProxyType

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


@dataclass(frozen=True, eq=False)
class SensorSeries:
    """Raw or aggregated readings as columns: reading i is sensor
    ``sensors[sensor[i]]`` at ``timestamps[i]``, valued ``numbers[i]``, or
    ``vocab[codes[i]]`` for a categorical (state) sensor; ``codes`` is -1 for
    numeric readings, and ``sensors`` and ``vocab`` are sorted."""

    sensors: list[str]
    sensor: np.ndarray  # int64
    timestamps: np.ndarray  # float64
    numbers: np.ndarray  # float64
    codes: np.ndarray  # int64
    vocab: list[str]

    @classmethod
    def from_readings(cls, readings: dict[tuple[str, float], float | str]) -> SensorSeries:
        """Columns of a (sensor_id, timestamp) -> value mapping, in its order; a
        sensor's values are all floats (measurements) or all strings (states)."""
        names = [sensor for sensor, _ in readings]
        sensors = sorted(set(names))
        index = {s: i for i, s in enumerate(sensors)}
        sensor = np.array([index[s] for s in names], dtype=np.int64)
        raw = list(readings.values())
        vocab = sorted(v for v in set(raw) if isinstance(v, str))
        code = {v: i for i, v in enumerate(vocab)}
        codes = np.array([code.get(v, -1) for v in raw], dtype=np.int64)
        numeric = codes < 0
        # each sensor's kind is that of its first reading; name the first reading against it
        _, first = np.unique(sensor, return_index=True)
        mixed = np.flatnonzero(numeric != numeric[first][sensor])
        if mixed.size:
            raise ValueError(f"sensor {names[mixed[0]]!r} mixes numeric and categorical values")
        numbers = np.where(numeric, np.array(raw, dtype=object), 0.0).astype(np.float64)
        timestamps = np.array([ts for _, ts in readings], dtype=np.float64)
        return cls(sensors, sensor, timestamps, numbers, codes, vocab)

    @property
    def readings(self) -> MappingProxyType:
        """Read-only (sensor_id, timestamp) -> value mapping, in column order."""
        names = [self.sensors[i] for i in self.sensor.tolist()]
        values = [self.vocab[c] if c >= 0 else x
                  for c, x in zip(self.codes.tolist(), self.numbers.tolist())]
        return MappingProxyType(dict(zip(zip(names, self.timestamps.tolist()), values)))

    def select(self, names) -> SensorSeries:
        """The readings of the named sensors, in the same order."""
        keep = np.isin(self.sensor, [i for i, s in enumerate(self.sensors) if s in names])
        kept, sensor = np.unique(self.sensor[keep], return_inverse=True)
        return SensorSeries([self.sensors[i] for i in kept.tolist()], sensor, self.timestamps[keep],
                            self.numbers[keep], self.codes[keep], self.vocab)


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
    try:
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
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    return SensorSeries.from_readings(readings)


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
    if not series.timestamps.size:
        raise ValueError("cannot aggregate an empty series")
    if not (window > 0 and math.isfinite(window)):
        raise ValueError("window must be positive and finite")
    with np.errstate(over="ignore"):
        scaled = series.timestamps / window
    if not np.isfinite(scaled).all():
        raise ValueError(f"window of {window!r} seconds overflows the timestamps")
    # + 0.0 maps -0.0 to 0.0, as math.floor(ts / window) * window does
    start = np.floor(scaled) * window + 0.0
    order = np.lexsort((series.timestamps, start, series.sensor))
    sensor, start = series.sensor[order], start[order]
    codes, numbers = series.codes[order], series.numbers[order]

    first = np.flatnonzero(np.r_[True, (sensor[1:] != sensor[:-1]) | (start[1:] != start[:-1])])
    lengths = np.diff(np.r_[first, len(order)])
    # each (sensor, window) is one segment: a window every sensor reports
    # is the start of len(sensors) segments
    _, window_of, per_window = np.unique(start[first], return_inverse=True, return_counts=True)
    keep = per_window[window_of] == len(series.sensors)
    if not keep.any():
        raise ValueError(f"no {window:g}-second window in which every sensor reports")

    modes = codes[first]
    categorical = modes >= 0
    means = np.zeros(len(first))
    numeric = np.flatnonzero(keep & ~categorical)
    means[numeric] = _segment_means(numbers, first[numeric], lengths[numeric])
    modal = np.repeat(keep & categorical, lengths)
    if modal.any():
        segment = np.repeat(np.arange(len(first)), lengths)
        seg, code = _segment_modes(codes[modal], segment[modal], len(series.vocab))
        modes[seg] = code
    sensor, start = sensor[first[keep]], start[first[keep]]
    return SensorSeries(series.sensors, sensor, start, means[keep], modes[keep], series.vocab)


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

    def slot(self, feature: int, class_index: int) -> int:
        if not 0 <= feature < len(self.class_counts):
            raise IndexError(f"feature {feature} out of range")
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
    if not series.timestamps.size:
        raise ValueError("empty series")
    windows, window_of = np.unique(series.timestamps, return_inverse=True)
    n = len(windows)
    # (sensor, timestamp) keys are unique, so a sensor with n readings has all n windows
    short = np.flatnonzero(np.bincount(series.sensor, minlength=len(series.sensors)) != n)
    if short.size:
        raise ValueError(
            f"series is not aggregated: sensor {series.sensors[short[0]]!r} misses some windows"
        )
    # reading indexes, one row per sensor in window order
    grid = np.lexsort((window_of, series.sensor)).reshape(len(series.sensors), n)

    features: list[Feature] = []
    columns: list = []

    def add_numeric(name: str, values):
        disc = discretize_equal_frequency(values, intervals)
        features.append(Feature(name, "numeric", disc.labels, disc.edges))
        columns.append(disc.assignment)

    def add_categorical(name: str, classes: list[str], column):
        features.append(Feature(name, "categorical", classes))
        columns.append(column)

    for sensor, cells in zip(series.sensors, grid):
        if series.codes[cells[0]] < 0:
            add_numeric(sensor, series.numbers[cells])
        else:
            # vocab is sorted, so sorted codes give sorted class values
            classes, column = np.unique(series.codes[cells], return_inverse=True)
            add_categorical(sensor, [series.vocab[c] for c in classes.tolist()], column)
        if enrichment is not None:
            for name, raw in _semantic_features(sensor, enrichment):
                if isinstance(raw, bool) or isinstance(raw, str):
                    add_categorical(name, [str(raw)], np.zeros(n, dtype=np.int64))
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
