"""Turn raw time-stamped sensor readings into discretized, optionally
semantically enriched, one-hot encodable transactions."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import accumulate, count
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
]

DEFAULT_INTERVALS = 10
HEADER = ["timestamp", "sensor_id", "value"]


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


def _parse_value(raw: str) -> str:
    """The state named by a stripped value that ``float`` refuses: its text, unquoted."""
    quoted = len(raw) >= 2 and raw.startswith('"') and raw.endswith('"')
    return raw[1:-1] if quoted else raw


def _timestamp_or_nan(text: str) -> float:
    """``_parse_timestamp(text)``, or NaN for text it refuses."""
    try:
        return _parse_timestamp(text)
    except ValueError:
        return math.nan


def _line_fault(fields: list[str], repeated: bool) -> str:
    """Why a 3-field line failing a check is refused; ``repeated``: an earlier line has its key."""
    ts_text, sensor, raw = (f.strip() for f in fields)
    if not sensor:
        return "empty sensor_id"
    if not raw:
        return "empty value"
    try:
        key = (sensor, _parse_timestamp(ts_text))
    except ValueError as exc:
        return str(exc)
    return f"duplicate reading for {key}" if repeated else f"non-finite value {raw!r}"


def load_sensor_csv(source, name: str | None = None) -> SensorSeries:
    """Parse sensor reading CSV with header ``timestamp,sensor_id,value``.

    Values wrapped in double quotes are categorical; unquoted values are parsed as
    decimals, falling back to categorical for non-numeric text. Fields are stripped of
    whitespace as ``str.strip`` does, Unicode included. Bytes are decoded as UTF-8 with
    universal newlines, as a text-mode open reads them; a str is read as its UTF-8 bytes,
    a lone surrogate as bytes that are not UTF-8. The first line that fails a check is
    named by number with the message of a ``csv`` loop over the lines, which refuses a
    NUL, a field over ``csv.field_size_limit()`` characters, other than three fields,
    empty fields, unparseable timestamps, duplicate (sensor, timestamp) keys, non-finite
    numbers and a sensor that mixes numbers with states. Every message starts with
    ``name``, when one is given.
    """
    try:
        if hasattr(source, "read"):
            source = source.read()
        if isinstance(source, str):
            source = source.encode("utf-8", "surrogatepass")
        if b"\r" in source:
            source = source.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            source.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = source.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"line {line}: byte {source[exc.start]:#04x} is not UTF-8 "
                             f"({exc.reason})") from None
        return _load_columns(source)
    except ValueError as exc:
        if name is None:
            raise
        raise ValueError(f"{name}: {exc}") from None


# _WORD_MASKS[r] keeps the first r bytes of a little-endian 8-byte word
_WORD_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so multiplying by it loses no bits


def _byte_factorized(words: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """The distinct stripped texts of the fields at bytes ``[starts[i], stops[i])``,
    and each field's index among them. ``words[j]`` is bytes j to j + 7 of the
    zero-padded, NUL-free CSV as a little-endian number: a field of w words is
    keyed by them, zeroed past its end, and grouped by one number mixed from
    them, or by its bytes where two different fields mix alike."""
    lengths = stops - starts
    n_words = np.maximum(-(-lengths // 8), 1)
    distinct: list[bytes] = []
    codes = np.empty(len(starts), np.int64)
    widths = np.flatnonzero(np.bincount(n_words)).tolist()
    for width in widths:
        at = np.flatnonzero(n_words == width) if len(widths) > 1 else slice(None)
        keys = words[starts[at, None] + np.arange(0, 8 * width, 8)]
        keys[:, -1] &= _WORD_MASKS[lengths[at] - 8 * (width - 1)]
        mixed = keys[:, 0]
        for column in keys.T[1:]:
            mixed = mixed * _MIX ^ column
        _, inverse = np.unique(mixed, return_inverse=True)
        pick = np.empty(inverse.max() + 1, np.intp)  # one field of each number
        pick[inverse] = np.arange(len(keys))
        fields = keys.view(f"S{8 * width}").ravel()
        if width > 1 and not (keys[pick[inverse]] == keys).all():
            _, pick, inverse = np.unique(fields, return_index=True, return_inverse=True)
        codes[at] = inverse + len(distinct)
        distinct += fields[pick].tolist()  # an S item drops its trailing NULs
    texts = b"\n".join(distinct).decode().split("\n") if distinct else []
    stripped = list(map(str.strip, texts))
    if stripped == texts:  # distinct bytes, so distinct texts
        return texts, codes
    first: dict[str, int] = {}  # the distinct stripped texts in first-seen order
    at = np.fromiter(map(first.setdefault, stripped, count()), np.int64, len(stripped))
    return list(first), np.unique(at, return_inverse=True)[1][codes]


def _structural_fault(data, buf, starts, stops, commas, header: bool):
    """(i, message) for the first line ``[starts[i], stops[i])`` that csv refuses, that is not
    three fields or, as line 0, not the header; (len(starts), None) if there is none."""
    limit = csv.field_size_limit()
    nuls = np.flatnonzero(buf == 0)
    nul = np.searchsorted(nuls, starts) < np.searchsorted(nuls, stops)
    fields = np.searchsorted(commas, stops) - np.searchsorted(commas, starts) + 1
    over = stops - starts > limit  # bytes; csv limits the characters of a field
    over[over] = [max(map(len, data[a:b].decode().split(","))) > limit
                  for a, b in zip(starts[over].tolist(), stops[over].tolist())]
    bad = over | nul | (fields != 3)
    bad[0] |= not header
    if not bad.any():
        return len(starts), None
    i = int(np.argmax(bad))
    line = data.count(b"\n", 0, starts[i]) + 1
    if over[i]:
        return i, f"line {line}: field larger than field limit ({limit})"
    if nul[i]:  # as csv before Python 3.11, keeping every field free of NULs
        return i, f"line {line}: line contains NUL"
    if i == 0:
        return i, "sensor CSV must start with header 'timestamp,sensor_id,value'"
    return i, f"line {line}: expected 3 fields, got {fields[i]}"


def _load_columns(data: bytes) -> SensorSeries:
    """The series of UTF-8 ``data`` with newlines translated, built and checked by column."""
    padded = data + bytes(8)
    buf = np.frombuffer(padded, np.uint8)[:len(data)]
    ends = np.flatnonzero(buf == ord("\n"))
    starts, stops = np.r_[0, ends + 1], np.r_[ends, len(data)]
    lines = (stops > starts) | (starts == 0)  # csv skips blank lines but line 1, the header
    starts, stops = starts[lines], stops[lines]
    commas = np.flatnonzero(buf == ord(","))
    header = [h.strip() for h in data[:stops[0]].decode().split(",")] == HEADER
    end, fault = len(starts), None
    # with as many commas as two per line, comma pair k inside line k puts two
    # in each line; a line's byte count is at least the character count csv limits
    if (not header or b"\0" in data or commas.size != 2 * len(starts)
            or (stops - starts).max() > csv.field_size_limit()
            or not ((commas[0::2] >= starts) & (commas[1::2] < stops)).all()):
        end, fault = _structural_fault(data, buf, starts, stops, commas, header)
    # the lines before the first structural fault are data lines of three fields
    first, second = commas[2:2 * end:2], commas[3:2 * end:2]
    starts, stops = starts[1:end], stops[1:end]
    words = np.ndarray(len(data) + 1, "<u8", padded, strides=(1,))
    stamps, stamp_of = _byte_factorized(words, starts, first)
    names, name_of = _byte_factorized(words, first + 1, second)
    raws, value_of = _byte_factorized(words, second + 1, stops)
    try:
        stamps = np.fromiter(map(float, stamps), np.float64, len(stamps))
    except ValueError:  # ISO-8601, or a timestamp that the check below refuses
        stamps = np.array([_timestamp_or_nan(t) for t in stamps], np.float64)
    numbers, states, rest = [], {}, iter(raws)
    while len(numbers) < len(raws):  # one map(float, ...), resumed past each value it refuses
        try:
            numbers.extend(map(float, rest))
        except ValueError:  # a state: its text, by index
            states[len(numbers)] = _parse_value(raws[len(numbers)])
            numbers.append(0.0)
    floats = np.array(numbers, np.float64)
    _, moment = np.unique(stamps, return_inverse=True)  # as dict keys, -0.0 == 0.0
    keys = moment[stamp_of] * len(names) + name_of
    unique = np.diff(np.sort(keys)).all()
    if (not unique or not np.isfinite(stamps).all() or "" in names or "" in raws
            or not np.isfinite(floats).all()):
        repeated = np.full(len(keys), not unique)
        if not unique:
            repeated[np.unique(keys, return_index=True)[1]] = False
        failed = (repeated | ~np.isfinite(stamps)[stamp_of]
                  | np.array([not n for n in names], bool)[name_of]
                  | (~np.isfinite(floats) | [not r for r in raws])[value_of])
        i = int(np.argmax(failed))
        line = data.count(b"\n", 0, starts[i]) + 1
        message = _line_fault(data[starts[i]:stops[i]].decode().split(","), repeated[i])
        raise ValueError(f"line {line}: {message}")
    if fault:
        raise ValueError(fault)
    sensors = sorted(names)
    rank = {s: i for i, s in enumerate(sensors)}
    sensor = np.fromiter(map(rank.__getitem__, names), np.int64, len(names))[name_of]
    vocab = sorted(set(states.values()))
    codes = np.full(len(raws), -1, np.int64)
    codes[list(states)] = list(map({v: i for i, v in enumerate(vocab)}.get, states.values()))
    codes = codes[value_of]
    numeric = codes < 0
    # each sensor's kind is that of its first reading; name the first reading against it
    _, head = np.unique(sensor, return_index=True)
    mixed = np.flatnonzero(numeric != numeric[head][sensor])
    if mixed.size:
        line = data.count(b"\n", 0, starts[mixed[0]]) + 1
        raise ValueError(f"line {line}: sensor {sensors[sensor[mixed[0]]]!r} mixes numeric "
                         "and categorical values")
    return SensorSeries(sensors, sensor, stamps[stamp_of], floats[value_of], codes, vocab)


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
    # a segment of one reading has that reading as its mode
    modal = np.repeat(keep & categorical & (lengths > 1), lengths)
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

    @classmethod
    def of(cls, features: list[Feature]) -> GroupLayout:
        """The layout of ``features``, one group per feature."""
        return cls(tuple(len(f.class_values) for f in features))

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
    """Discretized transactions: one class index per feature per row.

    ``rows`` is the table's own read-only int64 copy of the rows it is given,
    so the class indices checked here stay checked."""

    features: list[Feature]
    rows: np.ndarray  # shape (n_rows, n_features), integer class indices

    def __post_init__(self):
        self.rows = np.array(self.rows, dtype=np.int64)
        self.rows.flags.writeable = False
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
        return GroupLayout.of(self.features)

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
    """Encode the table row-major: 1.0 at each row's class slot, 0.0 elsewhere;
    the table's construction has checked every class index."""
    layout = table.layout()
    data = np.zeros((table.n_rows, layout.width), dtype=np.float64)
    for col in range(table.n_features):
        data[np.arange(table.n_rows), layout.offsets[col] + table.rows[:, col]] = 1.0
    return EncodedMatrix(layout, data)
