"""The one JSON checker: each kind against a spelled-out predicate, and every
document the CLI reads, the sensor CSV included, fuzzed through ``cli.main``."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semarm import jsondoc
from semarm.cli import main

# float(n) overflows from here on: halfway between the largest float and
# 2**1024, where rounding to even goes up
FLOAT_INT_LIMIT = 2**1024 - 2**970


def is_number(v) -> bool:
    if type(v) is int:
        return -FLOAT_INT_LIMIT < v < FLOAT_INT_LIMIT
    return type(v) is float and v == v and v not in (math.inf, -math.inf)


PREDICATES = [
    (jsondoc.OBJECT, lambda v: type(v) is dict),
    (jsondoc.ARRAY, lambda v: type(v) is list),
    (jsondoc.STRING, lambda v: type(v) is str),
    (jsondoc.BOOLEAN, lambda v: v is True or v is False),
    (jsondoc.INTEGER, lambda v: type(v) is int),
    (jsondoc.NUMBER, is_number),
    (jsondoc.STRINGS, lambda v: type(v) is list and all(type(x) is str for x in v)),
    (jsondoc.INTEGERS, lambda v: type(v) is list and all(type(x) is int for x in v)),
    (jsondoc.PROPERTY, lambda v: type(v) is str or v is True or v is False or is_number(v)),
]

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=FLOAT_INT_LIMIT - 4, max_value=FLOAT_INT_LIMIT + 4),
    st.integers(min_value=-FLOAT_INT_LIMIT - 4, max_value=-FLOAT_INT_LIMIT + 4),
    st.integers(min_value=2**1000, max_value=2**1100),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=10,
)


class Refused(Exception):
    pass


class TestChecked:
    @settings(max_examples=400, deadline=None)
    @given(value=JSON_VALUES, index=st.integers(0, len(PREDICATES) - 1))
    def test_matches_the_spelled_out_predicate(self, value, index):
        kind, accepts = PREDICATES[index]
        try:
            result = jsondoc.checked(value, kind, "part", Refused)
        except Refused as exc:
            assert not accepts(value)
            assert str(exc) == f"part must be {kind.noun}"
        else:
            assert accepts(value) and result is value

    @given(value=st.lists(st.text(max_size=3)) | st.lists(st.integers()) | st.lists(SCALARS))
    def test_arrays_of_strings_and_integers_check_every_element(self, value):
        assert jsondoc.STRINGS.accepts(value) == all(type(x) is str for x in value)
        assert jsondoc.INTEGERS.accepts(value) == all(type(x) is int for x in value)


class TestEntryAndLoad:
    def test_absent_entry_names_the_part_and_key(self):
        with pytest.raises(Refused, match=r"^doc: missing key 'k'$"):
            jsondoc.entry({}, "k", jsondoc.STRING, "doc", error=Refused)

    def test_entry_is_named_by_part_and_key_unless_named(self):
        with pytest.raises(ValueError, match=r"^doc 'k' must be a string$"):
            jsondoc.entry({"k": 1}, "k", jsondoc.STRING, "doc")
        with pytest.raises(ValueError, match=r"^doc k must be a string$"):
            jsondoc.entry({"k": 1}, "k", jsondoc.STRING, "doc", "doc k")
        assert jsondoc.entry({"k": "v"}, "k", jsondoc.STRING, "doc") == "v"

    @pytest.mark.parametrize("source", ['{"a": ', b'{"a": \xff}', io.StringIO("[1,")])
    def test_unparseable_document_is_named(self, source):
        with pytest.raises(Refused, match=r"^model m\.json: invalid JSON: "):
            jsondoc.load(source, "model m.json", Refused)

    def test_text_bytes_and_streams_parse(self):
        assert jsondoc.load('{"a": [1]}', "doc") == {"a": [1]}
        assert jsondoc.load(b"[1.5]", "doc") == [1.5]
        assert jsondoc.load(io.StringIO("null"), "doc") is None


# ---------------------------------------------------------------- loader fuzz

PLANTED = [{"antecedent": [[0, 0]], "consequent": [1, 1], "confidence": 1.0}]
CONFIG = {"rows": 30, "features": 3, "classes": 2, "seed": 1, "noise-rate": 0.1,
          "exclusive-consequents": True, "planted": PLANTED}
# one value of each JSON type; a replacement takes one of another Python type
REPLACEMENTS = [None, True, 0, 1.5, math.nan, "x", [], [1], {}, {"a": 1}]


def _cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One enriched synth -> train -> mine run whose documents the fuzz edits."""
    root = tmp_path_factory.mktemp("fuzz")
    data, out = root / "data", root / "run"
    csv, graph = data / "sensors.csv", data / "graph.json"
    runs = [
        ["synth", "--config", _write(root / "config.json", CONFIG), "--out", data],
        ["train", "--sensors", csv, "--graph", graph, "--enrich", "--epochs", 1, "--out", out],
        ["mine", "--sensors", csv, "--graph", graph, "--model", out / "model.json", "--out", out],
    ]
    for argv in runs:
        assert _cli(argv) == (0, "")
    return {"root": root, "csv": csv, "graph": graph, "out": out}


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


# each document: where the run keeps it, and the command that reads it from ``path``
READERS = {
    "graph": lambda p, path, out: ["train", "--sensors", p["csv"], "--graph", path, "--enrich",
                                   "--epochs", 1, "--out", out],
    "model": lambda p, path, out: ["mine", "--sensors", p["csv"], "--graph", p["graph"],
                                   "--model", path, "--manifest", p["out"] / "manifest.json",
                                   "--out", out],
    "manifest": lambda p, path, out: ["mine", "--sensors", p["csv"], "--graph", p["graph"],
                                      "--model", p["out"] / "model.json", "--manifest", path,
                                      "--out", out],
    "rules": lambda p, path, out: ["baseline", "--sensors", p["csv"], "--graph", p["graph"],
                                   "--enrich", "--rules", path, "--out", out],
    "report": lambda p, path, out: ["compare", "--left", path, "--right",
                                    p["out"] / "report.json", "--out", out],
    "config": lambda p, path, out: ["synth", "--config", path, "--out", out],
    "planted": lambda p, path, out: ["synth", "--rows", 30, "--features", 3, "--classes", 2,
                                     "--planted", path.read_text(), "--out", out],
}
SOURCES = {
    "graph": lambda p: json.loads(p["graph"].read_text()),
    "model": lambda p: json.loads((p["out"] / "model.json").read_text()),
    "manifest": lambda p: json.loads((p["out"] / "manifest.json").read_text()),
    "rules": lambda p: json.loads((p["out"] / "rules.json").read_text()),
    "report": lambda p: json.loads((p["out"] / "report.json").read_text()),
    "config": lambda p: CONFIG,
    "planted": lambda p: PLANTED,
}


def _paths(doc, prefix=()):
    """The path of ``doc`` and of every value inside it."""
    yield prefix
    items = doc.items() if type(doc) is dict else enumerate(doc) if type(doc) is list else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def _mutated(doc, data) -> str:
    """``doc`` as JSON text with one value replaced by one of another type,
    one entry deleted, or the text truncated."""
    text = json.dumps(doc)
    how = data.draw(st.sampled_from(["replace", "delete", "truncate"]))
    if how == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    paths = list(_paths(doc))[how == "delete":]  # the document itself cannot be deleted
    *parents, last = data.draw(st.sampled_from(paths)) or (None,)
    owner = doc
    for key in parents:
        owner = owner[key]
    if how == "delete":
        del owner[last]
        return json.dumps(doc)
    old = doc if last is None else owner[last]
    new = data.draw(st.sampled_from([v for v in REPLACEMENTS if type(v) is not type(old)]))
    if last is None:
        return json.dumps(new)
    owner[last] = new
    return json.dumps(doc)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_malformed_document_exits_0_or_3_with_one_error_line(pipeline, name, data):
    text = _mutated(SOURCES[name](pipeline), data)
    with tempfile.TemporaryDirectory(dir=pipeline["root"]) as scratch:
        path = Path(scratch) / f"{name}.json"
        path.write_text(text)
        code, err = _cli(READERS[name](pipeline, path, Path(scratch) / "out"))
    _assert_one_data_error_or_none(code, err)


def _assert_one_data_error_or_none(code: int, err: str):
    assert code in (0, 3), err
    if code == 3:
        assert err.startswith("error: data: ") and err.count("\n") == 1, err
    else:
        assert err == ""


def _mutated_csv(text: str, data) -> bytes:
    """The sensor CSV truncated, with a byte that is not UTF-8 inserted, or
    with one line duplicated, given an extra field, or a field blanked or set
    to nan."""
    raw = text.encode()
    how = data.draw(st.sampled_from(["truncate", "non-utf8", "duplicate", "extra", "blank",
                                     "nan"]))
    if how == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if how == "non-utf8":
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + b"\xff" + raw[at:]
    lines = text.split("\n")
    at = data.draw(st.integers(0, len(lines) - 2))  # the text ends with a newline
    if how == "duplicate":
        lines.insert(at, lines[at])
    elif how == "extra":
        lines[at] += ",x"
    else:
        fields = lines[at].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = "" if how == "blank" else "nan"
        lines[at] = ",".join(fields)
    return "\n".join(lines).encode()


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_malformed_sensor_csv_exits_0_or_3_with_one_error_line(pipeline, data):
    raw = _mutated_csv(pipeline["csv"].read_text(), data)
    with tempfile.TemporaryDirectory(dir=pipeline["root"]) as scratch:
        path = Path(scratch) / "sensors.csv"
        path.write_bytes(raw)
        code, err = _cli(["train", "--sensors", path, "--graph", pipeline["graph"], "--enrich",
                          "--epochs", 1, "--out", Path(scratch) / "out"])
    _assert_one_data_error_or_none(code, err)
