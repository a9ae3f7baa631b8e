"""The transaction table a run directory keeps (``<out>/transactions.npz``):
a command reads it only when it was built from the same CSV and graph bytes,
pipeline options and sensor selection, and what it reads is the table a
rebuild gives."""

import contextlib
import io
import json

import numpy as np
import pytest

from semarm import transact
from semarm.cli import _build_table, build_parser, main

from conftest import WATER_GRAPH


@pytest.fixture
def inputs(tmp_path):
    """Numeric s1 and s2 and categorical s3, two readings a minute over 40
    minutes, and the water graph that binds all three."""
    rng = np.random.default_rng(17)
    lines = ["timestamp,sensor_id,value"]
    for t in range(0, 40 * 60, 30):
        lines += [f"{t},s1,{rng.normal(5.0, 2.0):.3f}", f"{t},s2,{rng.integers(0, 50)}",
                  f'{t},s3,"{"xyz"[rng.integers(0, 3)]}"']
    csv_path, graph_path = tmp_path / "sensors.csv", tmp_path / "graph.json"
    csv_path.write_text("\n".join(lines) + "\n")
    graph_path.write_text(json.dumps(WATER_GRAPH))
    return csv_path, graph_path


@pytest.fixture
def loads(monkeypatch):
    """The number of sensor CSV loads so far, as a one-item list."""
    count = [0]
    load = transact.load_sensor_csv

    def counted(*args, **kwargs):
        count[0] += 1
        return load(*args, **kwargs)

    monkeypatch.setattr(transact, "load_sensor_csv", counted)
    return count


def run(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main([str(a) for a in argv])


def baseline_argv(csv_path, out, *flags):
    return ["baseline", "--min-support", "0.5", "--sensors", str(csv_path), "--out", str(out),
            *map(str, flags)]


def feature_keys(table):
    return [(f.name, f.kind, f.class_values, repr(f.bin_edges)) for f in table.features]


GRAPH = "<graph>"  # stands for the graph path in a flag list


@pytest.mark.parametrize("flags", [
    [],
    ["--graph", GRAPH],
    ["--graph", GRAPH, "--enrich", "--depth", 0],
    ["--graph", GRAPH, "--enrich", "--depth", 1],
    ["--intervals", 3],
    ["--window-seconds", 120],
    ["--graph", GRAPH, "--sample-sensors", 2, "--seed", 3],
], ids=["plain", "graph", "enriched-depth0", "enriched-depth1", "intervals", "window",
        "sample-sensors"])
def test_a_hit_equals_the_rebuild(inputs, tmp_path, loads, flags):
    csv_path, graph_path = inputs
    argv = baseline_argv(csv_path, tmp_path / "run",
                         *[graph_path if flag == GRAPH else flag for flag in flags])
    built, built_pipeline = _build_table(build_parser().parse_args(argv))
    assert loads[0] == 1 and (tmp_path / "run" / "transactions.npz").is_file()
    stored, stored_pipeline = _build_table(build_parser().parse_args(argv))
    assert loads[0] == 1
    assert feature_keys(stored) == feature_keys(built)
    assert stored.rows.dtype == built.rows.dtype and np.array_equal(stored.rows, built.rows)
    assert stored_pipeline == built_pipeline


def test_train_builds_and_mine_and_baseline_read(inputs, tmp_path, loads):
    csv_path, graph_path = inputs
    out = tmp_path / "run"
    ingest = ["--sensors", csv_path, "--graph", graph_path, "--enrich"]
    assert run("train", "--out", out, "--epochs", 1, *ingest) == 0
    assert run("mine", "--model", out / "model.json", "--out", out, *ingest) == 0
    assert run(*baseline_argv(csv_path, out, "--graph", graph_path, "--enrich")) == 0
    assert loads[0] == 1


def test_mine_of_a_sampled_train_reads_its_table(inputs, tmp_path, loads):
    csv_path, graph_path = inputs
    out = tmp_path / "run"
    ingest = ["--sensors", csv_path, "--graph", graph_path]
    assert run("train", "--out", out, "--epochs", 1, "--sample-sensors", 2, *ingest) == 0
    assert run("mine", "--model", out / "model.json", "--out", out, *ingest) == 0
    assert loads[0] == 1
    # without the selection, baseline needs the table of every sensor
    assert run(*baseline_argv(csv_path, out, "--graph", graph_path)) == 0
    assert loads[0] == 2


def edit_csv(csv_path, graph_path, out):
    data = bytearray(csv_path.read_bytes())
    data[data.index(b"\n", data.index(b",s1,")) - 1] ^= 1  # the last digit of an s1 reading
    csv_path.write_bytes(bytes(data))


def edit_graph(csv_path, graph_path, out):
    graph_path.write_text(json.dumps(WATER_GRAPH, indent=1))


def garble(csv_path, graph_path, out):
    (out / "transactions.npz").write_bytes(b"not an artifact\n")


def truncate(csv_path, graph_path, out):
    artifact = out / "transactions.npz"
    artifact.write_bytes(artifact.read_bytes()[: artifact.stat().st_size // 2])


@pytest.mark.parametrize("change, flags", [
    (edit_csv, []),
    (edit_graph, []),
    (None, ["--intervals", 4]),
    (None, ["--depth", 0]),
    (None, ["--no-enrich"]),
    (None, ["--sample-sensors", 2]),
    (garble, []),
    (truncate, []),
], ids=["csv-byte", "graph", "intervals", "depth", "enrich", "selection", "garbage",
        "truncated"])
def test_a_change_forces_a_rebuild(inputs, tmp_path, loads, change, flags):
    csv_path, graph_path = inputs
    out = tmp_path / "run"
    argv = baseline_argv(csv_path, out, "--graph", graph_path, "--enrich")
    assert run(*argv) == 0 and loads[0] == 1
    if change is not None:
        change(csv_path, graph_path, out)
    assert run(*argv, *flags) == 0
    assert loads[0] == 2
    assert run(*argv, *flags) == 0  # the rebuilt table was stored in its place
    assert loads[0] == 2


def test_mine_on_another_csv_is_a_data_error(inputs, tmp_path, capsys):
    csv_path, _ = inputs
    out = tmp_path / "run"
    assert run("train", "--out", out, "--epochs", 1, "--sensors", csv_path) == 0
    other = tmp_path / "other.csv"
    other.write_bytes(csv_path.read_bytes().replace(b'"z"', b'"w"'))
    capsys.readouterr()
    assert run("mine", "--model", out / "model.json", "--out", out, "--sensors", other) == 3
    assert "does not match" in capsys.readouterr().err
