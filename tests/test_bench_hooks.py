"""The benchmark's traced run (``perfbench/run.py --trace 1``) replaces layer
functions by attribute name and reads counts from their arguments and
results; renaming a function or changing the shape of what it returns breaks
it. These check every traced name still exists where the tracer looks it up,
and that every counter reads the values a real pipeline run returns."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from semarm.baseline import mine_frequent
from semarm.cli import _build_table, build_parser, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_every_traced_function_exists(tracing):
    targets = tracing._targets()
    assert targets
    for owner, attr, span_name, _ in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} (span {span_name}) is gone"


def test_counters_read_a_real_pipeline_run(tracing, tmp_path):
    data, out = tmp_path / "data", tmp_path / "run"
    rows, sensors = 120, 3
    assert main(["synth", "--out", str(data), "--rows", str(rows), "--features", str(sensors),
                 "--classes", "2", "--seed", "1"]) == 0
    ingest = ["--sensors", str(data / "sensors.csv"), "--graph", str(data / "graph.json"),
              "--enrich", "--depth", "1"]
    commands = {
        "train": ["train", "--out", str(out), "--epochs", "1"],
        "mine": ["mine", "--model", str(out / "model.json"), "--out", str(out)],
        "baseline": ["baseline", "--min-support", "0.05", "--out", str(out)],
    }
    tracer = tracing.Tracer("hooks")

    def pipeline():
        for name, argv in commands.items():
            span = tracer.open(f"cli.{name}")
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv + ingest) == 0
            tracer.close(span)

    spans = tracer.capture(pipeline)
    assert tracing.check_command_spans(spans) == []
    metrics = tracing.iteration_metrics(spans)
    assert metrics["cost.readings"] == rows * sensors
    assert metrics["cost.rows"] == rows
    # train builds the table; mine and baseline read it from the run directory
    assert metrics["transact.table_builds"] == 1
    commands_of = {span["id"]: span["name"] for span in spans if span["parent"] is None}
    assert [commands_of[span["command"]] for span in spans
            if span["name"] == "transact.load_sensor_csv"] == ["cli.train"]
    assert metrics["cost.features"] > sensors
    assert 0 < metrics["cost.single_class_features"] < metrics["cost.features"]
    assert metrics["cost.input_width"] > metrics["cost.features"]
    assert metrics["graph.nodes"] > 0 and metrics["graph.edges"] > 0
    assert metrics["autonet.steps"] > 0
    assert metrics["extract.probes"] > 0 and metrics["autonet.forward_rows"] > 0
    assert metrics["quality.rules_evaluated"] == metrics["extract.rules"] + metrics["baseline.rules"]
    assert metrics["baseline.itemsets_l1"] > 0
    rules = json.loads((out / "rules.json").read_text())
    baseline_rules = json.loads((out / "baseline_rules.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    single = {f["name"] for f in manifest["features"] if len(f["class_values"]) == 1}
    assert metrics["extract.rules"] == len(rules) > 0
    assert metrics["extract.constant_consequent_rules"] == sum(
        r["consequent"]["feature"] in single for r in rules
    )
    assert metrics["baseline.rules"] == len(baseline_rules) > 0
    table, _ = _build_table(build_parser().parse_args(commands["baseline"] + ingest))
    levels = mine_frequent(table, 0.05, max_size=3).levels
    assert [metrics[f"baseline.itemsets_l{k}"] for k in (1, 2, 3)] == [
        len(counts) for _, counts in levels
    ]
