import copy
import json
import math
import re
import shlex
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from semarm import autonet, baseline, quality
from semarm.cli import main
from semarm.extract import rule_to_doc, rules_from_json
from semarm.graph import load_graph
from semarm.transact import (
    Enrichment,
    Feature,
    GroupLayout,
    aggregate,
    build_transactions,
    load_sensor_csv,
)

from conftest import WATER_GRAPH
from oracles import brute_force_implications

PLANTED = json.dumps(
    [
        {"antecedent": [[0, 0]], "consequent": [1, 1], "confidence": 1.0},
        {"antecedent": [[0, 1]], "consequent": [1, 2], "confidence": 1.0},
    ]
)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def dataset(tmp_path):
    data = tmp_path / "data"
    code = run(
        "synth", "--out", data, "--rows", 3000, "--features", 5, "--classes", 3,
        "--seed", 5, "--planted", PLANTED,
    )
    assert code == 0
    return data


@pytest.fixture
def trained(dataset, tmp_path):
    out = tmp_path / "run"
    code = run(
        "train", "--sensors", dataset / "sensors.csv", "--graph", dataset / "graph.json",
        "--out", out, "--seed", 9,
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_both_files(self, dataset):
        assert (dataset / "sensors.csv").exists()
        assert (dataset / "graph.json").exists()

    def test_byte_identical_for_same_seed(self, tmp_path):
        for sub in ("a", "b"):
            assert run("synth", "--out", tmp_path / sub, "--rows", 100,
                       "--features", 4, "--classes", 3, "--seed", 3) == 0
        assert (tmp_path / "a/sensors.csv").read_bytes() == (tmp_path / "b/sensors.csv").read_bytes()
        assert (tmp_path / "a/graph.json").read_bytes() == (tmp_path / "b/graph.json").read_bytes()

    def test_unsatisfiable_spec_is_data_error(self, tmp_path, capsys):
        bad = json.dumps(
            [
                {"antecedent": [[0, 0]], "consequent": [2, 1], "confidence": 1.0},
                {"antecedent": [[1, 0]], "consequent": [2, 2], "confidence": 1.0},
            ]
        )
        code = run("synth", "--out", tmp_path, "--rows", 50, "--features", 4,
                   "--classes", 3, "--planted", bad)
        assert code == 3
        assert capsys.readouterr().err.startswith("error: data:")


class TestTrain:
    def test_model_round_trips(self, trained):
        net = autonet.load_model(trained / "model.json")
        assert net.final_loss is not None
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["pipeline"]["enrich"] is False
        assert len(manifest["features"]) == 5
        assert {"ingest_seconds", "train_seconds"} <= set(manifest["timings"])

    def test_manifest_records_each_epochs_loss(self, small_csv, tmp_path):
        losses = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run("train", "--sensors", small_csv, "--out", out, "--epochs", 3,
                       "--seed", 2) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            model = json.loads((out / "model.json").read_text())
            assert len(manifest["epoch_losses"]) == 3
            assert manifest["epoch_losses"][-1] == manifest["final_loss"] == model["final_loss"]
            assert "epoch_losses" not in model
            losses.append(manifest["epoch_losses"])
        assert losses[0] == losses[1]

    def test_enrichment_manifest_differs_only_in_features(self, dataset, tmp_path):
        plain_dir, rich_dir = tmp_path / "plain", tmp_path / "rich"
        for out, extra in ((plain_dir, []), (rich_dir, ["--enrich", "--depth", "1"])):
            assert run("train", "--sensors", dataset / "sensors.csv",
                       "--graph", dataset / "graph.json", "--out", out,
                       "--seed", 9, *extra) == 0
        plain = json.loads((plain_dir / "manifest.json").read_text())
        rich = json.loads((rich_dir / "manifest.json").read_text())
        plain_names = {f["name"] for f in plain["features"]}
        rich_names = {f["name"] for f in rich["features"]}
        assert plain_names < rich_names
        assert plain["pipeline"]["intervals"] == rich["pipeline"]["intervals"]
        assert plain["training"] == rich["training"]

    def test_missing_csv_is_data_error(self, tmp_path, capsys):
        code = run("train", "--sensors", tmp_path / "ghost.csv", "--out", tmp_path)
        assert code == 3
        assert capsys.readouterr().err.startswith("error: data:")

    def test_sample_sensors_keeps_a_subset(self, dataset, tmp_path):
        out = tmp_path / "sampled"
        assert run("train", "--sensors", dataset / "sensors.csv",
                   "--graph", dataset / "graph.json", "--out", out,
                   "--sample-sensors", 2, "--seed", 4) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["pipeline"]["sensors"]) == 2
        # the mine rebuild honors the sampled sensor subset
        assert run("mine", "--sensors", dataset / "sensors.csv",
                   "--graph", dataset / "graph.json",
                   "--model", out / "model.json", "--out", out) == 0


@pytest.mark.parametrize("command", ["train", "baseline"])
@pytest.mark.parametrize("count", [0, -1])
def test_sample_sensors_below_one_is_named_data_error(small_csv, tmp_path, capsys, command,
                                                      count):
    extra = ["--min-support", 0.5] if command == "baseline" else ["--epochs", 1]
    assert run(command, "--sensors", small_csv, "--out", tmp_path, "--sample-sensors", count,
               *extra) == 3
    assert "--sample-sensors must be at least 1" in single_data_error(capsys)


@pytest.mark.parametrize("command", ["train", "baseline"])
@pytest.mark.parametrize("option, value, message", [
    ("intervals", 0, "--intervals must be at least 1"),
    ("intervals", -3, "--intervals must be at least 1"),
    ("depth", -1, "--depth must be at least 0"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_intervals_and_depth_out_of_range_are_named_data_errors(small_csv, tmp_path, capsys,
                                                                command, option, value, message,
                                                                source):
    """Refused by name even where no numeric sensor is binned and nothing is enriched."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({option: value}))
    given = [f"--{option}", value] if source == "flag" else ["--config", config]
    extra = ["--min-support", 0.5] if command == "baseline" else ["--epochs", 1]
    assert run(command, "--sensors", small_csv, "--out", tmp_path / "run", *given, *extra) == 3
    assert message in single_data_error(capsys)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_baseline_max_antecedents_below_one_is_named_data_error(small_csv, tmp_path, capsys,
                                                                value, source):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max-antecedents": value}))
    given = ["--max-antecedents", value] if source == "flag" else ["--config", config]
    assert run("baseline", "--sensors", small_csv, "--out", tmp_path / "run",
               "--min-support", 0.5, *given) == 3
    assert "--max-antecedents must be at least 1" in single_data_error(capsys)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("option, value, message", [
    ("max-antecedents", 0, "--max-antecedents must be at least 1"),
    ("max-antecedents", -1, "--max-antecedents must be at least 1"),
    ("similarity-threshold", 0, "--similarity-threshold must be in (0, 1]"),
    ("similarity-threshold", 1.5, "--similarity-threshold must be in (0, 1]"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_mine_extraction_flags_out_of_range_are_named_data_errors(small_csv, tmp_path, capsys,
                                                                  option, value, message,
                                                                  source):
    """Refused before the model is read or the table is built."""
    model = tmp_path / "model"
    assert run("train", "--sensors", small_csv, "--out", model, "--epochs", 1) == 0
    capsys.readouterr()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({option: value}))
    given = [f"--{option}", value] if source == "flag" else ["--config", config]
    assert run("mine", "--sensors", small_csv, "--model", model / "model.json",
               "--out", tmp_path / "run", *given) == 3
    assert message in single_data_error(capsys)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("option, value, message", [
    ("min-confidence", 2, "--min-confidence must be in [0, 1]"),
    ("min-confidence", -0.5, "--min-confidence must be in [0, 1]"),
    ("min-support", 0, "--min-support must be in (0, 1]"),
    ("min-support", 1.5, "--min-support must be in (0, 1]"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_baseline_thresholds_out_of_range_are_named_data_errors(small_csv, tmp_path, capsys,
                                                                option, value, message, source):
    """Refused before the table is built, so no table file is left behind."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({option: value}))
    given = [f"--{option}", value] if source == "flag" else ["--config", config]
    support = [] if option == "min-support" else ["--min-support", 0.5]
    assert run("baseline", "--sensors", small_csv, "--out", tmp_path / "run",
               *support, *given) == 3
    assert message in single_data_error(capsys)
    assert not (tmp_path / "run" / "transactions.npz").exists()
    assert not (tmp_path / "run").exists()


def test_baseline_counts_no_rule_on_the_table(dataset, tmp_path, monkeypatch):
    """The baseline's report keeps the metrics its rules read from the
    itemset counts; no rule is counted on the table a second time."""
    counted, count_pass = [], quality._count_pass
    monkeypatch.setattr(quality, "_count_pass",
                        lambda rules, table: counted.append(len(rules)) or count_pass(rules, table))
    assert run("baseline", "--sensors", dataset / "sensors.csv", "--out", tmp_path,
               "--min-support", 0.05) == 0
    assert counted == []
    assert json.loads((tmp_path / "baseline_report.json").read_text())["rule_count"] > 0


@pytest.mark.parametrize("argv", [
    ["synth", "--seed", -1],
    ["train", "--epochs", 1, "--seed", -1],
    ["baseline", "--min-support", 0.5, "--sample-sensors", 2, "--seed", -5],
    ["baseline", "--min-support", 0.5, "--seed", -1],
    ["train", "--epochs", 1, "--config", "config.json"],
], ids=["synth", "train", "baseline-sample", "baseline", "config"])
def test_negative_seed_is_named_data_error(small_csv, tmp_path, capsys, argv):
    (tmp_path / "config.json").write_text(json.dumps({"seed": -1}))
    command, *rest = [tmp_path / a if a == "config.json" else a for a in argv]
    inputs = [] if command == "synth" else ["--sensors", small_csv]
    assert run(command, *inputs, "--out", tmp_path / "run", *rest) == 3
    assert "--seed must be at least 0" in single_data_error(capsys)
    assert not (tmp_path / "run").exists()


class TestMalformedCsv:
    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("120,s1,nan", "line 4: non-finite value 'nan'"),
            ("120,s1,-inf", "line 4: non-finite value '-inf'"),
            ("nan,s1,3.5", "line 4: non-finite timestamp 'nan'"),
            ("120,,3.5", "line 4: empty sensor_id"),
            ("120,s1,", "line 4: empty value"),
            (",s1,3.5", "line 4: Invalid isoformat string"),
            ("120,s1,3.5,x", "line 4: expected 3 fields, got 4"),
            ("-0.0,s1,3.5", "line 4: duplicate reading for ('s1', -0.0)"),
            pytest.param("120,s1,\"a\"", "line 4: sensor 's1' mixes numeric and categorical values",
                         id="120,s1,\"a\"-sensor 's1' mixes numeric and categorical values"),
            pytest.param("120,s1," + "7" * 131073, "line 4: field larger than field limit",
                         id="field-over-csv-limit"),
        ],
    )
    def test_bad_field_is_line_numbered_data_error(self, tmp_path, capsys, bad_line, message):
        csv_path = tmp_path / "sensors.csv"
        csv_path.write_text(
            "timestamp,sensor_id,value\n0,s1,1.5\n60,s1,2.5\n" + bad_line + "\n180,s1,0.5\n"
        )
        code = run("train", "--sensors", csv_path, "--out", tmp_path / "run", "--epochs", 1)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: data: sensors {csv_path}: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_non_utf8_byte_is_line_numbered_data_error(self, tmp_path, capsys, newline):
        csv_path = tmp_path / "sensors.csv"
        lines = [b"timestamp,sensor_id,value", b"0,s1,1", b"60,s1,\xff", b"120,s1,2", b""]
        csv_path.write_bytes(newline.join(lines))
        code = run("train", "--sensors", csv_path, "--out", tmp_path / "run", "--epochs", 1)
        assert code == 3
        assert f"sensors {csv_path}: line 3: byte 0xff is not UTF-8" in single_data_error(capsys)

    def test_crlf_and_cr_files_train_as_lf_does(self, small_csv, tmp_path):
        models = []
        for newline in (b"\n", b"\r\n", b"\r"):
            csv_path = tmp_path / "sensors.csv"
            csv_path.write_bytes(small_csv.read_bytes().replace(b"\n", newline))
            out = tmp_path / f"run{len(models)}"
            assert run("train", "--sensors", csv_path, "--out", out, "--epochs", 1) == 0
            models.append((out / "model.json").read_bytes())
        assert models[1] == models[0] and models[2] == models[0]

    def test_sensors_without_a_common_window_name_the_cause(self, tmp_path, capsys):
        csv_path = tmp_path / "sensors.csv"
        csv_path.write_text("timestamp,sensor_id,value\n0,a,1.0\n120,b,2.0\n")
        code = run("train", "--sensors", csv_path, "--out", tmp_path / "run", "--epochs", 1)
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("error: data:") == 1 and err.count("\n") == 1
        assert "window" in err


@pytest.fixture
def small_csv(tmp_path):
    """Two categorical sensors over six windows: a (2, 3)-slot table that trains."""
    lines = ["timestamp,sensor_id,value"]
    for w, s2 in enumerate("cdecce"):
        lines += [f'{w * 60},s1,"{"ab"[w % 2]}"', f'{w * 60},s2,"{s2}"']
    path = tmp_path / "sensors.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def single_data_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: data: ") and err.count("\n") == 1, err
    return err


class TestNonFiniteOptions:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--learning-rate", "--weight-decay", "--noise-factor"])
    def test_training_option_is_data_error(self, small_csv, tmp_path, capsys, flag, value):
        code = run("train", "--sensors", small_csv, "--out", tmp_path / "run",
                   "--epochs", 1, flag, value)
        assert code == 3
        assert flag[2:].replace("-", "_") in single_data_error(capsys)

    @pytest.mark.parametrize("value, message", [
        ("nan", "window must be positive and finite"),
        ("inf", "window must be positive and finite"),
        ("5e-324", "window of 5e-324 seconds overflows the timestamps"),
    ], ids=["nan", "inf", "5e-324"])
    def test_window_is_data_error(self, small_csv, tmp_path, capsys, value, message):
        code = run("train", "--sensors", small_csv, "--out", tmp_path / "run",
                   "--window-seconds", value)
        assert code == 3
        assert capsys.readouterr().err == f"error: data: {message}\n"


def _drop_relation_name(doc):
    del doc["ontology"]["relations"][0]["name"]


def _unbind_s2(doc):
    del doc["bindings"]["s2"]


class TestMalformedGraph:
    @pytest.mark.parametrize("mutate, part", [
        (lambda doc: doc["ontology"]["relations"].append("touches"), "ontology relation 1"),
        (lambda doc: doc["nodes"].append(5), "node 3"),
        (lambda doc: doc.update(bindings=[["s1", "p1"]]), "bindings"),
        (lambda doc: doc["nodes"][0].update(props=[["length", 850]]), "node 'p1' props"),
        (_drop_relation_name, "ontology relation 0: missing key 'name'"),
        (_unbind_s2, "sensor 's2' has no binding"),
        (lambda doc: doc["nodes"][0]["props"].update(length=10**400), "node 'p1' props 'length'"),
        (lambda doc: doc["edges"][1]["props"].update(order=math.nan), "edge 'e2' props 'order'"),
    ], ids=["relation-string", "node-number", "bindings-list", "props-list",
            "relation-without-name", "unbound-sensor", "number-too-large-for-float",
            "non-finite-number"])
    def test_is_named_data_error(self, small_csv, tmp_path, capsys, mutate, part):
        doc = copy.deepcopy(WATER_GRAPH)
        mutate(doc)
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(json.dumps(doc))
        code = run("train", "--sensors", small_csv, "--graph", graph_path, "--enrich",
                   "--out", tmp_path / "run", "--epochs", 1)
        assert code == 3
        assert part in single_data_error(capsys)


def _json_text(doc) -> str:
    """``doc`` as JSON, or as it is when a mutation returned raw (say truncated) text."""
    return doc if isinstance(doc, str) else json.dumps(doc)


class TestUnparseableGraph:
    def test_names_the_file(self, small_csv, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(json.dumps(WATER_GRAPH)[:20])
        assert run("train", "--sensors", small_csv, "--graph", graph_path, "--enrich",
                   "--out", tmp_path / "run", "--epochs", 1) == 3
        assert f"graph {graph_path}: invalid JSON" in single_data_error(capsys)


def _coupled_baseline(rules):
    def argv(csv, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(_json_text(rules))
        return ["baseline", "--sensors", csv, "--out", tmp_path, "--rules", path]
    return argv


def _synth(planted):
    return lambda csv, tmp_path: ["synth", "--out", tmp_path, "--rows", 20, "--planted", planted]


def _mine_after_editing(name, mutate):
    def argv(csv, tmp_path):
        out = tmp_path / "run"
        assert run("train", "--sensors", csv, "--out", out, "--epochs", 1) == 0
        doc = json.loads((out / name).read_text())
        (out / name).write_text(_json_text(mutate(doc)))
        return ["mine", "--sensors", csv, "--model", out / "model.json", "--out", out]
    return argv


S1_A = {"feature": "s1", "class": "a"}


def _set_first_parameter(key, value):
    def mutate(doc):
        array = doc[key][0]
        while isinstance(array[0], list):
            array = array[0]
        array[0] = value
        return doc
    return mutate


def _without(key, within=None):
    def mutate(doc):
        owner = doc[within] if within else doc
        del owner[key]
        return doc
    return mutate


class TestMalformedJsonInput:
    @pytest.mark.parametrize("argv, part", [
        (_coupled_baseline([1]), "rule 0 must be an object"),
        (_coupled_baseline([{"antecedent": "s1", "consequent": S1_A}]),
         "rule 0 'antecedent' must be an array of objects"),
        (_coupled_baseline([{"antecedent": [S1_A], "consequent": "s2"}]),
         "rule 0 'consequent' must be an object"),
        (_coupled_baseline([{"antecedent": [{"feature": ["s1"], "class": "a"}],
                             "consequent": S1_A}]), "unknown feature or class"),
        (_synth("[1]"), "planted rule 0 must be an object"),
        (_synth("5"), "planted rules must be an array"),
        (_synth('[{"antecedent": 5, "consequent": [1, 1]}]'), "planted rule 0"),
        (_mine_after_editing("manifest.json", lambda doc: {**doc, "pipeline": 3}), "pipeline"),
        (_mine_after_editing("manifest.json", lambda doc: [doc]), "manifest"),
        (_mine_after_editing("model.json", lambda doc: {**doc, "config": [1]}),
         "model 'config' must be an object"),
        (_mine_after_editing("model.json", lambda doc: {**doc, "config": {"epoch": 1}}),
         "model config"),
        (_mine_after_editing("model.json", lambda doc: [doc]), "model must be an object"),
        (_mine_after_editing("model.json", lambda doc: {**doc, "input_dim": [1]}),
         "model 'input_dim' must be an integer"),
        (_mine_after_editing("model.json", lambda doc: {**doc, "encoder_dims": 5}),
         "model 'encoder_dims' must be an array of integers"),
        (_mine_after_editing("model.json", lambda doc: {**doc, "class_counts": 3}),
         "model 'class_counts' must be an array of integers"),
        (_mine_after_editing("model.json", lambda doc: {**doc, "class_counts": [["a"]]}),
         "model 'class_counts' must be an array of integers"),
        (_mine_after_editing("model.json", lambda doc: {**doc, "rng_seed": [0]}),
         "model 'rng_seed' must be an integer"),
        (_mine_after_editing("model.json", lambda doc: {**doc, "weights": 5}),
         "model 'weights' must be an array"),
        (_mine_after_editing("model.json",
                             lambda doc: {**doc, "config": {**doc["config"], "epochs": [1]}}),
         "model config 'epochs' must be an integer"),
        (_mine_after_editing("model.json", _set_first_parameter("biases", True)),
         "model 'biases' 0 must be an array of numbers"),
        (_mine_after_editing("model.json", _set_first_parameter("weights", "0.1")),
         "model 'weights' 0 must be an array of equal-length arrays of numbers"),
        (_synth('[{"antecedent": [["0","1"]], "consequent": ["1","0"], "confidence": "1"}]'),
         "planted rule 0 'antecedent' must be an array of pairs of integers"),
        (_synth('[{"antecedent": [[0, 1]], "consequent": ["1", "0"]}]'),
         "planted rule 0 'consequent' must be a pair of integers"),
        (_synth('[{"antecedent": [[0, 1]], "consequent": [1, 0], "confidence": "1"}]'),
         "planted rule 0 'confidence' must be a number"),
        (_synth('[{"antecedent": [[0, 0, 1]], "consequent": [1, 0]}]'),
         "planted rule 0 'antecedent' must be an array of pairs of integers"),
        (_synth('[{"consequent": [1, 0]}]'), "planted rule 0: missing key 'antecedent'"),
        (_synth('[{"antecedent": '), "--planted: invalid JSON"),
        (_mine_after_editing("manifest.json", _without("pipeline")),
         "manifest: missing key 'pipeline'"),
        (_mine_after_editing("manifest.json", _without("features")),
         "manifest: missing key 'features'"),
        (_mine_after_editing("manifest.json", _without("sensors", within="pipeline")),
         "manifest pipeline: missing key 'sensors'"),
        (_mine_after_editing("model.json", _without("config")), "model: missing key 'config'"),
        (_mine_after_editing("model.json", lambda doc: json.dumps(doc)[:6]),
         "model.json: invalid JSON"),
        (_mine_after_editing("manifest.json", lambda doc: json.dumps(doc)[:6]),
         "manifest.json: invalid JSON"),
        (_coupled_baseline("[\n"), "rules.json: invalid JSON"),
        (_coupled_baseline([{"antecedent": [S1_A], "consequent": {"feature": "s1", "class": "b"}}]),
         "rules.json: rule 0: consequent feature may not appear in the antecedent"),
        (_coupled_baseline([{"antecedent": [], "consequent": S1_A}]),
         "rules.json: rule 0: antecedent must be non-empty"),
        (_coupled_baseline([{"antecedent": [S1_A], "consequent": {"feature": "s2", "class": "c"}},
                            {"antecedent": [{"feature": "ghost", "class": "a"}],
                             "consequent": S1_A}]),
         "rules.json: rule 1: unknown feature or class in rule document"),
    ], ids=["rule-number", "antecedent-string", "consequent-string", "item-feature-list",
            "planted-rule-number", "planted-number", "planted-antecedent-number",
            "pipeline-number", "manifest-list", "config-list", "config-unknown-key",
            "model-list", "input-dim-list", "encoder-dims-number", "class-counts-number",
            "class-counts-nested", "rng-seed-list", "weights-number", "config-epochs-list",
            "bias-true", "weight-string", "planted-strings", "planted-consequent-strings",
            "planted-confidence-string", "planted-triple", "planted-no-antecedent",
            "planted-truncated", "manifest-no-pipeline", "manifest-no-features",
            "manifest-no-sensors", "model-no-config", "model-truncated", "manifest-truncated",
            "rules-truncated", "rule-consequent-in-antecedent", "rule-empty-antecedent",
            "rule-unknown-feature"])
    def test_is_named_data_error(self, small_csv, tmp_path, capsys, argv, part):
        args = argv(small_csv, tmp_path)
        capsys.readouterr()
        assert run(*args) == 3
        assert part in single_data_error(capsys)


class TestMine:
    def test_unknown_mark_feature_is_named(self, small_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("train", "--sensors", small_csv, "--out", out, "--epochs", 1) == 0
        capsys.readouterr()
        code = run("mine", "--sensors", small_csv, "--model", out / "model.json",
                   "--out", out, "--mark-features", "s1,nosuch")
        assert code == 3
        err = single_data_error(capsys)
        assert "--mark-features" in err and "'nosuch'" in err

    @pytest.mark.parametrize("value", [",", " "], ids=["comma", "space"])
    def test_mark_features_naming_nothing_is_named_data_error(self, small_csv, tmp_path, capsys,
                                                              value):
        out = tmp_path / "run"
        assert run("train", "--sensors", small_csv, "--out", out, "--epochs", 1) == 0
        capsys.readouterr()
        code = run("mine", "--sensors", small_csv, "--model", out / "model.json",
                   "--out", out, "--mark-features", value)
        assert code == 3
        assert "--mark-features names no feature" in single_data_error(capsys)
        assert not (out / "rules.json").exists()

    def test_planted_rules_recovered(self, dataset, trained, capsys):
        assert run("mine", "--sensors", dataset / "sensors.csv",
                   "--graph", dataset / "graph.json",
                   "--model", trained / "model.json", "--out", trained) == 0
        rendered = (trained / "report.txt").read_text()
        assert "s00=c0 -> s01=c1" in rendered
        assert "s00=c1 -> s01=c2" in rendered
        report = json.loads((trained / "report.json").read_text())
        assert report["rule_count"] >= 2
        assert report["data_coverage"] == 1.0
        import jsonschema

        jsonschema.validate(report, quality.REPORT_SCHEMA)

    def test_high_threshold_yields_empty_valid_report(self, dataset, tmp_path):
        out = tmp_path / "origin"
        # one short epoch at a tiny learning rate leaves near-uniform outputs
        assert run("train", "--sensors", dataset / "sensors.csv", "--out", out,
                   "--epochs", 1, "--learning-rate", "1e-9", "--seed", 1) == 0
        assert run("mine", "--sensors", dataset / "sensors.csv",
                   "--model", out / "model.json", "--out", out,
                   "--similarity-threshold", 0.99) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rule_count"] == 0
        assert report["rules"] == []
        assert json.loads((out / "rules.json").read_text()) == []

    def test_stub_model_with_item_constraint_emits_one_rule(self, tmp_path):
        lines = ["timestamp,sensor_id,value"]
        s2_values = ["c", "d", "e", "c", "c", "e"]
        for w, s2 in enumerate(s2_values):
            lines.append(f'{w * 60},s1,"{"a" if w % 2 == 0 else "b"}"')
            lines.append(f'{w * 60},s2,"{s2}"')
        csv_path = tmp_path / "sensors.csv"
        csv_path.write_text("\n".join(lines) + "\n")

        out = tmp_path / "stub"
        assert run("train", "--sensors", csv_path, "--out", out, "--epochs", 1) == 0
        layout = GroupLayout((2, 3))
        shape = autonet.NetworkShape.default_for(layout)
        dims = shape.layer_dims
        stub = autonet.TrainedAutoencoder(
            shape,
            [np.zeros((dims[i], dims[i + 1])) for i in range(6)],
            [np.zeros(dims[i + 1]) for i in range(5)]
            + [np.log(np.array([0.82, 0.18, 0.9, 0.05, 0.05]))],
            autonet.TrainingConfig(),
            rng_seed=0,
        )
        autonet.save_model(stub, out / "model.json")

        assert run("mine", "--sensors", csv_path, "--model", out / "model.json",
                   "--out", out, "--mark-features", "s1") == 0
        rules = json.loads((out / "rules.json").read_text())
        assert len(rules) == 1
        assert rules[0]["antecedent"] == [{"feature": "s1", "class": "a"}]
        assert rules[0]["consequent"] == {"feature": "s2", "class": "c"}

    def test_manifest_mismatch_is_data_error(self, dataset, trained, capsys):
        code = run("mine", "--sensors", dataset / "sensors.csv",
                   "--graph", dataset / "graph.json",
                   "--model", trained / "model.json", "--out", trained,
                   "--enrich")
        assert code == 3
        assert "manifest" in capsys.readouterr().err


class TestBaseline:
    def test_full_support_threshold_returns_universal_rules_only(self, dataset, tmp_path):
        out = tmp_path / "base"
        assert run("baseline", "--sensors", dataset / "sensors.csv", "--out", out,
                   "--min-support", 1.0) == 0
        report = json.loads((out / "baseline_report.json").read_text())
        assert all(r["support"] == 1.0 for r in report["rules"])
        import jsonschema

        jsonschema.validate(report, quality.REPORT_SCHEMA)

    def test_coupled_threshold_matches_recomputation(self, dataset, trained, tmp_path):
        assert run("mine", "--sensors", dataset / "sensors.csv",
                   "--graph", dataset / "graph.json",
                   "--model", trained / "model.json", "--out", trained) == 0
        out = tmp_path / "coupled"
        assert run("baseline", "--sensors", dataset / "sensors.csv", "--out", out,
                   "--rules", trained / "rules.json") == 0
        report = json.loads((out / "baseline_report.json").read_text())

        series = aggregate(load_sensor_csv((dataset / "sensors.csv").read_text()), 60)
        table = build_transactions(series)
        mined = rules_from_json((trained / "rules.json").read_text(), table.features)
        expected = baseline.coupled_support_threshold(mined, table)
        assert report["min_support"] == expected

    def test_baseline_rules_match_brute_force(self, tmp_path):
        data = tmp_path / "tiny"
        assert run("synth", "--out", data, "--rows", 60, "--features", 4,
                   "--classes", 3, "--seed", 2, "--planted", PLANTED) == 0
        out = tmp_path / "check"
        assert run("baseline", "--sensors", data / "sensors.csv", "--out", out,
                   "--min-support", 0.05, "--min-confidence", 0.7,
                   "--max-antecedents", 2) == 0
        series = aggregate(load_sensor_csv((data / "sensors.csv").read_text()), 60)
        table = build_transactions(series)
        got = set(rules_from_json((out / "baseline_rules.json").read_text(), table.features))
        expected = {
            r
            for r in brute_force_implications(table, 0.7, 2)
            if r.support >= 0.05
        }
        assert got == expected

    def test_rules_with_min_support_is_usage_error(self, dataset, tmp_path, capsys):
        # either one sets the support threshold, so neither may be dropped silently
        code = run("baseline", "--sensors", dataset / "sensors.csv", "--out", tmp_path,
                   "--min-support", 0.1, "--rules", tmp_path / "missing.json")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_coupled_with_empty_rules_is_data_error(self, dataset, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        code = run("baseline", "--sensors", dataset / "sensors.csv",
                   "--out", tmp_path, "--rules", empty)
        assert code == 3
        err = capsys.readouterr().err
        assert "empty" in err
        assert f"error: data: rules {empty}: cannot couple" in err

    def test_coupled_with_rules_that_never_hold_is_data_error(self, tmp_path, capsys):
        # a reads x0/x1 and b reads y0/y1 in step, so a=x0 -> b=y1 holds in no window
        lines = ["timestamp,sensor_id,value"]
        for w in range(10):
            lines += [f"{w * 60},a,x{w % 2}", f"{w * 60},b,y{w % 2}"]
        csv_path, rules = tmp_path / "sensors.csv", tmp_path / "rules.json"
        csv_path.write_text("\n".join(lines) + "\n")
        rules.write_text(json.dumps([{"antecedent": [{"feature": "a", "class": "x0"}],
                                      "consequent": {"feature": "b", "class": "y1"}}]))
        code = run("baseline", "--sensors", csv_path, "--out", tmp_path / "out", "--rules", rules)
        assert code == 3
        err = single_data_error(capsys)
        assert "rules that hold in no row of the table (mean support 0)" in err
        assert "min_support" not in err
        assert err.startswith(f"error: data: rules {rules}: cannot couple")

    def test_missing_support_flag_is_usage_error(self, dataset, tmp_path):
        assert run("baseline", "--sensors", dataset / "sensors.csv",
                   "--out", tmp_path) == 2


NOISY_PLANTED = json.dumps(
    [
        {"antecedent": [[0, 0]], "consequent": [1, 1], "confidence": 0.9},
        {"antecedent": [[0, 1]], "consequent": [1, 2], "confidence": 1.0},
    ]
)


def _rule_documents(text: str) -> list[str]:
    """The text of each document in a rules file, from its ``{`` line to its ``}`` line."""
    documents = re.findall(r"^  \{\n.*?^  \}", text, re.M | re.S)
    assert len(documents) == len(json.loads(text))
    return documents


class TestBaselineRelations:
    @pytest.fixture
    def noisy(self, tmp_path):
        data = tmp_path / "data"
        assert run("synth", "--out", data, "--rows", 200, "--features", 4, "--classes", 3,
                   "--seed", 3, "--noise-rate", 0.1, "--planted", NOISY_PLANTED) == 0
        return data

    def test_coupled_run_equals_a_run_at_its_threshold(self, noisy, tmp_path):
        """``--rules R`` writes what ``--min-support`` at the threshold its
        report holds writes, apart from the timings."""
        ingest = ["--sensors", noisy / "sensors.csv", "--graph", noisy / "graph.json",
                  "--enrich", "--depth", 1]
        reference, coupled, direct = tmp_path / "reference", tmp_path / "coupled", tmp_path / "direct"
        assert run("baseline", *ingest, "--out", reference, "--min-support", 0.3) == 0
        assert run("baseline", *ingest, "--out", coupled,
                   "--rules", reference / "baseline_rules.json") == 0
        min_support = json.loads((coupled / "baseline_report.json").read_text())["min_support"]
        assert 0 < min_support < 0.3
        assert run("baseline", *ingest, "--out", direct, "--min-support", repr(min_support)) == 0

        def untimed(path):
            return re.sub(r'"mine_seconds": [^\n]*', "", (path / "baseline_report.json").read_text())

        assert untimed(coupled) == untimed(direct)
        for name in ("baseline_rules.json", "baseline_report.txt"):
            assert (coupled / name).read_bytes() == (direct / name).read_bytes()
        assert _rule_documents((coupled / "baseline_rules.json").read_text())

    @pytest.mark.parametrize("raised", [(0.1, 0.3), (0.02, 0.6), (0.1, 0.6)],
                             ids=["support", "confidence", "both"])
    def test_raising_a_threshold_keeps_a_subsequence_of_the_rules(self, noisy, tmp_path, raised):
        """Each rule document of the stricter run is in the looser run's file,
        byte for byte and in the same order, and some are gone."""
        files = []
        for min_support, min_confidence in ((0.02, 0.3), raised):
            out = tmp_path / f"{min_support}-{min_confidence}"
            assert run("baseline", "--sensors", noisy / "sensors.csv", "--out", out,
                       "--min-support", min_support, "--min-confidence", min_confidence) == 0
            files.append(_rule_documents((out / "baseline_rules.json").read_text()))
        loose, strict = files
        assert 0 < len(strict) < len(loose)
        remaining = iter(loose)
        assert all(doc in remaining for doc in strict)


class TestLineOrder:
    def test_permuting_the_data_lines_changes_no_output(self, tmp_path):
        """A sensor CSV is a set of readings: ``train``, ``mine`` and
        ``baseline`` on a permutation of its data lines write the same bytes,
        apart from the timing values of the reports."""
        data = tmp_path / "data"
        assert run("synth", "--out", data, "--rows", 120, "--features", 4, "--classes", 3,
                   "--seed", 3, "--noise-rate", 0.1, "--planted", NOISY_PLANTED) == 0
        header, *lines = (data / "sensors.csv").read_text().splitlines(keepends=True)
        outputs = []
        for seed in (None, 1, 2, 3):
            order = np.arange(len(lines))
            if seed is not None:
                order = np.random.default_rng(seed).permutation(order)
            sensors, out = tmp_path / f"sensors-{seed}.csv", tmp_path / f"run-{seed}"
            sensors.write_text(header + "".join(lines[i] for i in order))
            ingest = ["--sensors", sensors, "--graph", data / "graph.json", "--enrich",
                      "--depth", 1, "--out", out]
            assert run("train", *ingest, "--seed", 2, "--epochs", 2) == 0
            assert run("mine", *ingest, "--model", out / "model.json") == 0
            assert run("baseline", *ingest, "--min-support", 0.05) == 0
            names = ("model.json", "rules.json", "report.json", "report.txt",
                     "baseline_rules.json", "baseline_report.json", "baseline_report.txt")
            texts = {name: (out / name).read_text() for name in names}
            for name in ("report.json", "baseline_report.json"):
                texts[name] = re.sub(r'("\w+_seconds": )[-+.\deE]+', r"\1", texts[name])
            outputs.append(texts)
        assert json.loads(outputs[0]["rules.json"]) and json.loads(outputs[0]["baseline_rules.json"])
        assert all(texts == outputs[0] for texts in outputs[1:])


class TestOutputBytes:
    def test_rules_and_reports_are_json_dumps_of_their_documents(self, tmp_path):
        """Each rules and report file holds exactly the bytes of
        json.dumps(indent=2, sort_keys=True) of its document, rebuilt from
        the reloaded rules and a fresh evaluation."""
        data, out = tmp_path / "data", tmp_path / "run"
        assert run("synth", "--out", data, "--rows", 150, "--features", 3, "--classes", 3,
                   "--seed", 1, "--planted", PLANTED) == 0
        ingest = ["--sensors", data / "sensors.csv", "--graph", data / "graph.json",
                  "--enrich", "--depth", 1, "--out", out]
        assert run("train", *ingest, "--seed", 4) == 0
        assert run("mine", *ingest, "--model", out / "model.json") == 0
        assert run("baseline", *ingest, "--min-support", 0.05) == 0

        graph, _, binding = load_graph((data / "graph.json").read_text())
        series = aggregate(load_sensor_csv((data / "sensors.csv").read_text()), 60)
        table = build_transactions(series, Enrichment(graph, binding, depth=1))
        features = table.features
        assert any(len(f.class_values) == 1 for f in features)

        def reference(doc):
            return json.dumps(doc, indent=2, sort_keys=True) + "\n"

        outputs = (
            ("rules.json", "report.json", ["timings"]),
            ("baseline_rules.json", "baseline_report.json", ["min_support", "timings"]),
        )
        for rules_name, report_name, extra_keys in outputs:
            rules_text = (out / rules_name).read_text()
            report = quality.evaluate(rules_from_json(rules_text, features), table)
            assert rules_text == reference([rule_to_doc(r, features) for r in report.per_rule])
            report_text = (out / report_name).read_text()
            written = json.loads(report_text)
            extra = {key: written[key] for key in extra_keys}
            assert report.rule_count > 0
            assert report_text == reference({**quality.report_to_doc(report, features), **extra})


REPORT = {
    "rule_count": 2, "mean_support": 0.2, "mean_confidence": 1.0, "mean_coverage": 0.2,
    "mean_zhang": 0.0, "data_coverage": 1.0, "rules": [], "timings": {"extract_seconds": 1.0},
}


class TestCompare:
    def test_identical_reports_have_zero_deltas(self, dataset, trained, tmp_path):
        assert run("mine", "--sensors", dataset / "sensors.csv",
                   "--graph", dataset / "graph.json",
                   "--model", trained / "model.json", "--out", trained) == 0
        out = tmp_path / "cmp"
        assert run("compare", "--left", trained / "report.json",
                   "--right", trained / "report.json", "--out", out) == 0
        doc = json.loads((out / "compare.json").read_text())
        for key in ("rule_count", "mean_support", "mean_confidence", "data_coverage"):
            assert doc["left"][key] == doc["right"][key]
        assert (out / "compare.txt").exists()

    def test_macro_mean_over_repeats(self, tmp_path):
        def fake_report(support):
            return {
                "rule_count": 2, "mean_support": support, "mean_confidence": 1.0,
                "mean_coverage": support, "mean_zhang": 0.0, "data_coverage": 1.0,
                "rules": [], "timings": {"extract_seconds": 1.0},
            }

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(fake_report(0.2)))
        b.write_text(json.dumps(fake_report(0.4)))
        out = tmp_path / "cmp"
        assert run("compare", "--left", a, b, "--right", a, "--out", out) == 0
        doc = json.loads((out / "compare.json").read_text())
        assert math.isclose(doc["left"]["mean_support"], 0.3)
        assert doc["right"]["mean_support"] == 0.2

    @pytest.mark.parametrize("mutate, part", [
        (lambda doc: [doc], "bad.json must be an object"),
        (lambda doc: {**doc, "mean_support": "x"}, "bad.json 'mean_support' must be a number"),
        (lambda doc: {**doc, "rule_count": True}, "bad.json 'rule_count' must be a number"),
        (lambda doc: {k: v for k, v in doc.items() if k != "rule_count"},
         "bad.json: missing key 'rule_count'"),
        (lambda doc: {**doc, "timings": 3}, "bad.json 'timings' must be an object"),
        (lambda doc: {**doc, "timings": {"extract_seconds": "1"}},
         "bad.json timings 'extract_seconds' must be a number"),
        (lambda doc: {**doc, "mean_support": math.nan}, "bad.json 'mean_support' must be a number"),
        (lambda doc: {**doc, "timings": {"extract_seconds": math.inf}},
         "bad.json timings 'extract_seconds' must be a number"),
        (lambda doc: json.dumps(doc)[:6], "bad.json: invalid JSON"),
    ], ids=["list", "mean-string", "count-bool", "count-missing", "timings-number",
            "timing-string", "mean-nan", "timing-inf", "truncated"])
    def test_malformed_report_is_named_data_error(self, tmp_path, capsys, mutate, part):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(REPORT))
        bad.write_text(_json_text(mutate(copy.deepcopy(REPORT))))
        assert run("compare", "--left", good, "--right", bad, "--out", tmp_path / "cmp") == 3
        assert part in single_data_error(capsys)


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        assert run("explode") == 2
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_unknown_flag_exits_2(self):
        assert run("synth", "--frobnicate") == 2

    @pytest.mark.parametrize("command", ["mine", "compare"])
    def test_commands_that_draw_nothing_take_no_seed(self, capsys, command):
        assert run(command, "--seed", 1) == 2
        assert "--seed" in capsys.readouterr().err

    def test_mine_has_no_sample_sensors_flag(self, capsys):
        # mine keeps the sensors its manifest recorded, so it takes no sample size
        assert run("mine", "--model", "model.json", "--sample-sensors", 1) == 2
        assert "--sample-sensors" in capsys.readouterr().err

    def test_config_file_supplies_defaults_and_flags_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rows": 40, "features": 3, "classes": 3, "seed": 1}))
        out = tmp_path / "from_config"
        assert run("synth", "--config", config, "--out", out, "--rows", 25) == 0
        csv_lines = (out / "sensors.csv").read_text().strip().splitlines()
        # header plus rows * features readings
        assert len(csv_lines) == 1 + 25 * 3


def _train_argv(csv, tmp_path):
    return ["train", "--sensors", csv, "--out", tmp_path / "run"]


def _synth_argv(csv, tmp_path):
    return ["synth", "--out", tmp_path / "data", "--rows", 20, "--features", 3]


def _compare_argv(csv, tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(REPORT))
    return ["compare", "--right", report, "--out", tmp_path / "cmp"]


class TestConfigFile:
    """A config file's value must have the JSON type that the option's flag
    declares; a wrong one is a data error naming the key."""

    @pytest.mark.parametrize("argv, config, message", [
        (_train_argv, {"epochs": [1]}, "config 'epochs' must be an integer"),
        (_train_argv, {"epochs": {}}, "config 'epochs' must be an integer"),
        (_train_argv, {"epochs": "5"}, "config 'epochs' must be an integer"),
        (_train_argv, {"epochs": True}, "config 'epochs' must be an integer"),
        (_train_argv, {"epochs": 5.0}, "config 'epochs' must be an integer"),
        (_train_argv, {"epochs": None}, "config 'epochs' must be an integer"),
        (_train_argv, {"seed": "3"}, "config 'seed' must be an integer"),
        (_synth_argv, {"zones": 1.5}, "config 'zones' must be an integer"),
        (_synth_argv, {"rows": 10.9}, "config 'rows' must be an integer"),
        (_train_argv, {"learning-rate": [0.01]}, "config 'learning-rate' must be a number"),
        (_train_argv, {"learning-rate": {}}, "config 'learning-rate' must be a number"),
        (_train_argv, {"window-seconds": "60"}, "config 'window-seconds' must be a number"),
        (_train_argv, {"noise-factor": True}, "config 'noise-factor' must be a number"),
        (_train_argv, {"enrich": "no"}, "config 'enrich' must be a boolean"),
        (_train_argv, {"enrich": 0}, "config 'enrich' must be a boolean"),
        (_synth_argv, {"exclusive-consequents": [True]},
         "config 'exclusive-consequents' must be a boolean"),
        (_train_argv, {"out": {}}, "config 'out' must be a string"),
        (_train_argv, {"out": ["run"]}, "config 'out' must be a string"),
        (_compare_argv, {"left": "report.json"}, "config 'left' must be an array of strings"),
        (_compare_argv, {"left": [1]}, "config 'left' must be an array of strings"),
        (_synth_argv, {"planted": 5}, "config 'planted' must be JSON text or an array"),
        (_synth_argv, {"planted": {}}, "config 'planted' must be JSON text or an array"),
        (_train_argv, {"learning-rate": math.nan}, "config 'learning-rate' must be a number"),
        (_train_argv, {"window-seconds": math.inf}, "config 'window-seconds' must be a number"),
        (_train_argv, '{\n  "epochs": ', "config.json: invalid JSON"),
    ], ids=["int-list", "int-object", "int-string", "int-bool", "int-float", "int-null",
            "seed-string", "zones-float", "rows-float", "number-list", "number-object",
            "number-string", "number-bool", "flag-string", "flag-number",
            "flag-list", "string-object", "string-list",
            "strings-string", "strings-numbers", "planted-number", "planted-object",
            "number-nan", "number-inf", "truncated"])
    def test_wrong_type_is_named_data_error(self, small_csv, tmp_path, capsys,
                                            argv, config, message):
        path = tmp_path / "config.json"
        path.write_text(_json_text(config))
        assert run(*argv(small_csv, tmp_path), "--config", path) == 3
        assert message in single_data_error(capsys)

    @pytest.mark.parametrize("key, value, message", [
        ("intervals", [1], "manifest pipeline 'intervals' must be an integer"),
        ("enrich", "false", "manifest pipeline 'enrich' must be a boolean"),
        ("window_seconds", "60", "manifest pipeline 'window_seconds' must be a number"),
        ("depth", 1.0, "manifest pipeline 'depth' must be an integer"),
        ("sensors", 5, "manifest pipeline 'sensors' must be an array of strings"),
        ("sensors", [1], "manifest pipeline 'sensors' must be an array of strings"),
        ("window_seconds", math.nan, "manifest pipeline 'window_seconds' must be a number"),
    ], ids=["intervals-list", "enrich-string", "window-string", "depth-float",
            "sensors-number", "sensors-numbers", "window-nan"])
    def test_wrong_manifest_type_is_named_data_error(self, small_csv, tmp_path, capsys,
                                                     key, value, message):
        out = tmp_path / "run"
        assert run("train", "--sensors", small_csv, "--out", out, "--epochs", 1) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["pipeline"][key] = value
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run("mine", "--sensors", small_csv, "--model", out / "model.json",
                   "--out", out) == 3
        assert message in single_data_error(capsys)

    def test_flag_beats_config_beats_manifest_beats_default(self, tmp_path):
        # three sensors cycling through a, b, c: a 120 s window keeps two classes each
        lines = ["timestamp,sensor_id,value"]
        lines += [f'{w * 60},s{s},"{"abc"[(w + s) % 3]}"' for w in range(12) for s in range(3)]
        small_csv = tmp_path / "sensors.csv"
        small_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"window-seconds": 120, "intervals": 4, "epochs": 1}))
        assert run("train", "--sensors", small_csv, "--out", out, "--config", config,
                   "--intervals", 5) == 0
        pipeline = json.loads((out / "manifest.json").read_text())["pipeline"]
        assert (pipeline["window_seconds"], pipeline["intervals"], pipeline["depth"]) == (120.0, 5, 1)

        mine = ["mine", "--sensors", small_csv, "--model", out / "model.json", "--out", out]
        # the manifest's 120 s window, not the 60 s default, rebuilds the trained table
        assert run(*mine) == 0
        # a config window beats the manifest's, so the rebuilt table no longer matches
        config.write_text(json.dumps({"window-seconds": 60}))
        assert run(*mine, "--config", config) == 3
        assert run(*mine, "--config", config, "--window-seconds", 120) == 0

    def test_config_supplies_compare_labels(self, tmp_path):
        report, config = tmp_path / "report.json", tmp_path / "config.json"
        report.write_text(json.dumps(REPORT))
        config.write_text(json.dumps({"left-label": "autoencoder", "right": [str(report)]}))
        out = tmp_path / "cmp"
        assert run("compare", "--config", config, "--left", report, "--out", out) == 0
        doc = json.loads((out / "compare.json").read_text())
        assert (doc["left_label"], doc["right_label"]) == ("autoencoder", "right")
        assert "autoencoder" in (out / "compare.txt").read_text()

    def test_train_without_training_options_uses_training_config_defaults(self, small_csv,
                                                                          tmp_path):
        out = tmp_path / "run"
        assert run("train", "--sensors", small_csv, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["training"] == asdict(autonet.TrainingConfig(rng_seed=0))

    def test_unknown_keys_are_ignored_and_numbers_stay_floats(self, small_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min-support": "other commands' key", "learning-rate": 1,
                                      "epochs": 1}))
        out = tmp_path / "run"
        assert run("train", "--sensors", small_csv, "--out", out, "--config", config) == 0
        training = json.loads((out / "manifest.json").read_text())["training"]
        assert training["learning_rate"] == 1.0 and isinstance(training["learning_rate"], float)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_session() -> list[list[str]]:
    """The commands of the fenced block under README's ``## CLI``, each split
    as a shell splits it, without the leading ``semarm``."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    commands = []
    for word in shlex.split(block.replace("\\\n", " "), comments=True):
        if word == "semarm":
            commands.append([])
        else:
            commands[-1].append(word)
    return commands


class TestReadme:
    def test_cli_session_runs(self, tmp_path, monkeypatch, capsys):
        commands = readme_session()
        assert [argv[0] for argv in commands] == ["synth", "train", "mine", "baseline", "compare"]
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv) == 0, capsys.readouterr().err
