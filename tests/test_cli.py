import copy
import json
import math
from dataclasses import asdict

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
        assert err.startswith("error: data: " + message)
        assert err.count("\n") == 1

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


def _coupled_baseline(rules):
    def argv(csv, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules))
        return ["baseline", "--sensors", csv, "--out", tmp_path, "--coupled", "--rules", path]
    return argv


def _synth(planted):
    return lambda csv, tmp_path: ["synth", "--out", tmp_path, "--rows", 20, "--planted", planted]


def _mine_after_editing(name, mutate):
    def argv(csv, tmp_path):
        out = tmp_path / "run"
        assert run("train", "--sensors", csv, "--out", out, "--epochs", 1) == 0
        doc = json.loads((out / name).read_text())
        (out / name).write_text(json.dumps(mutate(doc)))
        return ["mine", "--sensors", csv, "--model", out / "model.json", "--out", out]
    return argv


S1_A = {"feature": "s1", "class": "a"}


class TestMalformedJsonInput:
    @pytest.mark.parametrize("argv, part", [
        (_coupled_baseline([1]), "rule 0 must be an object"),
        (_coupled_baseline([{"antecedent": "s1", "consequent": S1_A}]), "rule 0 antecedent"),
        (_coupled_baseline([{"antecedent": [S1_A], "consequent": "s2"}]), "rule 0 items"),
        (_coupled_baseline([{"antecedent": [{"feature": ["s1"], "class": "a"}],
                             "consequent": S1_A}]), "unknown feature or class"),
        (_synth("[1]"), "planted rule 0 must be an object"),
        (_synth("5"), "planted rules must be a JSON array"),
        (_synth('[{"antecedent": 5, "consequent": [1, 1]}]'), "planted rule 0"),
        (_mine_after_editing("manifest.json", lambda doc: {**doc, "pipeline": 3}), "pipeline"),
        (_mine_after_editing("manifest.json", lambda doc: [doc]), "manifest"),
        (_mine_after_editing("model.json", lambda doc: {**doc, "config": [1]}), "model config"),
        (_mine_after_editing("model.json", lambda doc: {**doc, "config": {"epoch": 1}}),
         "model config"),
        (_mine_after_editing("model.json", lambda doc: [doc]), "model document"),
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
         "model 'weights' must be an array of arrays of numbers"),
        (_mine_after_editing("model.json",
                             lambda doc: {**doc, "config": {**doc["config"], "epochs": [1]}}),
         "model config 'epochs' must be an integer"),
    ], ids=["rule-number", "antecedent-string", "consequent-string", "item-feature-list",
            "planted-rule-number", "planted-number", "planted-antecedent-number",
            "pipeline-number", "manifest-list", "config-list", "config-unknown-key",
            "model-list", "input-dim-list", "encoder-dims-number", "class-counts-number",
            "class-counts-nested", "rng-seed-list", "weights-number", "config-epochs-list"])
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
                   "--coupled", "--rules", trained / "rules.json") == 0
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
            for r in baseline.brute_force_implications(table, 0.7, 2)
            if r.support >= 0.05
        }
        assert got == expected

    def test_coupled_without_rules_flag_is_usage_error(self, dataset, tmp_path, capsys):
        code = run("baseline", "--sensors", dataset / "sensors.csv",
                   "--out", tmp_path, "--coupled")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_coupled_with_empty_rules_is_data_error(self, dataset, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        code = run("baseline", "--sensors", dataset / "sensors.csv",
                   "--out", tmp_path, "--coupled", "--rules", empty)
        assert code == 3
        assert "empty" in capsys.readouterr().err

    def test_missing_support_flag_is_usage_error(self, dataset, tmp_path):
        assert run("baseline", "--sensors", dataset / "sensors.csv",
                   "--out", tmp_path) == 2


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
            rules = rules_from_json(rules_text, features)
            assert rules_text == reference([rule_to_doc(r, features) for r in rules])
            report_text = (out / report_name).read_text()
            written = json.loads(report_text)
            extra = {key: written[key] for key in extra_keys}
            report = quality.evaluate(rules, table)
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
        (lambda doc: [doc], "bad.json must be a JSON object"),
        (lambda doc: {**doc, "mean_support": "x"}, "bad.json 'mean_support' must be a number"),
        (lambda doc: {**doc, "rule_count": True}, "bad.json 'rule_count' must be a number"),
        (lambda doc: {k: v for k, v in doc.items() if k != "rule_count"},
         "bad.json has no 'rule_count'"),
        (lambda doc: {**doc, "timings": 3}, "bad.json 'timings' must be a JSON object"),
        (lambda doc: {**doc, "timings": {"extract_seconds": "1"}},
         "bad.json timing 'extract_seconds' must be a number"),
    ], ids=["list", "mean-string", "count-bool", "count-missing", "timings-number",
            "timing-string"])
    def test_malformed_report_is_named_data_error(self, tmp_path, capsys, mutate, part):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(REPORT))
        bad.write_text(json.dumps(mutate(copy.deepcopy(REPORT))))
        assert run("compare", "--left", good, "--right", bad, "--out", tmp_path / "cmp") == 3
        assert part in single_data_error(capsys)


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        assert run("explode") == 2
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_unknown_flag_exits_2(self):
        assert run("synth", "--frobnicate") == 2

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


def _baseline_argv(csv, tmp_path):
    return ["baseline", "--sensors", csv, "--out", tmp_path / "base"]


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
        (_baseline_argv, {"coupled": "false", "min-support": 0.1},
         "config 'coupled' must be a boolean"),
        (_synth_argv, {"exclusive-consequents": [True]},
         "config 'exclusive-consequents' must be a boolean"),
        (_train_argv, {"out": {}}, "config 'out' must be a string"),
        (_train_argv, {"out": ["run"]}, "config 'out' must be a string"),
        (_compare_argv, {"left": "report.json"}, "config 'left' must be an array of strings"),
        (_compare_argv, {"left": [1]}, "config 'left' must be an array of strings"),
        (_synth_argv, {"planted": 5}, "config 'planted' must be JSON text or an array"),
        (_synth_argv, {"planted": {}}, "config 'planted' must be JSON text or an array"),
    ], ids=["int-list", "int-object", "int-string", "int-bool", "int-float", "int-null",
            "seed-string", "zones-float", "rows-float", "number-list", "number-object",
            "number-string", "number-bool", "flag-string", "flag-number",
            "coupled-string", "flag-list", "string-object", "string-list",
            "strings-string", "strings-numbers", "planted-number", "planted-object"])
    def test_wrong_type_is_named_data_error(self, small_csv, tmp_path, capsys,
                                            argv, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run(*argv(small_csv, tmp_path), "--config", path) == 3
        assert message in single_data_error(capsys)

    @pytest.mark.parametrize("key, value, message", [
        ("intervals", [1], "manifest pipeline 'intervals' must be an integer"),
        ("enrich", "false", "manifest pipeline 'enrich' must be a boolean"),
        ("window_seconds", "60", "manifest pipeline 'window_seconds' must be a number"),
        ("depth", 1.0, "manifest pipeline 'depth' must be an integer"),
        ("sensors", 5, "manifest pipeline 'sensors' must be an array of strings"),
        ("sensors", [1], "manifest pipeline 'sensors' must be an array of strings"),
    ], ids=["intervals-list", "enrich-string", "window-string", "depth-float",
            "sensors-number", "sensors-numbers"])
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
