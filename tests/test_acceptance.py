"""End-to-end acceptance suite.

Each test covers one exit criterion at its stated tolerance and prints one
``ACCEPTANCE <n> <name>: PASS`` line (run with ``pytest -s`` to see them all).
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from semarm import baseline, quality, synth, transact
from semarm.autonet import NetworkShape, TrainingConfig, train
from semarm.cli import main as cli_main
from semarm.extract import ExtractionConfig, Item, Rule, extract_rules
from semarm.graph import load_graph
from semarm.transact import Enrichment, GroupLayout, aggregate, build_transactions, one_hot_encode

from conftest import make_random_table
from oracles import (
    brute_force_implications,
    confidence,
    count_test_vectors,
    data_coverage,
    group_slice,
    initialize_network,
    loss_gradients,
    rule_coverage,
    spec_to_table,
    support,
    zhang,
)
from test_autonet import finite_difference_grads, max_tensor_relative_error
from test_extract import CountingNet, StubNet
from test_quality import (
    oracle_confidence,
    oracle_coverage,
    oracle_data_coverage,
    oracle_support,
    oracle_zhang,
    random_rule,
    table_from_rows,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_01_worked_example_reproduction():
    with criterion(1, "worked-example reproduction"):
        started = time.perf_counter()
        layout = GroupLayout((2, 3))
        expected_probe = np.array([1.0, 0.0, 1 / 3, 1 / 3, 1 / 3])
        expected_rule = Rule(frozenset({Item(0, 0)}), Item(1, 0))
        for cap in (1, 2):
            net = StubNet(layout, [0.8, 0.2, 0.9, 0.04, 0.06])
            rules = extract_rules(net, ExtractionConfig(0.8, cap))
            assert list(rules) == [expected_rule]
            np.testing.assert_array_equal(net.inputs[0], expected_probe)
        assert time.perf_counter() - started < 1.0


def test_02_gradient_correctness():
    with criterion(2, "analytic gradients vs finite differences"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 20:
            counts = tuple(int(c) for c in rng.integers(2, 5, size=rng.integers(2, 5)))
            layout = GroupLayout(counts)
            if layout.width > 12:
                continue
            d = layout.width
            enc = (
                int(rng.integers(2, d + 3)),
                int(rng.integers(2, d + 2)),
                int(rng.integers(1, d)),
            )
            shape = NetworkShape(d, enc, (enc[1], enc[0], d), layout)
            net = initialize_network(shape, seed=checked)
            x = rng.random((2, d))
            y = rng.random((2, d))
            _, gw, gb = loss_gradients(net, x, y)
            fw, fb = finite_difference_grads(net, x, y, h=1e-5)
            assert max_tensor_relative_error(gw + gb, fw + fb) < 1e-4
            checked += 1
        assert time.perf_counter() - started < 10.0


def test_03_softmax_normalization():
    with criterion(3, "per-feature softmax normalization"):
        rng = np.random.default_rng(7)
        nets = [
            initialize_network(
                NetworkShape.default_for(GroupLayout((3, 4, 2, 5))), seed=s
            )
            for s in range(4)
        ]
        for i in range(1000):
            net = nets[i % len(nets)]
            layout = net.shape.group_layout
            out = net.forward(rng.uniform(0.0, 1.0, layout.width))
            for feature in range(layout.n_features):
                assert abs(out[group_slice(layout, feature)].sum() - 1.0) <= 1e-9


def test_04_exhaustive_oracle_equivalence():
    with criterion(4, "miner equals brute-force enumeration"):
        started = time.perf_counter()
        rng = np.random.default_rng(404)
        for _ in range(50):
            table = make_random_table(rng, max_features=8, max_classes=4, max_rows=60)
            min_conf = float(rng.choice([0.5, 0.8, 1.0]))
            cap = int(rng.integers(1, 3))
            itemsets = baseline.mine_frequent(table, 1.0 / table.n_rows)
            via_miner = baseline.rules_from_itemsets(itemsets, table, min_conf, cap)
            via_scan = brute_force_implications(table, min_conf, cap)
            assert set(via_miner) == set(via_scan)
            miner_metrics = {r: (r.support, r.confidence, r.zhang) for r in via_miner}
            scan_metrics = {r: (r.support, r.confidence, r.zhang) for r in via_scan}
            assert miner_metrics == scan_metrics
        assert time.perf_counter() - started < 30.0


def test_05_metric_oracles():
    with criterion(5, "metrics match row-scan oracles"):
        rng = np.random.default_rng(505)
        for _ in range(100):
            table = make_random_table(rng, max_features=6, max_rows=50)
            rule = random_rule(rng, table)
            assert support(rule, table) == oracle_support(rule, table)
            assert confidence(rule, table) == oracle_confidence(rule, table)
            assert rule_coverage(rule, table) == oracle_coverage(rule, table)
            assert zhang(rule, table) == oracle_zhang(rule, table)
            rules = [random_rule(rng, table) for _ in range(3)]
            assert data_coverage(rules, table) == oracle_data_coverage(rules, table)

        probe = Rule(frozenset({Item(0, 0)}), Item(1, 0))
        positive = table_from_rows([[0, 0], [0, 0], [1, 1], [1, 1]])
        independent = table_from_rows([[0, 0], [0, 1], [1, 0], [1, 1]])
        dissociated = table_from_rows([[0, 1], [0, 1], [1, 0], [1, 0]])
        assert zhang(probe, positive) > 0.0
        assert zhang(probe, independent) == 0.0
        assert zhang(probe, dissociated) < 0.0


PLANTED_TRIO = (
    synth.PlantedRule(((0, 0),), (1, 1), 1.0),
    synth.PlantedRule(((0, 1),), (1, 2), 1.0),
    synth.PlantedRule(((0, 2),), (1, 3), 1.0),
)


def test_06_planted_rule_recovery():
    with criterion(6, "planted rules recovered from trained network"):
        started = time.perf_counter()
        spec = synth.SyntheticSpec(
            features=10, classes_per_feature=4, rows=5000, planted=PLANTED_TRIO, seed=42
        )
        table = spec_to_table(spec)
        config = TrainingConfig()
        # training defaults pinned: these are the values every run uses
        assert (config.learning_rate, config.epochs) == (5e-3, 5)
        assert (config.weight_decay, config.noise_factor) == (2e-8, 0.5)
        net = train(one_hot_encode(table), None, config)
        rules = extract_rules(net, ExtractionConfig(0.8, 2))

        planted = [
            Rule(frozenset(Item(f, c) for f, c in r.antecedent), Item(*r.consequent))
            for r in PLANTED_TRIO
        ]
        found = set(rules)
        for rule in planted:
            assert rule in found
            assert confidence(rule, table) >= 0.95
        report = quality.evaluate(rules, table)
        assert report.data_coverage == 1.0
        assert time.perf_counter() - started < 120.0


def test_07_threshold_monotonicity():
    with criterion(7, "rule sets shrink as the threshold rises"):
        spec = synth.SyntheticSpec(
            features=8, classes_per_feature=3, rows=3000,
            planted=(
                synth.PlantedRule(((0, 0),), (1, 1), 1.0),
                synth.PlantedRule(((2, 1), (3, 1)), (4, 0), 1.0),
            ),
            seed=7,
        )
        net = train(one_hot_encode(spec_to_table(spec)), None, TrainingConfig())
        chain = [
            set(extract_rules(net, ExtractionConfig(tau, 2)))
            for tau in (0.5, 0.6, 0.7, 0.8, 0.9)
        ]
        for looser, stricter in zip(chain, chain[1:]):
            assert stricter <= looser
        counts = [len(s) for s in chain]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > 0


def test_08_test_vector_accounting():
    with criterion(8, "probed rows equal the test-vector count"):
        rng = np.random.default_rng(88)
        for _ in range(8):
            counts = tuple(int(c) for c in rng.integers(1, 6, size=rng.integers(2, 7)))
            layout = GroupLayout(counts)
            stub = StubNet(layout, np.full(layout.width, 0.5))
            for cap in (1, 2, 3):
                counting = CountingNet(stub)
                extract_rules(counting, ExtractionConfig(0.8, cap))
                assert counting.calls == count_test_vectors(layout, cap)


def _autoencoder_run(table):
    net = train(one_hot_encode(table), None, TrainingConfig())
    rules = extract_rules(net, ExtractionConfig(0.8, 2))
    return quality.annotate_rules(rules, table), quality.evaluate(rules, table)


def _baseline_run(table, reference_rules):
    threshold = baseline.coupled_support_threshold(reference_rules, table)
    itemsets = baseline.mine_frequent(table, threshold, max_size=3)
    rules = baseline.rules_from_itemsets(itemsets, table, 0.8, 2)
    return quality.evaluate(rules, table)


def test_09_enrichment_direction():
    with criterion(9, "semantics raise support and coverage for both miners"):
        spec = synth.SyntheticSpec(
            features=6, classes_per_feature=3, rows=3000,
            planted=(
                synth.PlantedRule(((0, 0),), (1, 1), 1.0),
                synth.PlantedRule(((0, 1),), (1, 2), 1.0),
            ),
            seed=909, zones=2,
        )
        _, csv_text, graph_text = synth.build_dataset(spec)
        graph, _, binding = load_graph(graph_text)
        series = aggregate(transact.load_sensor_csv(csv_text), spec.window_seconds)

        plain_table = build_transactions(series)
        rich_table = build_transactions(series, Enrichment(graph, binding, depth=1))

        plain_rules, plain_report = _autoencoder_run(plain_table)
        rich_rules, rich_report = _autoencoder_run(rich_table)
        assert plain_report.rule_count > 0 and rich_report.rule_count > 0
        assert rich_report.mean_support >= plain_report.mean_support
        assert rich_report.mean_coverage >= plain_report.mean_coverage

        plain_base = _baseline_run(plain_table, plain_rules)
        rich_base = _baseline_run(rich_table, rich_rules)
        assert plain_base.rule_count > 0 and rich_base.rule_count > 0
        assert rich_base.mean_support >= plain_base.mean_support
        assert rich_base.mean_coverage >= plain_base.mean_coverage


def test_10_end_to_end_determinism(tmp_path):
    with criterion(10, "identical seeds give byte-identical rules"):
        outputs = []
        planted = json.dumps(
            [{"antecedent": [[0, 0]], "consequent": [1, 1], "confidence": 1.0}]
        )
        for name in ("first", "second"):
            root = tmp_path / name
            data, run = root / "data", root / "run"
            assert cli_main([
                "synth", "--out", str(data), "--rows", "1200", "--features", "5",
                "--classes", "3", "--seed", "21", "--planted", planted,
            ]) == 0
            assert cli_main([
                "train", "--sensors", str(data / "sensors.csv"),
                "--graph", str(data / "graph.json"), "--out", str(run),
                "--enrich", "--seed", "21",
            ]) == 0
            assert cli_main([
                "mine", "--sensors", str(data / "sensors.csv"),
                "--graph", str(data / "graph.json"),
                "--model", str(run / "model.json"), "--out", str(run),
            ]) == 0
            outputs.append((run / "rules.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])
