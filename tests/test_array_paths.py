"""The columnar rule paths against the object-path oracles they replaced:
the same rules in the same order, the same metric bits, and the same probe
vectors."""

import json

import numpy as np
import pytest

from semarm import baseline, quality
from semarm.baseline import mine_frequent, rules_from_itemsets
from semarm.extract import (
    ExtractionConfig,
    Item,
    Rule,
    RuleSet,
    extract_rules,
    rule_to_doc,
    rules_to_json,
)
from semarm.quality import RuleQualityReport, _count_pass, report_to_doc, report_to_json
from semarm.transact import Feature, GroupLayout, TransactionTable

from oracles import (
    oracle_count_pass,
    oracle_extract_rules,
    oracle_mine_frequent,
    oracle_rules_from_itemsets,
    rule_set,
)
from test_extract import trained_bijection_net
from test_quality import kernel_rules, kernel_table


class ScriptedNet:
    """Network double answering the i-th probe with ``outputs[i % len]``, and
    recording every probe."""

    class _Shape:
        def __init__(self, layout):
            self.group_layout = layout

    def __init__(self, layout, outputs):
        self.shape = self._Shape(layout)
        self.outputs = outputs
        self.inputs = []

    def forward(self, vector):
        self.inputs.append(np.array(vector))
        return self.outputs[(len(self.inputs) - 1) % len(self.outputs)]

    def forward_batch(self, batch):
        return np.array([self.forward(row) for row in batch])


class RecordingNet:
    def __init__(self, inner):
        self.inner = inner
        self.inputs = []

    @property
    def shape(self):
        return self.inner.shape

    def forward(self, vector):
        self.inputs.append(np.array(vector))
        return self.inner.forward(vector)

    def forward_batch(self, batch):
        self.inputs.extend(np.array(row) for row in batch)
        return self.inner.forward_batch(batch)


def probe_both(make_net, config):
    """(array-path rules, oracle rules), after checking both paths sent the
    same vectors, bit for bit, in the same order."""
    net, reference = make_net(), make_net()
    rules = extract_rules(net, config)
    expected = oracle_extract_rules(reference, config)
    assert len(net.inputs) == len(reference.inputs)
    for got, want in zip(net.inputs, reference.inputs):
        assert got.tobytes() == want.tobytes()
    return rules, expected


def scripted_outputs(rng, layout, tau, n):
    """Probe outputs drawn from values at, just above and just below the
    threshold, with frequent ties within a group; a single-class group
    outputs 1.0, as its softmax does."""
    palette = [0.0, 0.25, np.nextafter(tau, 0.0), tau, np.nextafter(tau, 2.0), 0.95, 1.0]
    outputs = rng.choice(palette, size=(n, layout.width))
    single = np.repeat(np.asarray(layout.class_counts) == 1, layout.class_counts)
    outputs[:, single] = 1.0
    return list(outputs)


class TestExtractionMatchesOracle:
    def test_scripted_outputs(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            counts = tuple(int(c) for c in rng.integers(1, 4, size=rng.integers(1, 6)))
            layout = GroupLayout(counts)
            tau = float(rng.choice([0.5, 0.8, 1.0]))
            outputs = scripted_outputs(rng, layout, tau, int(rng.integers(1, 9)))
            markable = None
            if rng.random() < 0.3:
                markable = frozenset(int(f) for f in np.flatnonzero(rng.random(len(counts)) < 0.6))
            config = ExtractionConfig(tau, int(rng.integers(1, 4)), markable_features=markable)
            rules, expected = probe_both(lambda: ScriptedNet(layout, outputs), config)
            assert isinstance(rules, RuleSet)
            assert list(rules) == expected

    def test_the_threshold_edges_and_ties_are_kept(self):
        # marked slot exactly at tau passes, consequent exactly at tau does
        # not, and of tied group maxima the lowest class wins
        layout = GroupLayout((2, 3, 1))
        outputs = [np.array([0.8, 0.2, 0.45, 0.45, 0.1, 1.0]),
                   np.array([0.9, 0.9, 0.8, 0.1, 0.1, 1.0])]
        for cap in (1, 2):
            rules, expected = probe_both(lambda: ScriptedNet(layout, outputs),
                                         ExtractionConfig(0.8, cap))
            assert list(rules) == expected
        assert Rule(frozenset({Item(2, 0)}), Item(0, 0)) in rules
        assert Rule(frozenset({Item(0, 0)}), Item(2, 0)) in rules
        assert all(r.consequent != Item(1, 0) for r in rules)

    @pytest.mark.parametrize("markable", [None, frozenset({0, 2})])
    def test_trained_net(self, markable):
        net, _ = trained_bijection_net()
        for tau in (0.5, 0.8, 0.9):
            for cap in (1, 2, 3):
                config = ExtractionConfig(tau, cap, markable_features=markable)
                rules, expected = probe_both(lambda: RecordingNet(net), config)
                assert list(rules) == expected


def metric_bits(rules):
    return [(r, *(repr(getattr(r, key)) for key in ("support", "confidence", "zhang", "coverage")))
            for r in rules]


def miner_table(rng, n_rows, n_single):
    """Random table with ``n_single`` single-class features among 0-4
    features of 2-3 classes."""
    counts = [1] * n_single + [int(c) for c in rng.integers(2, 4, size=rng.integers(0, 5))]
    counts = [int(c) for c in rng.permutation(counts)] or [2]
    features = [Feature(f"f{i}", "categorical", [f"v{c}" for c in range(k)])
                for i, k in enumerate(counts)]
    rows = np.column_stack([rng.integers(0, k, size=n_rows) for k in counts])
    return TransactionTable(features, rows.reshape(n_rows, len(counts)))


class TestMinerMatchesOracle:
    @pytest.mark.parametrize("n_rows", [5, 63, 64, 65, 130])
    def test_itemsets_and_rules(self, monkeypatch, n_rows):
        monkeypatch.setattr(baseline, "_CHUNK", 7)  # candidates span several counting steps
        rng = np.random.default_rng(n_rows)
        for n_single in (0, 1, 4):
            table = miner_table(rng, n_rows, n_single)
            for min_support, max_size in ((0.05, None), (0.2, 3), (1.0, None)):
                itemsets = mine_frequent(table, min_support, max_size)
                expected = oracle_mine_frequent(table, min_support, max_size)
                assert list(itemsets) == expected
                assert [s.support for s in itemsets] == [s.support for s in expected]
                for min_conf, cap in ((0.0, 1), (0.5, 2), (1.0, 3)):
                    rules = rules_from_itemsets(itemsets, table, min_conf, cap)
                    want = oracle_rules_from_itemsets(expected, table, min_conf, cap)
                    assert metric_bits(rules) == metric_bits(want)


def test_row_lookup_holds_rows_no_int64_key_can():
    # 12 slots of up to 2**20: a positional key would need 240 bits
    rng = np.random.default_rng(67)
    rows = np.unique(rng.integers(0, 2**20, size=(300, 12)), axis=0)
    rows[::7, 3:] = 0  # shared prefixes and zero slots
    rows = np.unique(rows, axis=0)
    queries = np.concatenate([rows[rng.permutation(len(rows))[:100]],
                              rng.integers(0, 2**20, size=(100, 12))])
    index = baseline._row_index(rows, queries)
    known = {tuple(row): i for i, row in enumerate(rows.tolist())}
    assert index.tolist() == [known.get(tuple(q), -1) for q in queries.tolist()]


class TestCountingMatchesOracle:
    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    def test_counts_at_every_chunk_size(self, monkeypatch, chunk):
        monkeypatch.setattr(quality, "_CHUNK", chunk)
        rng = np.random.default_rng(61)
        for _ in range(25):
            table = kernel_table(rng)
            rules = kernel_rules(rng, table)
            n_x, n_xy, n_y, covered = _count_pass(rule_set(rules, table.layout()), table)
            o_x, o_xy, o_y, o_covered = oracle_count_pass(rules, table)
            assert (n_x.tolist(), n_xy.tolist(), n_y.tolist(), covered) == (
                o_x.tolist(), o_xy.tolist(), o_y.tolist(), o_covered)


MEMO_FEATURES = [
    Feature("a", "categorical", ["x", "y"]),
    Feature("b", "categorical", ["z"]),
]
# Equal values that print apart (0.0 and -0.0), values JSON cannot hold
# exactly, and values shared across columns are each rendered once by bit
# pattern and must still print as json.dumps prints them.
MEMO_METRICS = {
    "support": [-0.0, 0.0, 1.0, float("nan"), float("inf"), -0.0],
    "confidence": [1.0, 1.0, 1.0, float(2**53 + 1), 0.0, -0.0],
    "zhang": [0.0, -0.0, float("-inf"), 0.0, 1.0, float("nan")],
    "coverage": [1.0, 1.0, 1.0, -0.0, 0.0, float(2**53 + 1)],
}


def memo_rules():
    antecedents = [Item(0, 0), Item(0, 1), Item(1, 0), Item(0, 0), Item(1, 0), Item(0, 1)]
    consequents = [Item(1, 0), Item(1, 0), Item(0, 1), Item(1, 0), Item(0, 0), Item(1, 0)]
    return [
        Rule(frozenset({a}), c, **{key: values[i] for key, values in MEMO_METRICS.items()})
        for i, (a, c) in enumerate(zip(antecedents, consequents))
    ]


class TestNumberMemo:
    def test_values_equal_under_eq_are_rendered_apart(self):
        rules = memo_rules()
        docs = [rule_to_doc(r, MEMO_FEATURES) for r in rules]
        rules = rule_set(rules, GroupLayout.of(MEMO_FEATURES))
        assert "".join(rules_to_json(rules, MEMO_FEATURES)) == json.dumps(docs, indent=2,
                                                                  sort_keys=True)
        report = RuleQualityReport(rules, len(rules), 0.0, -0.0, 1, True, 2**53 + 1)
        expected = json.dumps(report_to_doc(report, MEMO_FEATURES), indent=2, sort_keys=True)
        assert "".join(report_to_json(report, MEMO_FEATURES)) == expected
