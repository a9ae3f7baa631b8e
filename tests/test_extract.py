import json
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semarm.autonet import TrainingConfig, train
from semarm.extract import (
    ExtractionConfig,
    Item,
    Rule,
    RuleSet,
    equal_prob_vector,
    extract_rules,
    rule_to_doc,
    rules_from_json,
    rules_to_json,
)
from semarm.synth import PlantedRule, SyntheticSpec
from semarm.transact import Feature, GroupLayout, one_hot_encode

from conftest import JSON_NUMBERS, JSON_TEXT, many_rules, rule_lists
from oracles import (
    brute_force_implications,
    count_test_vectors,
    generate_test_vectors,
    group_slice,
    oracle_rules_from_json,
    rule_set,
    spec_to_table,
)


class StubNet:
    """Network double returning a fixed output for every probe."""

    class _Shape:
        def __init__(self, layout):
            self.group_layout = layout

    def __init__(self, layout, output):
        self.shape = self._Shape(layout)
        self.output = np.asarray(output, dtype=np.float64)
        self.calls = 0
        self.inputs = []

    def forward(self, vector):
        self.calls += 1
        self.inputs.append(np.array(vector))
        return self.output

    def forward_batch(self, batch):
        return np.array([self.forward(row) for row in batch])


class CountingNet:
    """Counts the rows probed, one per ``forward`` call and one per batch row."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    @property
    def shape(self):
        return self.inner.shape

    def forward(self, vector):
        self.calls += 1
        return self.inner.forward(vector)

    def forward_batch(self, batch):
        self.calls += len(batch)
        return self.inner.forward_batch(batch)


class TestEqualProbVector:
    def test_two_and_three_classes(self):
        vec = equal_prob_vector(GroupLayout((2, 3)))
        np.testing.assert_array_equal(vec, [0.5, 0.5, 1 / 3, 1 / 3, 1 / 3])

    def test_single_class_feature(self):
        np.testing.assert_array_equal(equal_prob_vector(GroupLayout((1,))), [1.0])

    def test_four_classes(self):
        np.testing.assert_array_equal(equal_prob_vector(GroupLayout((4,))), [0.25] * 4)


class TestGenerateTestVectors:
    def test_marking_first_feature(self):
        vectors = generate_test_vectors(GroupLayout((2, 3)), (0,))
        assert len(vectors) == 2
        vec, items = vectors[0]
        np.testing.assert_array_equal(vec, [1.0, 0.0, 1 / 3, 1 / 3, 1 / 3])
        assert items == (Item(0, 0),)

    def test_pair_subset_yields_cartesian_product(self):
        vectors = generate_test_vectors(GroupLayout((2, 3)), (0, 1))
        assert len(vectors) == 6
        marked = {tuple(i.class_index for i in items) for _, items in vectors}
        assert marked == {(a, b) for a in range(2) for b in range(3)}

    def test_marked_feature_is_one_hot(self):
        layout = GroupLayout((2, 3, 4))
        for vec, items in generate_test_vectors(layout, (0, 2)):
            for item in items:
                block = vec[group_slice(layout, item.feature)]
                assert block.sum() == 1.0
                assert block[item.class_index] == 1.0

    def test_empty_or_duplicated_subset_rejected(self):
        layout = GroupLayout((2, 2))
        with pytest.raises(ValueError):
            generate_test_vectors(layout, ())
        with pytest.raises(ValueError):
            generate_test_vectors(layout, (0, 0))


def enumerate_count(counts, cap):
    total = 0
    for size in range(1, min(cap, len(counts)) + 1):
        for subset in combinations(range(len(counts)), size):
            prod = 1
            for f in subset:
                prod *= counts[f]
            total += prod
    return total


class TestCountTestVectors:
    def test_small_layout(self):
        assert count_test_vectors(GroupLayout((2, 3)), 2) == 11

    def test_single_feature(self):
        assert count_test_vectors(GroupLayout((7,)), 1) == 7

    def test_uniform_closed_form(self):
        assert count_test_vectors(GroupLayout((3,) * 6), 1) == 18

    def test_matches_enumeration_on_random_layouts(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            counts = tuple(int(c) for c in rng.integers(1, 5, size=rng.integers(1, 7)))
            for cap in (1, 2, 3):
                assert count_test_vectors(GroupLayout(counts), cap) == enumerate_count(counts, cap)


STUB_LAYOUT = GroupLayout((2, 3))
STUB_OUTPUT = [0.8, 0.2, 0.9, 0.04, 0.06]


class TestExtractRules:
    def test_stubbed_probe_emits_single_rule(self):
        net = StubNet(STUB_LAYOUT, STUB_OUTPUT)
        rules = extract_rules(net, ExtractionConfig(0.8, 2))
        assert list(rules) == [Rule(frozenset({Item(0, 0)}), Item(1, 0))]
        first_marked = net.inputs[0]
        np.testing.assert_array_equal(first_marked, [1.0, 0.0, 1 / 3, 1 / 3, 1 / 3])

    def test_marked_gate_is_inclusive_consequent_gate_exclusive(self):
        # marked slot exactly at the threshold passes; a consequent exactly
        # at the threshold does not
        net = StubNet(STUB_LAYOUT, STUB_OUTPUT)
        rules = extract_rules(net, ExtractionConfig(0.8, 1))
        assert Rule(frozenset({Item(0, 0)}), Item(1, 0)) in rules
        assert Rule(frozenset({Item(1, 0)}), Item(0, 0)) not in rules

    def test_tau_one_on_interior_outputs_gives_no_rules(self):
        net = StubNet(STUB_LAYOUT, [0.9, 0.1, 0.95, 0.03, 0.02])
        assert list(extract_rules(net, ExtractionConfig(1.0, 2))) == []

    def test_rules_are_deduplicated(self):
        net = StubNet(GroupLayout((2, 2, 2)), [0.9, 0.1, 0.9, 0.1, 0.9, 0.1])
        rules = extract_rules(net, ExtractionConfig(0.8, 2))
        assert len(rules) == len(set(rules))

    def test_forward_pass_count_matches_accounting(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            counts = tuple(int(c) for c in rng.integers(1, 5, size=rng.integers(2, 6)))
            layout = GroupLayout(counts)
            net = CountingNet(StubNet(layout, equal_prob_vector(layout)))
            for cap in (1, 2, 3):
                net.calls = 0
                extract_rules(net, ExtractionConfig(0.8, cap))
                assert net.calls == count_test_vectors(layout, cap)

    def test_markable_constraint_restricts_antecedents(self):
        layout = GroupLayout((2, 2, 2))
        net = StubNet(layout, [0.9, 0.1, 0.9, 0.1, 0.9, 0.1])
        rules = extract_rules(net, ExtractionConfig(0.8, 2, markable_features=frozenset({0})))
        assert rules
        assert all({i.feature for i in r.antecedent} == {0} for r in rules)

    def test_markable_constraint_out_of_range_rejected(self):
        net = StubNet(GroupLayout((2, 2)), [0.9, 0.1, 0.9, 0.1])
        with pytest.raises(ValueError):
            extract_rules(net, ExtractionConfig(0.8, 1, markable_features=frozenset({5})))

    def test_consequent_never_among_antecedent_features(self):
        net = StubNet(GroupLayout((2, 3, 2)), [0.9, 0.1, 0.85, 0.1, 0.05, 0.82, 0.18])
        for rule in extract_rules(net, ExtractionConfig(0.8, 2)):
            assert rule.consequent.feature not in {i.feature for i in rule.antecedent}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExtractionConfig(similarity_threshold=0.0)
        with pytest.raises(ValueError):
            ExtractionConfig(similarity_threshold=1.2)
        with pytest.raises(ValueError):
            ExtractionConfig(max_antecedents=0)


from functools import lru_cache


@lru_cache(maxsize=2)
def trained_bijection_net(seed=0):
    """Net trained on data where s00's class determines s01's class."""
    spec = SyntheticSpec(
        features=5,
        classes_per_feature=3,
        rows=2000,
        planted=(
            PlantedRule(((0, 0),), (1, 1)),
            PlantedRule(((0, 1),), (1, 2)),
        ),
        seed=seed,
    )
    table = spec_to_table(spec)
    matrix = one_hot_encode(table)
    net = train(matrix, None, TrainingConfig(rng_seed=seed))
    return net, table


class TestExtractionOnTrainedNet:
    def test_learned_implication_matches_exhaustive_scan(self):
        net, table = trained_bijection_net()
        rules = set(extract_rules(net, ExtractionConfig(0.8, 2)))
        assert Rule(frozenset({Item(0, 0)}), Item(1, 1)) in rules
        # every confidence-1.0 single-antecedent implication over the planted
        # pair should also be found by a direct scan of the training data
        certain = {
            r
            for r in brute_force_implications(table, 1.0, 1)
            if {r.consequent.feature} | {i.feature for i in r.antecedent} == {0, 1}
        }
        assert certain <= rules

    def test_threshold_monotonicity_on_fixed_net(self):
        net, _ = trained_bijection_net()
        previous = None
        for tau in (0.9, 0.8, 0.7, 0.6, 0.5):
            current = set(extract_rules(net, ExtractionConfig(tau, 2)))
            if previous is not None:
                assert previous <= current
            previous = current

    def test_antecedent_cap_monotonicity(self):
        net, _ = trained_bijection_net()
        for tau in (0.8, 0.6):
            small = set(extract_rules(net, ExtractionConfig(tau, 1)))
            large = set(extract_rules(net, ExtractionConfig(tau, 2)))
            assert small <= large

    def test_extraction_is_deterministic(self):
        net, _ = trained_bijection_net()
        config = ExtractionConfig(0.7, 2)
        assert list(extract_rules(net, config)) == list(extract_rules(net, config))


class TestRuleModel:
    def test_rule_invariants_enforced(self):
        layout = GroupLayout((2, 2))
        with pytest.raises(ValueError, match="antecedent must be non-empty"):
            rule_set([Rule(frozenset(), Item(0, 0))], layout)
        with pytest.raises(ValueError, match="consequent feature may not appear"):
            rule_set([Rule(frozenset({Item(0, 0)}), Item(0, 1))], layout)
        with pytest.raises(ValueError, match="distinct features"):
            rule_set([Rule(frozenset({Item(0, 0), Item(0, 1)}), Item(1, 0))], layout)

    def test_metrics_do_not_affect_identity(self):
        bare = Rule(frozenset({Item(0, 0)}), Item(1, 0))
        annotated = Rule(frozenset({Item(0, 0)}), Item(1, 0), support=0.5, confidence=1.0)
        assert bare == annotated
        assert hash(bare) == hash(annotated)

    def test_json_round_trip(self):
        features = [
            Feature("s1", "categorical", ["a", "b"]),
            Feature("s2", "categorical", ["c", "d", "e"]),
        ]
        rules = [
            Rule(frozenset({Item(0, 0)}), Item(1, 2), support=0.25, confidence=1.0, zhang=1.0),
            Rule(frozenset({Item(1, 1)}), Item(0, 1), support=0.5, confidence=0.5, zhang=-0.5),
        ]
        text = "".join(rules_to_json(rule_set(rules, GroupLayout.of(features)), features))
        assert [doc["support"] for doc in json.loads(text)] == [0.25, 0.5]
        parsed = rules_from_json(text, features)
        assert list(parsed) == rules
        assert (parsed.support, parsed.confidence, parsed.zhang, parsed.coverage) == (None,) * 4

    def test_json_with_unknown_feature_rejected(self):
        features = [Feature("s1", "categorical", ["a", "b"])]
        text = '[{"antecedent": [{"feature": "ghost", "class": "a"}], "consequent": {"feature": "s1", "class": "a"}}]'
        with pytest.raises(ValueError):
            rules_from_json(text, features)

    def test_rules_from_json_rejects_unknown_class(self):
        features = [Feature("s1", "categorical", ["a"]), Feature("s2", "categorical", ["b"])]
        doc = {"antecedent": [{"feature": "s1", "class": "z"}],
               "consequent": {"feature": "s2", "class": "b"}}
        with pytest.raises(ValueError, match="unknown feature or class"):
            rules_from_json(json.dumps([doc]), features)

    @pytest.mark.parametrize("antecedent, consequent, message", [
        ([{"feature": "s1", "class": "a"}], {"feature": "s1", "class": "b"},
         "consequent feature may not appear in the antecedent"),
        ([], {"feature": "s2", "class": "c"}, "antecedent must be non-empty"),
        ([{"feature": "ghost", "class": "a"}], {"feature": "s2", "class": "c"},
         "unknown feature or class in rule document"),
    ], ids=["consequent-in-antecedent", "empty-antecedent", "unknown-feature"])
    def test_rules_from_json_errors_name_the_document_and_rule(self, antecedent, consequent,
                                                               message):
        features = [Feature("s1", "categorical", ["a", "b"]), Feature("s2", "categorical", ["c"])]
        valid = {"antecedent": [{"feature": "s1", "class": "a"}],
                 "consequent": {"feature": "s2", "class": "c"}}
        text = json.dumps([valid, {"antecedent": antecedent, "consequent": consequent}])
        with pytest.raises(ValueError, match=f"^{re.escape(f'rules f.json: rule 1: {message}')}"):
            rules_from_json(text, features, "rules f.json")


class TestRulesJsonWriter:
    @given(rule_lists())
    @example(([], []))
    @settings(max_examples=120, deadline=None)
    def test_bytes_equal_json_dumps_of_the_documents(self, drawn):
        features, rules = drawn
        expected = json.dumps([rule_to_doc(r, features) for r in rules], indent=2, sort_keys=True)
        assert "".join(rules_to_json(rule_set(rules, GroupLayout.of(features)), features)) == expected

    @given(rule_lists())
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, drawn):
        features, rules = drawn
        columns = rule_set(rules, GroupLayout.of(features))
        parsed = rules_from_json("".join(rules_to_json(columns, features)), features)
        assert isinstance(parsed, RuleSet)
        assert parsed.antecedents.tolist() == columns.antecedents.tolist()
        assert parsed.consequents.tolist() == columns.consequents.tolist()
        assert list(parsed) == rules
        assert (parsed.support, parsed.confidence, parsed.zhang, parsed.coverage) == (None,) * 4


    def test_a_large_rule_set_streams_in_bounded_chunks(self):
        features, rules = many_rules()
        chunks = list(rules_to_json(rules, features))
        assert len(chunks) > 1
        # a chunk ends on a document boundary, and a document is one fragment
        # per key (antecedent, consequent, three metrics) and one to close it
        per_document = 5 + 1
        documents = [chunk.count('"antecedent": [') for chunk in chunks]
        assert sum(documents) == len(rules)
        assert all(0 < count * per_document <= 4096 for count in documents)
        expected = json.dumps([rule_to_doc(r, features) for r in rules], indent=2, sort_keys=True)
        assert "".join(chunks) == expected


FAULTS = ("unknown-feature", "unknown-class", "unhashable-name", "missing-item-key",
          "missing-rule-key", "wrong-kind", "empty-antecedent", "repeated-feature",
          "repeated-item", "consequent-in-antecedent", "shuffled-items", "odd-metric")
ODD_VALUES = st.sampled_from([None, "x", True, 1, [1], ["x"], {"a": 1}])


@st.composite
def rule_documents(draw):
    """(features, text): a rules document of drawn rules in which each
    document may carry one drawn fault or reshaping."""
    features, rules = draw(rule_lists())
    names = [f.name for f in features]

    def item_doc(feature):
        values = features[feature].class_values
        return {"feature": names[feature], "class": draw(st.sampled_from(values))}

    docs = []
    for rule in rules:
        doc = rule_to_doc(rule, features)
        items = doc["antecedent"]
        target = draw(st.sampled_from([*items, doc["consequent"]]))
        fault = draw(st.none() | st.sampled_from(FAULTS))
        if fault == "unknown-feature":
            target["feature"] = draw(JSON_TEXT.filter(lambda name: name not in names))
        elif fault == "unknown-class":
            target["class"] = draw(JSON_TEXT)
        elif fault == "unhashable-name":
            target[draw(st.sampled_from(["feature", "class"]))] = draw(st.sampled_from([["x"], {}]))
        elif fault == "missing-item-key":
            del target[draw(st.sampled_from(["feature", "class"]))]
        elif fault == "missing-rule-key":
            del doc[draw(st.sampled_from(["antecedent", "consequent"]))]
        elif fault == "wrong-kind":
            where = draw(st.sampled_from(["rule", "antecedent", "item", "consequent"]))
            if where == "rule":
                doc = draw(ODD_VALUES)
            elif where == "item":
                items[0] = draw(ODD_VALUES)
            else:
                doc[where] = draw(ODD_VALUES)
        elif fault == "empty-antecedent":
            doc["antecedent"] = []
        elif fault == "repeated-feature":
            items.append(item_doc(draw(st.sampled_from(sorted(rule.antecedent))).feature))
        elif fault == "repeated-item":
            items.append(dict(draw(st.sampled_from(items))))
        elif fault == "consequent-in-antecedent":
            items.append(item_doc(rule.consequent.feature))
        elif fault == "shuffled-items":
            doc["antecedent"] = draw(st.permutations(items))
        elif fault == "odd-metric":
            doc[draw(st.sampled_from(["support", "confidence", "zhang"]))] = draw(
                ODD_VALUES | JSON_NUMBERS)
        docs.append(doc)
    return features, json.dumps(docs)


TWO_FEATURES = [Feature("s1", "categorical", ["a", "b"]), Feature("s2", "categorical", ["c"])]
S1_A, S1_B, S2_C = ({"feature": f, "class": c} for f, c in (("s1", "a"), ("s1", "b"), ("s2", "c")))


class TestRulesFromJsonMatchesOracle:
    @given(rule_documents())
    @example((TWO_FEATURES, '{"rules": []}'))
    @example((TWO_FEATURES, "[\n"))
    @example((TWO_FEATURES, json.dumps([{"antecedent": [S1_A, S1_A], "consequent": S2_C}])))
    @example((TWO_FEATURES, json.dumps([{"antecedent": [S1_A, S1_B], "consequent": S2_C},
                                        {"antecedent": [{"feature": "x", "class": "a"}],
                                         "consequent": S2_C}])))
    @example((TWO_FEATURES, json.dumps([{"antecedent": [S1_A], "consequent": S2_C},
                                        {"antecedent": [S2_C, {"feature": "x"}],
                                         "consequent": S1_A}])))
    @example((TWO_FEATURES, json.dumps([{"antecedent": [{"feature": "x", "class": "a"}],
                                         "consequent": {"feature": "y", "class": "c"}}])))
    @settings(max_examples=100, deadline=None)
    def test_same_rules_or_same_message(self, drawn):
        """The columnar reader gives the oracle's rules in order, or fails with
        the oracle's message."""
        features, text = drawn
        try:
            expected = oracle_rules_from_json(text, features, "rules f.json")
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                rules_from_json(text, features, "rules f.json")
            assert str(raised.value) == str(exc)
            return
        got = rules_from_json(text, features, "rules f.json")
        assert isinstance(got, RuleSet)
        assert list(got) == expected
        columns = rule_set(expected, GroupLayout.of(features))
        assert got.antecedents.tolist() == columns.antecedents.tolist()
        assert got.consequents.tolist() == columns.consequents.tolist()
