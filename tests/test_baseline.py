from itertools import combinations, product

import numpy as np
import pytest

from semarm.baseline import (
    FrequentItemset,
    brute_force_implications,
    coupled_support_threshold,
    mine_frequent,
    rules_from_itemsets,
)
from semarm.extract import Item, Rule
from semarm.transact import Feature, TransactionTable

from conftest import make_random_table


def powerset_itemsets_oracle(table, min_support):
    """Exhaustive itemset enumeration by direct counting (no pruning)."""
    counts = [len(f.class_values) for f in table.features]
    n = table.n_rows
    found = set()
    for size in range(1, len(counts) + 1):
        for feats in combinations(range(len(counts)), size):
            for classes in product(*(range(counts[f]) for f in feats)):
                hits = 0
                for r in range(n):
                    if all(table.rows[r, f] == c for f, c in zip(feats, classes)):
                        hits += 1
                sup = hits / n
                if sup >= min_support:
                    found.add(
                        FrequentItemset(
                            frozenset(Item(f, c) for f, c in zip(feats, classes)), sup
                        )
                    )
    return found


def table_from_rows(rows):
    rows = np.asarray(rows)
    features = [
        Feature(f"f{i}", "categorical", [f"v{c}" for c in range(int(rows[:, i].max()) + 1)])
        for i in range(rows.shape[1])
    ]
    return TransactionTable(features, rows)


class TestMineFrequent:
    def test_full_support_keeps_universal_itemsets_only(self):
        table = table_from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        itemsets = mine_frequent(table, 1.0)
        expected = {
            frozenset({Item(0, 0)}),
            frozenset({Item(1, 0)}),
            frozenset({Item(0, 0), Item(1, 0)}),
        }
        assert {s.items for s in itemsets} == expected
        assert all(s.support == 1.0 for s in itemsets)

    def test_single_row_table_yields_all_row_subsets(self):
        table = table_from_rows([[0, 1, 0]])
        itemsets = mine_frequent(table, 0.5)
        assert len(itemsets) == 2**3 - 1
        assert all(s.support == 1.0 for s in itemsets)

    def test_matches_powerset_oracle_on_random_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            table = make_random_table(rng, max_features=5, max_classes=3, max_rows=30)
            min_support = float(rng.choice([0.1, 0.25, 0.5]))
            mined = set(mine_frequent(table, min_support))
            assert mined == powerset_itemsets_oracle(table, min_support)
        # row counts at and across the 64-row word boundary of the row bitsets
        for n_rows in (64, 65, 130):
            table = table_from_rows(rng.integers(0, 3, size=(n_rows, 4)))
            for min_support in (0.02, 0.2):
                mined = set(mine_frequent(table, min_support))
                assert mined == powerset_itemsets_oracle(table, min_support)

    def test_downward_closure(self):
        rng = np.random.default_rng(13)
        table = make_random_table(rng, max_features=6, max_classes=3, max_rows=40)
        itemsets = mine_frequent(table, 0.2)
        returned = {s.items for s in itemsets}
        for itemset in returned:
            for item in itemset:
                if len(itemset) > 1:
                    assert itemset - {item} in returned

    def test_max_size_caps_cardinality(self):
        rng = np.random.default_rng(17)
        table = make_random_table(rng, max_features=6, max_classes=3, max_rows=30)
        capped = set(mine_frequent(table, 0.1, max_size=2))
        full = {s for s in mine_frequent(table, 0.1) if len(s.items) <= 2}
        assert capped == full

    def test_threshold_validation(self):
        table = table_from_rows([[0, 0]])
        with pytest.raises(ValueError):
            mine_frequent(table, 0.0)
        with pytest.raises(ValueError):
            mine_frequent(table, 1.5)


class TestRulesFromItemsets:
    def test_certain_pair_rule_included(self):
        table = table_from_rows([[0, 0], [0, 0], [1, 1]])
        itemsets = mine_frequent(table, 0.1)
        rules = rules_from_itemsets(itemsets, table, 0.8, 2)
        assert Rule(frozenset({Item(0, 0)}), Item(1, 0)) in rules

    def test_full_confidence_filters_counterexamples(self):
        table = table_from_rows([[0, 0], [0, 0], [0, 1]])
        itemsets = mine_frequent(table, 0.1)
        rules = rules_from_itemsets(itemsets, table, 1.0, 2)
        assert Rule(frozenset({Item(0, 0)}), Item(1, 0)) not in rules

    def test_equals_brute_force_on_random_tables(self):
        rng = np.random.default_rng(19)
        for _ in range(12):
            table = make_random_table(rng, max_features=5, max_classes=3, max_rows=30)
            min_conf = float(rng.choice([0.5, 0.8, 1.0]))
            cap = int(rng.integers(1, 4))
            itemsets = mine_frequent(table, 1.0 / table.n_rows)
            via_itemsets = set(rules_from_itemsets(itemsets, table, min_conf, cap))
            via_enumeration = set(brute_force_implications(table, min_conf, cap))
            assert via_itemsets == via_enumeration

    def test_attached_metrics_are_exact(self):
        rng = np.random.default_rng(23)
        table = make_random_table(rng, max_features=4, max_rows=20)
        itemsets = mine_frequent(table, 1.0 / table.n_rows)
        from semarm import quality

        for rule in rules_from_itemsets(itemsets, table, 0.5, 2):
            assert rule.support == quality.support(rule, table)
            assert rule.confidence == quality.confidence(rule, table)
            assert rule.zhang == quality.zhang(rule, table)

    def test_rule_shape_constraints(self):
        rng = np.random.default_rng(29)
        table = make_random_table(rng)
        itemsets = mine_frequent(table, 0.05)
        for rule in rules_from_itemsets(itemsets, table, 0.3, 2):
            assert 1 <= len(rule.antecedent) <= 2
            feats = [i.feature for i in rule.antecedent]
            assert len(set(feats)) == len(feats)
            assert rule.consequent.feature not in feats


class TestBruteForce:
    def test_planted_certain_implication_found(self):
        table = table_from_rows([[0, 2, 1], [0, 2, 0], [1, 1, 1]])
        rules = brute_force_implications(table, 1.0, 1)
        assert Rule(frozenset({Item(0, 0)}), Item(1, 2)) in rules

    def test_empty_table_gives_no_rules(self):
        table = TransactionTable(
            [Feature("f0", "categorical", ["a"]), Feature("f1", "categorical", ["b"])],
            np.zeros((0, 2), dtype=np.int64),
        )
        assert brute_force_implications(table, 0.5, 2) == []

    def test_guard_rejects_huge_enumerations(self):
        features = [
            Feature(f"f{i}", "categorical", [f"v{c}" for c in range(4)]) for i in range(30)
        ]
        table = TransactionTable(features, np.zeros((1, 30), dtype=np.int64))
        with pytest.raises(ValueError, match="guard"):
            brute_force_implications(table, 0.5, 4)


class TestCoupledThreshold:
    def test_mean_over_two_rules(self):
        # supports: f0=v0 & f1=v0 in 2/5 rows -> 0.4; f0=v1 & f1=v1 in 3/5 -> 0.6
        table = table_from_rows([[0, 0], [0, 0], [1, 1], [1, 1], [1, 1]])
        rules = [
            Rule(frozenset({Item(0, 0)}), Item(1, 0)),
            Rule(frozenset({Item(0, 1)}), Item(1, 1)),
        ]
        assert coupled_support_threshold(rules, table) == 0.25

    def test_single_rule(self):
        table = table_from_rows([[0, 0], [0, 0], [1, 1], [0, 1]])
        rule = Rule(frozenset({Item(0, 0)}), Item(1, 0))
        assert coupled_support_threshold([rule], table) == 0.25

    def test_empty_rule_list_rejected(self):
        with pytest.raises(ValueError):
            coupled_support_threshold([], table_from_rows([[0, 0]]))

    def test_matches_hand_recomputation(self):
        rng = np.random.default_rng(31)
        table = make_random_table(rng)
        from semarm import quality

        rules = []
        for _ in range(5):
            feats = rng.choice(table.n_features, size=2, replace=False)
            items = [
                Item(int(f), int(rng.integers(0, len(table.features[int(f)].class_values))))
                for f in feats
            ]
            rules.append(Rule(frozenset(items[:1]), items[1]))
        expected = sum(quality.support(r, table) for r in rules) / len(rules) / 2
        assert coupled_support_threshold(rules, table) == expected
