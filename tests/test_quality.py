import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semarm.extract import Item, Rule, rules_from_json
from semarm.quality import (
    REPORT_SCHEMA,
    RuleQualityReport,
    annotate_rules,
    evaluate,
    format_report,
    report_to_doc,
    report_to_json,
)
from semarm.transact import Feature, GroupLayout, TransactionTable

from conftest import (
    JSON_NUMBERS,
    JSON_TEXT,
    METRIC_VALUES,
    make_random_table,
    many_rules,
    rule_lists,
)
from oracles import (
    confidence,
    data_coverage,
    oracle_format_report,
    rule_counts,
    rule_coverage,
    rule_set,
    support,
    zhang,
)


# --- independent row-scan oracles: pure-python loops over rendered rows ---

def row_has(table, row_index, item):
    return table.rows[row_index, item.feature] == item.class_index


def oracle_support(rule, table):
    hits = 0
    for r in range(table.n_rows):
        if all(row_has(table, r, i) for i in rule.antecedent) and row_has(table, r, rule.consequent):
            hits += 1
    return hits / table.n_rows


def oracle_confidence(rule, table):
    n_x = n_xy = 0
    for r in range(table.n_rows):
        if all(row_has(table, r, i) for i in rule.antecedent):
            n_x += 1
            if row_has(table, r, rule.consequent):
                n_xy += 1
    return n_xy / n_x if n_x else 0.0


def oracle_coverage(rule, table):
    n_x = sum(
        1
        for r in range(table.n_rows)
        if all(row_has(table, r, i) for i in rule.antecedent)
    )
    return n_x / table.n_rows


def oracle_data_coverage(rules, table):
    covered = 0
    for r in range(table.n_rows):
        if any(all(row_has(table, r, i) for i in rule.antecedent) for rule in rules):
            covered += 1
    return covered / table.n_rows


def oracle_counts(rule, table):
    n_x = n_xy = n_y = 0
    for r in range(table.n_rows):
        x = all(row_has(table, r, i) for i in rule.antecedent)
        y = row_has(table, r, rule.consequent)
        n_x += x
        n_y += y
        n_xy += x and y
    return n_x, n_xy, n_y


def oracle_zhang(rule, table):
    n = table.n_rows
    n_x = n_xy = n_y = 0
    for r in range(n):
        x = all(row_has(table, r, i) for i in rule.antecedent)
        y = row_has(table, r, rule.consequent)
        n_x += x
        n_y += y
        n_xy += x and y
    if n_x == n:
        return 0.0
    conf_x = n_xy / n_x if n_x else 0.0
    conf_not = (n_y - n_xy) / (n - n_x)
    denom = max(conf_x, conf_not)
    return (conf_x - conf_not) / denom if denom else 0.0


def random_rule(rng, table):
    n_ante = int(rng.integers(1, min(3, table.n_features - 1) + 1))
    feats = rng.choice(table.n_features, size=n_ante + 1, replace=False)
    items = [
        Item(int(f), int(rng.integers(0, len(table.features[int(f)].class_values))))
        for f in feats
    ]
    return Rule(frozenset(items[:-1]), items[-1])


def evaluate_rules(rules, table):
    """``evaluate`` of a list of ``Rule``s."""
    return evaluate(rule_set(rules, table.layout()), table)


def table_from_rows(rows):
    """Tiny categorical table from explicit class-index rows."""
    rows = np.asarray(rows)
    features = [
        Feature(f"f{i}", "categorical", [f"v{c}" for c in range(int(rows[:, i].max()) + 1)])
        for i in range(rows.shape[1])
    ]
    return TransactionTable(features, rows)


X = Item(0, 0)
Y = Item(1, 0)
RULE = Rule(frozenset({X}), Y)


class TestBasicMetrics:
    def test_support_zero_when_items_never_cooccur(self):
        table = table_from_rows([[0, 1], [1, 0], [1, 1]])
        assert support(RULE, table) == 0.0

    def test_support_direct_count(self):
        table = table_from_rows([[0, 0], [0, 0], [1, 0], [0, 1]])
        assert support(RULE, table) == 0.5

    def test_confidence_certain(self):
        table = table_from_rows([[0, 0], [0, 0], [1, 1]])
        assert confidence(RULE, table) == 1.0

    def test_confidence_three_quarters(self):
        table = table_from_rows([[0, 0], [0, 0], [0, 0], [0, 1]])
        assert confidence(RULE, table) == 0.75

    def test_confidence_zero_when_antecedent_absent(self):
        table = table_from_rows([[1, 0], [1, 1]])
        assert confidence(RULE, table) == 0.0

    def test_rule_coverage_bounds(self):
        everywhere = table_from_rows([[0, 0], [0, 1]])
        assert rule_coverage(RULE, everywhere) == 1.0
        nowhere = table_from_rows([[1, 0], [1, 1]])
        assert rule_coverage(RULE, nowhere) == 0.0

    def test_data_coverage_empty_rules(self):
        assert data_coverage([], table_from_rows([[0, 0]])) == 0.0

    def test_data_coverage_partition(self):
        table = table_from_rows([[0, 0], [0, 1], [1, 0], [1, 1]])
        rules = [RULE, Rule(frozenset({Item(0, 1)}), Y)]
        assert data_coverage(rules, table) == 1.0


class TestZhang:
    def test_perfect_cooccurrence_is_one(self):
        table = table_from_rows([[0, 0], [0, 0], [1, 1], [1, 1]])
        assert zhang(RULE, table) == 1.0

    def test_independence_is_zero(self):
        # Y holds at the same rate with and without X
        table = table_from_rows([[0, 0], [0, 1], [1, 0], [1, 1]])
        assert zhang(RULE, table) == 0.0

    def test_dissociation_is_negative(self):
        # Y mostly appears without X
        table = table_from_rows([[0, 1], [0, 1], [1, 0], [1, 0]])
        assert zhang(RULE, table) < 0.0

    def test_antecedent_covering_all_rows_returns_zero(self):
        table = table_from_rows([[0, 0], [0, 1]])
        assert zhang(RULE, table) == 0.0

    def test_range_on_random_tables(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            table = make_random_table(rng)
            rule = random_rule(rng, table)
            assert -1.0 <= zhang(rule, table) <= 1.0


class TestOracleAgreement:
    def test_metrics_match_row_scan_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            table = make_random_table(rng, max_features=6, max_rows=40)
            rule = random_rule(rng, table)
            assert support(rule, table) == oracle_support(rule, table)
            assert confidence(rule, table) == oracle_confidence(rule, table)
            assert rule_coverage(rule, table) == oracle_coverage(rule, table)
            assert zhang(rule, table) == oracle_zhang(rule, table)

    def test_data_coverage_matches_union_scan(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            table = make_random_table(rng, max_features=6, max_rows=40)
            rules = [random_rule(rng, table) for _ in range(int(rng.integers(1, 5)))]
            assert data_coverage(rules, table) == oracle_data_coverage(rules, table)


class TestInvariants:
    def test_support_is_coverage_times_confidence(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            table = make_random_table(rng)
            rule = random_rule(rng, table)
            lhs = support(rule, table)
            rhs = rule_coverage(rule, table) * confidence(rule, table)
            assert abs(lhs - rhs) < 1e-12

    def test_metrics_invariant_under_row_permutation(self):
        rng = np.random.default_rng(31)
        table = make_random_table(rng)
        rule = random_rule(rng, table)
        shuffled = TransactionTable(
            table.features, table.rows[rng.permutation(table.n_rows)]
        )
        assert support(rule, table) == support(rule, shuffled)
        assert confidence(rule, table) == confidence(rule, shuffled)
        assert zhang(rule, table) == zhang(rule, shuffled)

    def test_data_coverage_at_least_best_rule_coverage(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            table = make_random_table(rng)
            rules = [random_rule(rng, table) for _ in range(3)]
            best = max(rule_coverage(r, table) for r in rules)
            assert data_coverage(rules, table) >= best


class TestReport:
    def test_evaluate_aggregates(self):
        table = table_from_rows([[0, 0], [0, 0], [1, 1], [1, 1]])
        rules = [RULE, Rule(frozenset({Item(0, 1)}), Item(1, 1))]
        report = evaluate_rules(rules, table)
        assert report.rule_count == 2
        assert report.mean_support == 0.5
        assert report.mean_confidence == 1.0
        assert report.data_coverage == 1.0

    def test_empty_report_is_valid(self):
        report = evaluate_rules([], table_from_rows([[0, 0]]))
        assert report.rule_count == 0
        assert report.mean_support == 0.0
        assert report.data_coverage == 0.0

    def test_report_doc_validates_against_schema(self):
        import jsonschema

        rng = np.random.default_rng(41)
        table = make_random_table(rng)
        rules = [random_rule(rng, table) for _ in range(4)]
        doc = report_to_doc(evaluate_rules(rules, table), table.features)
        jsonschema.validate(doc, REPORT_SCHEMA)

    def test_annotate_rules_attaches_measurements(self):
        table = table_from_rows([[0, 0], [0, 0], [1, 1], [1, 1]])
        annotated = annotate_rules(rule_set([RULE], table.layout()), table)
        assert annotated.support.tolist() == [0.5]
        assert annotated.confidence.tolist() == [1.0]
        assert annotated.zhang.tolist() == [1.0]

    def test_format_report_lists_rules(self):
        table = table_from_rows([[0, 0], [0, 1]])
        text = format_report(evaluate_rules([RULE], table), table.features)
        assert "f0=v0 -> f1=v0" in text
        assert "Data cov." in text


# names that the text report prints as they are: separators of its own
# layout, and non-ASCII text
ODD_NAMES = st.text(st.sampled_from("ab,=é漢 >-"), min_size=1, max_size=4)


@st.composite
def evaluated_reports(draw):
    """(report, features): the evaluated report of 0, 1, 50 or more than 50
    random rules over a random table whose features may have one class."""
    names = draw(st.lists(ODD_NAMES, min_size=2, max_size=5, unique=True))
    classes = st.lists(ODD_NAMES, min_size=1, max_size=3, unique=True)
    features = [Feature(name, "categorical", draw(classes)) for name in names]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = int(rng.integers(1, 41))
    table = TransactionTable(features, np.column_stack(
        [rng.integers(0, len(f.class_values), n_rows) for f in features]))
    rules = []
    for _ in range(draw(st.sampled_from([0, 1, 50, 51, 64]))):
        chosen = rng.permutation(len(features))[: int(rng.integers(2, len(features) + 1))]
        items = [Item(int(f), int(rng.integers(0, len(features[f].class_values))))
                 for f in chosen]
        rules.append(Rule(frozenset(items[1:]), items[0]))
    return evaluate_rules(rules, table), features


class TestTextReport:
    @given(evaluated_reports())
    @settings(max_examples=60, deadline=None)
    def test_preview_equals_the_rendering_of_the_rule_views(self, drawn):
        report, features = drawn
        assert format_report(report, features) == oracle_format_report(report, features)


class TestMeanOrder:
    def test_means_are_python_sums_in_rule_order(self):
        # ten rules of support 1/10: a left-to-right sum and numpy's
        # pairwise sum differ in the last bit, and the report uses the former
        table = table_from_rows([[row, 0] for row in range(10)])
        rules = [Rule(frozenset({Item(0, row)}), Item(1, 0)) for row in range(10)]
        report = evaluate_rules(rules, table)
        supports = [rule.support for rule in report.per_rule]
        assert sum(supports) != float(np.sum(supports))
        assert report.mean_support == sum(supports) / 10
        assert report.mean_support != float(np.sum(supports)) / 10
        assert report.mean_coverage == sum(r.coverage for r in report.per_rule) / 10


def kernel_table(rng):
    """Random table with at least one single-class feature (its item covers
    every row) and one class that never occurs."""
    n_rows = int(rng.integers(1, 151))
    n_features = int(rng.integers(3, 7))
    features, columns = [], []
    for f in range(n_features):
        drawn = 1 if f == 0 else int(rng.integers(1, 4))
        declared = drawn + 1 if f == 1 else drawn
        features.append(Feature(f"f{f}", "categorical", [f"v{c}" for c in range(declared)]))
        columns.append(rng.integers(0, drawn, size=n_rows))
    return TransactionTable(features, np.column_stack(columns))


def kernel_rules(rng, table):
    """Random rules in groups sharing an antecedent, plus rules whose
    antecedent covers every row or never occurs."""
    def item(feature):
        return Item(feature, int(rng.integers(0, len(table.features[feature].class_values))))

    rules = []
    for _ in range(int(rng.integers(0, 6))):
        feats = [int(f) for f in rng.permutation(table.n_features)]
        n_ante = int(rng.integers(1, min(3, table.n_features - 1) + 1))
        antecedent = frozenset(item(f) for f in feats[:n_ante])
        for f in feats[n_ante:n_ante + int(rng.integers(1, 4))]:
            rules.append(Rule(antecedent, item(f)))
    unused = Item(1, len(table.features[1].class_values) - 1)
    rules.append(Rule(frozenset({Item(0, 0)}), item(2)))
    rules.append(Rule(frozenset({unused}), item(2)))
    rules.append(Rule(frozenset({unused, Item(0, 0)}), item(2)))
    order = rng.permutation(len(rules))
    return [rules[i] for i in order]


class TestCountingKernel:
    def test_counts_match_row_scan_exactly(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            table = kernel_table(rng)
            rules = kernel_rules(rng, table)
            n_x, n_xy, n_y = rule_counts(rules, table)
            assert n_x.dtype == n_xy.dtype == n_y.dtype == np.int64
            got = list(zip(n_x.tolist(), n_xy.tolist(), n_y.tolist()))
            assert got == [oracle_counts(rule, table) for rule in rules]
            assert 0 in n_x.tolist() and table.n_rows in n_x.tolist()

    def test_empty_rule_list(self):
        table = kernel_table(np.random.default_rng(47))
        assert [a.tolist() for a in rule_counts([], table)] == [[], [], []]
        assert evaluate_rules([], table).data_coverage == 0.0

    def test_evaluate_equals_scalar_metrics(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            table = kernel_table(rng)
            rules = kernel_rules(rng, table)
            report = evaluate_rules(rules, table)
            columns = {"support": [], "confidence": [], "coverage": [], "zhang": []}
            for measured, rule in zip(report.per_rule, rules):
                expected = {
                    "support": oracle_support(rule, table),
                    "confidence": oracle_confidence(rule, table),
                    "coverage": oracle_coverage(rule, table),
                    "zhang": oracle_zhang(rule, table),
                }
                for key, value in expected.items():
                    assert getattr(measured, key) == value
                    columns[key].append(value)
                assert measured == rule
            count = len(rules)
            assert report.rule_count == count
            assert report.mean_support == sum(columns["support"]) / count
            assert report.mean_confidence == sum(columns["confidence"]) / count
            assert report.mean_coverage == sum(columns["coverage"]) / count
            assert report.mean_zhang == sum(columns["zhang"]) / count
            assert report.data_coverage == oracle_data_coverage(rules, table)


def two_feature_table(n_rows):
    """Feature f0 with classes v0/v1 alternating down the rows, and a
    single-class feature f1."""
    features = [
        Feature("f0", "categorical", ["v0", "v1"]),
        Feature("f1", "categorical", ["v0"]),
    ]
    rows = np.column_stack([np.arange(n_rows) % 2, np.zeros(n_rows, dtype=np.int64)])
    return TransactionTable(features, rows)


SCALAR_METRICS = [support, confidence, rule_coverage, zhang]


class TestKernelGuards:
    """Items outside the layout would land on another feature's slot, and a
    table with no rows has nothing to divide by: both are rejected."""

    @pytest.mark.parametrize(
        "item", [Item(0, 2), Item(0, -1), Item(2, 0), Item(-1, 0)],
        ids=["class-past-end", "negative-class", "feature-past-end", "negative-feature"],
    )
    def test_item_outside_the_layout_is_named(self, item):
        table = two_feature_table(4)
        named = r"rule item Item\(.*outside the table"
        for rule in (Rule(frozenset({item}), Item(1, 0)), Rule(frozenset({Item(1, 0)}), item)):
            with pytest.raises(ValueError, match=named):
                rule_set([rule], table.layout())
            for measure in (data_coverage, rule_counts):
                with pytest.raises(ValueError, match=named):
                    measure([rule], table)
            for measure in SCALAR_METRICS:
                with pytest.raises(ValueError, match=named):
                    measure(rule, table)

    def test_rule_set_on_another_layout_is_named(self):
        table = two_feature_table(4)
        wider = [Feature("f0", "categorical", ["v0", "v1", "v2"]), *table.features[1:]]
        doc = [{"antecedent": [{"feature": "f0", "class": "v2"}],
                "consequent": {"feature": "f1", "class": "v0"}}]
        rules = rules_from_json(json.dumps(doc), wider)
        for measure in (evaluate, data_coverage, rule_counts):
            with pytest.raises(ValueError, match=r"layout \(3, 1\), not the table's \(2, 1\)"):
                measure(rules, table)

    def test_rules_on_a_table_with_no_rows_are_rejected(self):
        table = two_feature_table(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for measure in (evaluate, data_coverage, rule_counts):
                with pytest.raises(ValueError, match="no rows"):
                    measure(rule_set([RULE], table.layout()), table)
            for measure in SCALAR_METRICS:
                with pytest.raises(ValueError, match="no rows"):
                    measure(RULE, table)

    @pytest.mark.parametrize("n_rows", [0, 1, 65])
    def test_empty_rule_list_gives_the_all_zero_report(self, n_rows):
        table = two_feature_table(n_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate(rule_set([], table.layout()), table)
            assert len(report.per_rule) == 0
            assert replace(report, per_rule=None) == RuleQualityReport(None, 0, 0.0, 0.0, 0.0,
                                                                       0.0, 0.0)
            assert data_coverage([], table) == 0.0
            assert [a.tolist() for a in rule_counts([], table)] == [[], [], []]


@st.composite
def reports(draw):
    """(report, features, extra): a report over drawn rules with drawn
    metrics, and extra top-level keys like the CLI's."""
    features, rules = draw(rule_lists())
    keys = ("support", "confidence", "zhang", "coverage")
    per_rule = [replace(rule, **{key: draw(METRIC_VALUES) for key in keys}) for rule in rules]
    per_rule = rule_set(per_rule, GroupLayout.of(features))
    report = RuleQualityReport(per_rule, len(per_rule), *(draw(JSON_NUMBERS) for _ in range(5)))
    extra = draw(st.fixed_dictionaries({}, optional={
        "min_support": JSON_NUMBERS,
        "timings": st.dictionaries(
            JSON_TEXT, JSON_NUMBERS | st.dictionaries(JSON_TEXT, JSON_NUMBERS, max_size=2),
            max_size=3,
        ),
    }))
    return report, features, extra


class TestReportJsonWriter:
    @given(reports())
    @settings(max_examples=80, deadline=None)
    def test_bytes_equal_json_dumps_of_the_document(self, drawn):
        report, features, extra = drawn
        doc = {**report_to_doc(report, features), **extra}
        expected = json.dumps(doc, indent=2, sort_keys=True)
        assert "".join(report_to_json(report, features, **extra)) == expected

    def test_evaluated_report(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            table = kernel_table(rng)
            report = evaluate_rules(kernel_rules(rng, table), table)
            extra = {"min_support": 0.05, "timings": {"mine_seconds": 0.25}}
            expected = json.dumps({**report_to_doc(report, table.features), **extra},
                                  indent=2, sort_keys=True)
            assert "".join(report_to_json(report, table.features, **extra)) == expected

    def test_a_large_report_streams_in_bounded_chunks(self):
        features, rules = many_rules()
        rules = replace(rules, coverage=rules.support[::-1].copy())
        report = RuleQualityReport(rules, len(rules), 0.25, -0.0, 0.5, 0.125, 1.0)
        extra = {"min_support": 0.05, "timings": {"mine_seconds": 0.25}}
        chunks = list(report_to_json(report, features, **extra))
        documents = [chunk.count('"antecedent": [') for chunk in chunks]
        assert sum(documents) == len(rules) and sum(map(bool, documents)) > 1
        # one fragment per key (antecedent, consequent, four metrics) and a close
        assert all(count * (6 + 1) <= 4096 for count in documents)
        expected = json.dumps({**report_to_doc(report, features), **extra},
                              indent=2, sort_keys=True)
        assert "".join(chunks) == expected

    def test_extra_keys_override_as_in_a_dict_merge(self):
        report = evaluate_rules([], table_from_rows([[0, 0]]))
        expected = json.dumps({**report_to_doc(report, []), "rules": {"a": [1]}, "rule_count": -1},
                              indent=2, sort_keys=True)
        assert "".join(report_to_json(report, [], rules={"a": [1]}, rule_count=-1)) == expected
