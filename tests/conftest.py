"""Shared fixtures: a small water-network graph, random-table builders,
hypothesis strategies for rule lists, and a rule set that spans several
chunks of the streamed writers."""

import json
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import strategies as st

from semarm.extract import Item, Rule
from semarm.transact import Feature, GroupLayout, TransactionTable

from oracles import rule_set, slot

WATER_GRAPH = {
    "ontology": {
        "classes": ["Pipe", "Junction"],
        "relations": [{"name": "connected_to", "from": "Pipe", "to": "Junction"}],
        "properties": ["length", "elevation", "order"],
        "owned": {"Pipe": ["length"], "Junction": ["elevation"], "connected_to": ["order"]},
    },
    "nodes": [
        {"id": "p1", "labels": ["Pipe"], "props": {"length": 850}},
        {"id": "j2", "labels": ["Junction"], "props": {"elevation": 12.5}},
        {"id": "p3", "labels": ["Pipe"], "props": {"length": 430}},
    ],
    "edges": [
        {"id": "e1", "from": "p1", "to": "j2", "labels": ["connected_to"], "props": {}},
        {"id": "e2", "from": "p3", "to": "j2", "labels": ["connected_to"], "props": {"order": 2}},
    ],
    "bindings": {"s1": "p1", "s2": "j2", "s3": "p3"},
}


@pytest.fixture
def water_graph_json() -> str:
    return json.dumps(WATER_GRAPH)


def make_random_table(rng, max_features=8, max_classes=4, max_rows=60) -> TransactionTable:
    n_features = int(rng.integers(2, max_features + 1))
    n_rows = int(rng.integers(4, max_rows + 1))
    features = []
    columns = []
    for f in range(n_features):
        n_classes = int(rng.integers(2, max_classes + 1))
        features.append(
            Feature(f"f{f}", "categorical", [f"v{c}" for c in range(n_classes)])
        )
        columns.append(rng.integers(0, n_classes, size=n_rows))
    return TransactionTable(features, np.column_stack(columns))


def expected_one_hot(table: TransactionTable) -> np.ndarray:
    """The one-hot matrix of ``table``, set one slot at a time."""
    layout = table.layout()
    expected = np.zeros((table.n_rows, layout.width))
    for r, row in enumerate(table.rows.tolist()):
        for feature, class_index in enumerate(row):
            expected[r, slot(layout, feature, class_index)] = 1.0
    return expected


# names that JSON must escape: quotes, backslashes, control characters, non-ASCII
JSON_TEXT = st.text(
    st.sampled_from('a"\\/\n\t\x00\x1f\x7fé漢😀 ') | st.characters(), max_size=6
)
JSON_NUMBERS = st.one_of(
    st.sampled_from([-0.0, 1e-07, 0.1 + 0.2, 1.0, 0.0, 2**53 + 1, -(10**30)]),
    st.floats(),
    st.integers(),
)


# metric values as a RuleSet column holds them: floats, among them values
# that compare equal but print apart and values JSON cannot hold exactly
METRIC_VALUES = st.sampled_from([-0.0, 1e-07, 0.1 + 0.2, 1.0, 0.0, 2.0**53, -1e30]) | st.floats()


@st.composite
def rule_lists(draw):
    """(features, rules): 4-6 features with escaped names and class values,
    0-12 rules with 1-3 antecedent items; each of support, confidence and
    zhang is a float on every rule or on none, as in a ``RuleSet``."""
    keys = [key for key in ("support", "confidence", "zhang") if draw(st.booleans())]
    names = draw(st.lists(JSON_TEXT, min_size=4, max_size=6, unique=True))
    class_values = st.lists(JSON_TEXT, min_size=1, max_size=3, unique=True)
    features = [Feature(name, "categorical", draw(class_values)) for name in names]

    def item(f):
        return Item(f, draw(st.integers(0, len(features[f].class_values) - 1)))

    rules = []
    for _ in range(draw(st.integers(0, 12))):
        chosen = draw(st.permutations(range(len(features))))[: draw(st.integers(2, 4))]
        rules.append(Rule(
            frozenset(item(f) for f in chosen[1:]),
            item(chosen[0]),
            **{key: draw(METRIC_VALUES) for key in keys},
        ))
    return features, rules


def many_rules():
    """(features, rules): every rule with one or two antecedent items over six
    three-class features, 1890 of them, carrying drawn support, confidence
    and zhang columns, -0.0 among them."""
    features = [Feature(f"s{i}", "categorical", ["a", "b", "c"]) for i in range(6)]
    rules = [
        Rule(frozenset(Item(f, c) for f, c in zip(chosen, classes)), Item(g, d))
        for size in (1, 2)
        for chosen in combinations(range(6), size)
        for classes in product(range(3), repeat=size)
        for g in range(6) if g not in chosen
        for d in range(3)
    ]
    rng = np.random.default_rng(31)
    metrics = {key: np.where(rng.random(len(rules)) < 0.1, -0.0, rng.random(len(rules)).round(3))
               for key in ("support", "confidence", "zhang")}
    return features, replace(rule_set(rules, GroupLayout.of(features)), **metrics)
