"""Hypothesis-driven invariants over generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semarm.extract import Item, Rule
from semarm.transact import (
    Feature,
    GroupLayout,
    TransactionTable,
    discretize_equal_frequency,
    one_hot_encode,
)

from conftest import expected_one_hot
from oracles import (
    confidence,
    count_test_vectors,
    generate_test_vectors,
    rule_coverage,
    support,
    zhang,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32)


@st.composite
def tables(draw):
    n_features = draw(st.integers(2, 5))
    n_rows = draw(st.integers(1, 30))
    counts = [draw(st.integers(1, 4)) for _ in range(n_features)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.column_stack([rng.integers(0, c, n_rows) for c in counts])
    features = [
        Feature(f"f{i}", "categorical", [f"v{k}" for k in range(c)])
        for i, c in enumerate(counts)
    ]
    return TransactionTable(features, rows)


@given(st.lists(finite_floats, min_size=1, max_size=200), st.integers(1, 12))
def test_discretization_is_total_and_ordered(values, intervals):
    disc = discretize_equal_frequency(values, intervals)
    assert len(disc.assignment) == len(values)
    assert set(disc.assignment) == set(range(len(disc.labels)))
    assert len(set(disc.labels)) == len(disc.labels)
    assert disc.edges == sorted(disc.edges)
    assert len(disc.edges) == len(disc.labels) - 1
    # every value sits inside its bin's labeled range
    for value, bin_index in zip(values, disc.assignment):
        if bin_index > 0:
            assert value > disc.edges[bin_index - 1]
        if bin_index < len(disc.edges):
            assert value <= disc.edges[bin_index]


@given(st.integers(1, 8), st.integers(1, 25), st.integers(0, 2**32 - 1))
def test_duplicate_free_divisible_bins_are_exact(intervals, per_bin, seed):
    n = intervals * per_bin
    rng = np.random.default_rng(seed)
    values = list(rng.permutation(np.arange(n) * 0.5 + rng.normal()))
    disc = discretize_equal_frequency(values, intervals)
    populations = np.bincount(disc.assignment)
    assert populations.tolist() == [per_bin] * intervals


@given(tables())
@settings(max_examples=60)
def test_one_hot_round_trip(table):
    matrix = one_hot_encode(table)
    assert matrix.layout == table.layout()
    assert matrix.data.dtype == np.float64
    assert np.array_equal(matrix.data, expected_one_hot(table))


@given(tables(), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_support_identity_and_ranges(table, seed):
    rng = np.random.default_rng(seed)
    feats = rng.choice(table.n_features, size=2, replace=False)
    rule = Rule(
        frozenset({Item(int(feats[0]), int(rng.integers(0, len(table.features[int(feats[0])].class_values))))}),
        Item(int(feats[1]), int(rng.integers(0, len(table.features[int(feats[1])].class_values)))),
    )
    sup = support(rule, table)
    cov = rule_coverage(rule, table)
    conf = confidence(rule, table)
    assert 0.0 <= sup <= cov <= 1.0
    assert 0.0 <= conf <= 1.0
    assert abs(sup - cov * conf) < 1e-12
    assert -1.0 <= zhang(rule, table) <= 1.0


@given(st.lists(st.integers(1, 5), min_size=1, max_size=6), st.integers(1, 3))
def test_vector_count_matches_generation(counts, cap):
    layout = GroupLayout(tuple(counts))
    from itertools import combinations

    generated = 0
    for size in range(1, min(cap, len(counts)) + 1):
        for subset in combinations(range(len(counts)), size):
            generated += len(generate_test_vectors(layout, subset))
    assert generated == count_test_vectors(layout, cap)
