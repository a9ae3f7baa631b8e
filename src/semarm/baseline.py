"""Exhaustive association rule mining over a transaction table.

The level-wise miner returns exactly the itemsets meeting a support
threshold (one item per feature, as transactions assign each feature one
class), and rules are derived with exact integer-count metrics; the
brute-force enumeration they are tested against is in ``tests/oracles.py``.

Each level of itemsets is a lexicographically sorted matrix of one-hot slots
with its row counts. Candidates are joined by shared prefix, pruned by
downward closure and counted on per-item row bitsets (Zaki's ECLAT, TKDE
2000); every rule reads its counts from the itemsets' counts (Agrawal &
Srikant, VLDB 1994), with no pass over the table. The command's report keeps
those metrics (``quality.evaluate(..., measured=True)``) and counts only the
rows that the rules' distinct antecedents cover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extract import Item, RuleSet, _row_keys, _slot_features, _slot_items
from .quality import _CHUNK, _and_rows, _popcount, _slot_bits, evaluate, rule_metrics
from .transact import GroupLayout, TransactionTable

__all__ = [
    "FrequentItemset",
    "FrequentItemsets",
    "mine_frequent",
    "rules_from_itemsets",
    "coupled_support_threshold",
]


@dataclass(frozen=True)
class FrequentItemset:
    items: frozenset[Item]
    support: float


@dataclass(frozen=True, eq=False)
class FrequentItemsets:
    """Frequent itemsets, iterated as ``FrequentItemset``s by size and then
    items. ``levels[k - 1]`` is ``(slots, counts)``: the k-itemsets'
    ascending one-hot slots as rows sorted lexicographically, and their row
    counts over ``n_rows`` rows."""

    levels: tuple[tuple[np.ndarray, np.ndarray], ...]
    layout: GroupLayout
    n_rows: int

    def __len__(self) -> int:
        return sum(len(counts) for _, counts in self.levels)

    def __iter__(self):
        items = _slot_items(self.layout)
        for slots, counts in self.levels:
            for row, count in zip(slots.tolist(), counts.tolist()):
                yield FrequentItemset(frozenset(items[s] for s in row), count / self.n_rows)


def _row_index(sorted_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each of ``rows`` in the lexicographically sorted,
    duplicate-free ``sorted_rows``, or -1 where it is absent."""
    keys, wanted = _row_keys(sorted_rows), _row_keys(rows)
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[at] == wanted, at, -1)


def _joins(rows: np.ndarray, slot_feature: np.ndarray) -> np.ndarray:
    """Every row joined with each later row that shares all but its last
    slot, when the two last slots belong to different features; the joined
    rows come out sorted."""
    m = len(rows)
    # rows sharing a prefix are contiguous: each joins the later rows of its run
    starts = np.flatnonzero(np.r_[True, (rows[1:, :-1] != rows[:-1, :-1]).any(axis=1)])
    partners = np.repeat(np.r_[starts[1:], m], np.diff(np.r_[starts, m])) - np.arange(m) - 1
    left = np.repeat(np.arange(m), partners)
    right = left + 1 + np.arange(len(left)) - np.repeat(np.cumsum(partners) - partners, partners)
    apart = slot_feature[rows[left, -1]] != slot_feature[rows[right, -1]]
    return np.column_stack([rows[left[apart]], rows[right[apart], -1]])


def mine_frequent(
    table: TransactionTable,
    min_support: float,
    max_size: int | None = None,
) -> FrequentItemsets:
    """All itemsets (one item per feature) with support >= min_support.

    Level-wise candidate growth with downward-closure pruning over the
    per-item row bitsets that ``quality`` counts rules on: only candidates
    whose every subset is frequent are counted, in chunks, and supports are
    exact counts divided by the row count. ``max_size`` caps the itemset
    cardinality (rule derivation only ever needs antecedents + 1); the
    default enumerates every frequent itemset.
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support must be in (0, 1]")
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be >= 1 when given")
    layout, n = table.layout(), table.n_rows
    if n == 0:
        return FrequentItemsets((), layout, 0)
    bits, slot_feature = _slot_bits(table), _slot_features(layout)
    candidates, levels = np.arange(layout.width)[:, None], []
    while True:
        counts = np.zeros(len(candidates), dtype=np.int64)
        for start in range(0, len(candidates), _CHUNK):
            step = slice(start, start + _CHUNK)
            counts[step] = _popcount(_and_rows(bits, candidates[step]))
        frequent = counts / n >= min_support
        rows = candidates[frequent]
        levels.append((rows, counts[frequent]))
        if not len(rows) or len(levels) == max_size:
            return FrequentItemsets(tuple(levels), layout, n)
        candidates = _joins(rows, slot_feature)
        # dropping either of the last two items gives a joined row; check the rest
        for j in range(rows.shape[1] - 1):
            candidates = candidates[_row_index(rows, np.delete(candidates, j, axis=1)) >= 0]


def rules_from_itemsets(
    itemsets: FrequentItemsets,
    table: TransactionTable,
    min_confidence: float,
    max_antecedents: int,
) -> RuleSet:
    """All rules X -> Y with X union Y frequent, a single consequent item,
    at most ``max_antecedents`` antecedent items, and confidence at or above
    the bound. Exact measured metrics are attached to every rule.

    Every count comes from the itemsets: n_xy is the itemset's, n_x its
    subset's without Y and n_y Y's. Rules come by itemset size, then
    itemset, then the consequent's position in the itemset.
    """
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError("min_confidence must be in [0, 1]")
    if max_antecedents < 1:
        raise ValueError("max_antecedents must be >= 1")
    layout, levels = itemsets.layout, itemsets.levels[: max_antecedents + 1]
    parts = []
    for (subsets, subset_counts), (slots, counts) in zip(levels, levels[1:]):
        size = slots.shape[1]
        # each itemset once per consequent position, with that item dropped
        dropped = np.stack([np.delete(slots, p, axis=1) for p in range(size)], axis=1)
        dropped = dropped.reshape(-1, size - 1)
        parts.append((
            np.pad(dropped, ((0, 0), (0, len(levels) - size)), constant_values=layout.width),
            slots.ravel(),
            subset_counts[_row_index(subsets, dropped)],
            np.repeat(counts, size),
            levels[0][1][_row_index(levels[0][0], slots.reshape(-1, 1))],
        ))
    if not parts:  # no rules, still carrying their (empty) metric columns
        none = np.empty(0, np.int64)
        parts = [(np.empty((0, 1), np.int64), none, none, none, none)]
    antecedents, consequents, n_x, n_xy, n_y = map(np.concatenate, zip(*parts))
    support, confidence, coverage, zhang = rule_metrics(n_x, n_xy, n_y, table.n_rows)
    rules = RuleSet(antecedents, consequents, layout, support, confidence, zhang, coverage)
    return rules[confidence >= min_confidence]


def coupled_support_threshold(reference_rules: RuleSet, table: TransactionTable) -> float:
    """Support threshold for comparison runs: half the mean measured support
    of the rules the autoencoder route produced. ValueError when there are
    no rules, or when none of them holds in any row."""
    report = evaluate(reference_rules, table)
    if not report.rule_count:
        raise ValueError("cannot couple a support threshold to an empty rule list")
    if report.mean_support == 0.0:
        raise ValueError("cannot couple a support threshold to rules that hold in no row "
                         "of the table (mean support 0)")
    return report.mean_support / 2.0
