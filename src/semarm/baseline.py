"""Exhaustive association rule mining over a transaction table.

The level-wise miner returns exactly the itemsets meeting a support
threshold (one item per feature, as transactions assign each feature one
class), and rules are derived with exact integer-count metrics. A naive
enumeration twin serves as an independent correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .extract import Item, Rule
from .quality import _popcount, _slot_bits, rule_counts, rule_metrics
from .quality import confidence as _confidence
from .quality import support as _support
from .quality import zhang as _zhang
from .transact import TransactionTable

__all__ = [
    "FrequentItemset",
    "mine_frequent",
    "rules_from_itemsets",
    "brute_force_implications",
    "coupled_support_threshold",
]

BRUTE_FORCE_GUARD = 10_000_000


@dataclass(frozen=True)
class FrequentItemset:
    items: frozenset[Item]
    support: float


def _canonical(items) -> tuple[Item, ...]:
    return tuple(sorted(items))


def mine_frequent(
    table: TransactionTable,
    min_support: float,
    max_size: int | None = None,
) -> list[FrequentItemset]:
    """All itemsets (one item per feature) with support >= min_support.

    Level-wise candidate growth with downward-closure pruning over the
    per-item row bitsets that ``quality`` counts rules on; supports are exact
    counts divided by the row count. ``max_size`` caps the itemset
    cardinality (rule derivation only ever needs antecedents + 1); the
    default enumerates every frequent itemset.
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support must be in (0, 1]")
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be >= 1 when given")
    n = table.n_rows
    if n == 0:
        return []
    bits = _slot_bits(table)
    items = [Item(f, c) for f, k in enumerate(table.layout().class_counts) for c in range(k)]
    item_bits = dict(zip(items, bits))

    result: list[FrequentItemset] = []
    level: dict[tuple[Item, ...], np.ndarray] = {}
    for item, row_bits, count in zip(items, bits, _popcount(bits).tolist()):
        sup = count / n
        if sup >= min_support:
            level[(item,)] = row_bits
            result.append(FrequentItemset(frozenset((item,)), sup))

    size = 1
    while level and (max_size is None or size < max_size):
        size += 1
        keys = sorted(level)
        frequent_keys = set(keys)
        next_level: dict[tuple[Item, ...], np.ndarray] = {}
        for i, left in enumerate(keys):
            for right in keys[i + 1 :]:
                if left[:-1] != right[:-1]:
                    break  # sorted prefixes diverged, no further joins for `left`
                last = right[-1]
                if last.feature == left[-1].feature:
                    continue  # one class per feature
                candidate = left + (last,)
                if any(
                    _canonical(set(candidate) - {item}) not in frequent_keys
                    for item in candidate
                ):
                    continue
                row_bits = level[left] & item_bits[last]
                sup = int(_popcount(row_bits)) / n
                if sup >= min_support:
                    next_level[candidate] = row_bits
                    result.append(FrequentItemset(frozenset(candidate), sup))
        level = next_level
    return result


def rules_from_itemsets(
    itemsets: list[FrequentItemset],
    table: TransactionTable,
    min_confidence: float,
    max_antecedents: int,
) -> list[Rule]:
    """All rules X -> Y with X union Y frequent, a single consequent item,
    at most ``max_antecedents`` antecedent items, and confidence at or above
    the bound. Exact measured metrics are attached to every rule.
    """
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError("min_confidence must be in [0, 1]")
    if max_antecedents < 1:
        raise ValueError("max_antecedents must be >= 1")
    candidates = []
    for itemset in sorted(itemsets, key=lambda s: (len(s.items), _canonical(s.items))):
        items = _canonical(itemset.items)
        if not 2 <= len(items) <= max_antecedents + 1:
            continue
        for consequent in items:
            candidates.append(Rule(frozenset(set(items) - {consequent}), consequent))
    supports, confidences, _, zhangs = rule_metrics(*rule_counts(candidates, table), table.n_rows)
    return [
        rule.with_metrics(sup, conf, zh)
        for rule, sup, conf, zh in zip(candidates, supports, confidences, zhangs)
        if conf >= min_confidence
    ]


def _enumeration_size(table: TransactionTable, max_antecedents: int) -> int:
    counts = [len(f.class_values) for f in table.features]
    total = 0
    for size in range(1, min(max_antecedents, len(counts)) + 1):
        for subset in combinations(range(len(counts)), size):
            antecedents = 1
            for f in subset:
                antecedents *= counts[f]
            consequents = sum(c for i, c in enumerate(counts) if i not in subset)
            total += antecedents * consequents
    return total


def brute_force_implications(
    table: TransactionTable,
    min_confidence: float,
    max_antecedents: int,
) -> list[Rule]:
    """Ground-truth enumeration of every rule meeting the confidence bound.

    Checks all (antecedent set, consequent item) combinations by direct row
    counting, independent of the level-wise miner. Guarded: the enumeration
    must stay within 10^7 combinations.
    """
    size = _enumeration_size(table, max_antecedents)
    if size > BRUTE_FORCE_GUARD:
        raise ValueError(f"enumeration of {size} combinations exceeds the guard")
    n = table.n_rows
    if n == 0:
        return []
    counts = [len(f.class_values) for f in table.features]
    rules = []
    for a_size in range(1, min(max_antecedents, len(counts)) + 1):
        for subset in combinations(range(len(counts)), a_size):
            outside = [f for f in range(len(counts)) if f not in subset]
            for classes in product(*(range(counts[f]) for f in subset)):
                x_mask = np.ones(n, dtype=bool)
                for feat, cls in zip(subset, classes):
                    x_mask &= table.rows[:, feat] == cls
                n_x = int(x_mask.sum())
                if n_x == 0:
                    continue
                antecedent = frozenset(Item(f, c) for f, c in zip(subset, classes))
                for feat in outside:
                    for cls in range(counts[feat]):
                        n_xy = int((x_mask & (table.rows[:, feat] == cls)).sum())
                        if n_xy / n_x >= min_confidence:
                            rule = Rule(antecedent, Item(feat, cls))
                            rules.append(
                                Rule(
                                    antecedent,
                                    Item(feat, cls),
                                    support=_support(rule, table),
                                    confidence=_confidence(rule, table),
                                    zhang=_zhang(rule, table),
                                )
                            )
    return rules


def coupled_support_threshold(reference_rules, table: TransactionTable) -> float:
    """Support threshold for comparison runs: half the mean measured support
    of the rules the autoencoder route produced."""
    rules = list(reference_rules)
    if not rules:
        raise ValueError("cannot couple a support threshold to an empty rule list")
    _, n_xy, _ = rule_counts(rules, table)
    mean = sum((n_xy / table.n_rows).tolist()) / len(rules)
    return mean / 2.0
