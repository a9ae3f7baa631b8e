"""Object-path references for the array paths of ``semarm``.

Each ``oracle_*`` is the rule-at-a-time implementation that a columnar path
in ``src/`` replaced, kept here only so property tests can hold the array
path to it: same rules, same order, same metric bits.
"""

from itertools import combinations, product

import numpy as np

from semarm import jsondoc
from semarm.baseline import FrequentItemset
from semarm.extract import Item, Rule, equal_prob_vector
from semarm.quality import _popcount, _slot_bits, rule_metrics


def oracle_test_vectors(layout, subset):
    """The marked vectors of one feature subset, built one at a time."""
    base = equal_prob_vector(layout)
    vectors = []
    for classes in product(*(range(layout.class_counts[f]) for f in subset)):
        vec = base.copy()
        items = []
        for feat, cls in zip(subset, classes):
            vec[layout.group_slice(feat)] = 0.0
            vec[layout.slot(feat, cls)] = 1.0
            items.append(Item(feat, cls))
        vectors.append((vec, tuple(items)))
    return vectors


def oracle_extract_rules(net, config):
    """The marked-vector probe, one vector and one rule at a time."""
    layout = net.shape.group_layout
    n_features = layout.n_features
    if config.markable_features is not None:
        markable = sorted(config.markable_features)
    else:
        markable = list(range(n_features))
    tau = config.similarity_threshold
    rules = []
    for size in range(1, min(config.max_antecedents, len(markable)) + 1):
        for subset in combinations(markable, size):
            marked_set = set(subset)
            for vector, items in oracle_test_vectors(layout, subset):
                out = net.forward(vector)
                if any(out[layout.slot(it.feature, it.class_index)] < tau for it in items):
                    continue
                antecedent = frozenset(items)
                for feat in range(n_features):
                    if feat in marked_set:
                        continue
                    block = out[layout.group_slice(feat)]
                    best = int(np.argmax(block))
                    if block[best] > tau:
                        rules.append(Rule(antecedent, Item(feat, best)))
    return rules


def oracle_mine_frequent(table, min_support, max_size=None):
    """Level-wise miner over tuples of items and a dict of row bitsets."""
    n = table.n_rows
    if n == 0:
        return []
    bits = _slot_bits(table)
    items = [Item(f, c) for f, k in enumerate(table.layout().class_counts) for c in range(k)]
    item_bits = dict(zip(items, bits))

    result = []
    level = {}
    for item, row_bits, count in zip(items, bits, _popcount(bits).tolist()):
        sup = count / n
        if sup >= min_support:
            level[(item,)] = row_bits
            result.append(FrequentItemset(frozenset((item,)), sup))

    size = 1
    while level and (max_size is None or size < max_size):
        size += 1
        keys = sorted(level)
        next_level = {}
        for i, left in enumerate(keys):
            for right in keys[i + 1 :]:
                if left[:-1] != right[:-1]:
                    break
                last = right[-1]
                if last.feature == left[-1].feature:
                    continue
                candidate = left + (last,)
                if any(candidate[:j] + candidate[j + 1 :] not in level for j in range(size - 2)):
                    continue
                row_bits = level[left] & item_bits[last]
                sup = int(_popcount(row_bits)) / n
                if sup >= min_support:
                    next_level[candidate] = row_bits
                    result.append(FrequentItemset(frozenset(candidate), sup))
        level = next_level
    return result


def oracle_count_pass(rules, table):
    """Per-rule (n_x, n_xy, n_y) plus the rows any antecedent matches, with
    rules grouped by antecedent in a dict."""
    layout = table.layout()
    bits = _slot_bits(table)

    def slot(item):
        return layout.slot(item.feature, item.class_index)

    consequent_slots = np.array([slot(r.consequent) for r in rules], dtype=np.int64)
    groups = {}
    for i, rule in enumerate(rules):
        groups.setdefault(rule.antecedent, []).append(i)
    n_x = np.zeros(len(rules), dtype=np.int64)
    n_xy = np.zeros(len(rules), dtype=np.int64)
    covered = np.zeros(bits.shape[1], dtype=np.uint64)
    for antecedent, members in groups.items():
        x_bits = np.bitwise_and.reduce(bits[[slot(item) for item in antecedent]], axis=0)
        covered |= x_bits
        n_x[members] = _popcount(x_bits)
        n_xy[members] = _popcount(bits[consequent_slots[members]] & x_bits)
    n_y = _popcount(bits)[consequent_slots]
    return n_x, n_xy, n_y, int(_popcount(covered))


def oracle_rules_from_itemsets(itemsets, table, min_confidence, max_antecedents):
    """Every candidate rule built as a ``Rule``, counted on the table, then
    filtered on confidence."""
    candidates = []
    for itemset in sorted(itemsets, key=lambda s: (len(s.items), tuple(sorted(s.items)))):
        items = tuple(sorted(itemset.items))
        if not 2 <= len(items) <= max_antecedents + 1:
            continue
        for consequent in items:
            candidates.append(Rule(itemset.items - {consequent}, consequent))
    n_x, n_xy, n_y, _ = oracle_count_pass(candidates, table)
    metrics = [values.tolist() for values in rule_metrics(n_x, n_xy, n_y, table.n_rows)]
    return [
        rule.with_metrics(sup, conf, zh, cov)
        for rule, sup, conf, cov, zh in zip(candidates, *metrics)
        if conf >= min_confidence
    ]


def oracle_rules_from_json(source, features, name="rules document"):
    """The rules document read one checked ``Item`` and ``Rule`` at a time."""
    docs = jsondoc.checked(jsondoc.load(source, name), jsondoc.ARRAY, name)
    by_name = {
        f.name: (i, {c: j for j, c in enumerate(f.class_values)})
        for i, f in enumerate(features)
    }

    def item(doc):
        try:
            feature_idx, class_lookup = by_name[doc["feature"]]
            return Item(feature_idx, class_lookup[doc["class"]])
        except (KeyError, TypeError) as exc:  # TypeError: an unhashable name
            raise ValueError(f"unknown feature or class in rule document: {exc}") from exc

    rules = []
    for i, doc in enumerate(docs):
        part = f"{name}: rule {i}"
        jsondoc.checked(doc, jsondoc.OBJECT, part)
        jsondoc.entry(doc, "antecedent", jsondoc.array_of(jsondoc.OBJECT, "an array of objects"),
                      part)
        jsondoc.entry(doc, "consequent", jsondoc.OBJECT, part)
        try:
            rules.append(Rule(
                frozenset(item(d) for d in doc["antecedent"]),
                item(doc["consequent"]),
                support=doc.get("support"),
                confidence=doc.get("confidence"),
                zhang=doc.get("zhang"),
            ))
        except ValueError as exc:  # an unknown item, or items that make no rule
            raise ValueError(f"{part}: {exc}") from None
    return rules
