"""Test-only references for ``semarm``.

The functions before the ``oracle_*`` ones are entry points that no command
runs, so they live here rather than in ``src/``; tests use them as references
or fixtures: a layout's slice of one feature and slot of one class, a list
of ``Rule``s as a ``RuleSet`` (``rule_set``, the one way tests build rules as
columns), the
metrics of one rule or a rule list (``support``, ``confidence``,
``rule_coverage``, ``zhang``, ``data_coverage``, ``rule_counts``: views over
the library's counting kernel, so row-scan oracles test that kernel), the
brute-force rule enumeration, marked-vector generation and counting, the
training loss, analytic gradients, untrained networks, and a synthetic spec
as a table.

Each ``oracle_*`` is the straightforward implementation that a faster path in
``src/`` replaced, kept here only so tests can hold the fast path to it: the
rule-at-a-time code the columnar rule paths replaced (same rules, same order,
same metric bits, same report text), the training step of one fresh array per
operation that ``autonet.train`` replaced (same parameter bits), and the
per-cell synthetic CSV text (same bytes).
"""

from dataclasses import replace
from itertools import combinations, product

import numpy as np

from semarm import jsondoc
from semarm.autonet import (
    CLAMP_EPS,
    TrainedAutoencoder,
    TrainingConfig,
    _activations,
    _initial_parameters,
)
from semarm.baseline import FrequentItemset
from semarm.extract import (
    Item,
    Rule,
    RuleSet,
    _METRICS,
    _marked_vectors,
    _shape_fault,
    _slot_items,
    equal_prob_vector,
)
from semarm.quality import MAX_REPORT_RULES, _count_pass, _popcount, _slot_bits, rule_metrics
from semarm.synth import _sensor_name, generate_classes
from semarm.transact import Feature, TransactionTable

BRUTE_FORCE_GUARD = 10_000_000


def group_slice(layout, feature):
    """The slots of ``feature``'s class group in ``layout``."""
    start = layout.offsets[feature]
    return slice(start, start + layout.class_counts[feature])


def slot(layout, feature, class_index):
    """The slot of ``feature``'s class ``class_index`` in ``layout``;
    IndexError for a feature or class outside it."""
    if not 0 <= feature < len(layout.class_counts):
        raise IndexError(f"feature {feature} out of range")
    if not 0 <= class_index < layout.class_counts[feature]:
        raise IndexError(f"class {class_index} out of range for feature {feature}")
    return layout.offsets[feature] + class_index


def rule_set(rules, layout):
    """``rules``, ``Rule``s in order, as a RuleSet on ``layout``. A metric is
    a float64 column when every rule has a float for it, and absent when no
    rule has one. ValueError for a rule that is not one (an empty
    antecedent, two items of one feature, the consequent's feature in the
    antecedent), an item outside the layout, or a metric some rules lack."""
    rules = list(rules)

    def item_slot(item):
        try:
            return slot(layout, item.feature, item.class_index)
        except IndexError:
            raise ValueError(f"rule item {item} is outside the table's layout") from None

    rows = []
    for rule in rules:
        if fault := _shape_fault([i.feature for i in rule.antecedent], rule.consequent.feature):
            raise ValueError(fault)
        rows.append(sorted(map(item_slot, rule.antecedent)))
    width = max(map(len, rows), default=1)
    antecedents = np.array([row + [layout.width] * (width - len(row)) for row in rows],
                           dtype=np.int64).reshape(len(rows), width)
    consequents = np.array([item_slot(rule.consequent) for rule in rules], dtype=np.int64)
    columns = {}
    for key in _METRICS:
        values = [getattr(rule, key) for rule in rules]
        if any(value is not None for value in values):
            if not all(type(value) is float for value in values):
                raise ValueError(f"{key} must be a float on every rule or on none")
            columns[key] = np.array(values, dtype=np.float64)
    return RuleSet(antecedents, consequents, layout, **columns)


def _on_table(rules, table):
    """A RuleSet as it is, and ``Rule``s as a RuleSet on the table's layout."""
    return rules if isinstance(rules, RuleSet) else rule_set(rules, table.layout())


def rule_counts(rules, table):
    """(antecedent, antecedent+consequent, consequent) counts per rule, as
    int64 arrays in rule order, from the library's counting pass."""
    return _count_pass(_on_table(rules, table), table)[:3]


def data_coverage(rules, table):
    """Fraction of transactions matched by at least one rule's antecedent."""
    rules = _on_table(rules, table)
    covered = _count_pass(rules, table)[3]
    return covered / table.n_rows if len(rules) else 0.0


def _metrics(rule, table):
    """[support, confidence, rule coverage, zhang] of one rule, from the
    counting kernel and the metric formula of the library."""
    return [float(values[0]) for values in rule_metrics(*rule_counts([rule], table), table.n_rows)]


def support(rule, table):
    """Fraction of transactions containing every item of the rule."""
    return _metrics(rule, table)[0]


def confidence(rule, table):
    """Fraction of antecedent transactions also containing the consequent;
    0 when the antecedent never occurs."""
    return _metrics(rule, table)[1]


def rule_coverage(rule, table):
    """Fraction of transactions containing the antecedent."""
    return _metrics(rule, table)[2]


def zhang(rule, table):
    """Association strength in [-1, 1]: positive for association, 0 for
    independence, negative for dissociation.

    Computed as (conf(X->Y) - conf(X'->Y)) / max(conf(X->Y), conf(X'->Y))
    with X' the transactions lacking X. Returns 0 when X covers every row
    (X' is empty) or when both confidences are 0.
    """
    return _metrics(rule, table)[3]


def _enumeration_size(table, max_antecedents):
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


def brute_force_implications(table, min_confidence, max_antecedents):
    """Ground-truth enumeration of every rule meeting the confidence bound.

    Checks all (antecedent set, consequent item) combinations by direct row
    counting, independent of the level-wise miner and the bitset counting
    kernel; only the metric formula, ``quality.rule_metrics``, is shared.
    Guarded: the enumeration must stay within 10^7 combinations.
    """
    size = _enumeration_size(table, max_antecedents)
    if size > BRUTE_FORCE_GUARD:
        raise ValueError(f"enumeration of {size} combinations exceeds the guard")
    n = table.n_rows
    if n == 0:
        return []
    counts = [len(f.class_values) for f in table.features]
    rules, counted = [], []
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
                        y_mask = table.rows[:, feat] == cls
                        n_xy = int((x_mask & y_mask).sum())
                        if n_xy / n_x >= min_confidence:
                            rules.append(Rule(antecedent, Item(feat, cls)))
                            counted.append((n_x, n_xy, int(y_mask.sum())))
    n_xs, n_xys, n_ys = np.array(counted, dtype=np.int64).reshape(-1, 3).T
    metrics = (values.tolist() for values in rule_metrics(n_xs, n_xys, n_ys, n))
    return [
        replace(rule, support=sup, confidence=conf, zhang=zh, coverage=cov)
        for rule, sup, conf, cov, zh in zip(rules, *metrics)
    ]


def generate_test_vectors(layout, feature_subset):
    """All marked vectors for one feature subset, with their marked items.

    One vector per element of the Cartesian product of the subset's class
    values: the chosen class slot is 1.0, sibling slots of the same feature
    0.0, and every other feature keeps equal probabilities.
    """
    subset = tuple(feature_subset)
    if not 1 <= len(set(subset)) == len(subset):
        raise ValueError("feature subset must be non-empty and duplicate-free")
    vectors, marked = _marked_vectors(layout, [subset])
    items = _slot_items(layout)
    return [(vec, tuple(items[s] for s in row)) for vec, row in zip(vectors, marked.tolist())]


def count_test_vectors(layout, max_antecedents):
    """Number of marked vectors over all feature subsets of size up to
    ``max_antecedents``: the sum over subsets of the product of class counts.

    ``extract_rules`` probes exactly this many rows through the network when
    no feature constraint is set. Computed via elementary symmetric
    polynomials, so large feature counts stay cheap.
    """
    if max_antecedents < 1:
        raise ValueError("max_antecedents must be >= 1")
    cap = min(max_antecedents, layout.n_features)
    # coeffs[k] accumulates the sum over k-subsets of products of class counts
    coeffs = [1] + [0] * cap
    for count in layout.class_counts:
        for k in range(min(cap, len(coeffs) - 1), 0, -1):
            coeffs[k] += coeffs[k - 1] * count
    return sum(coeffs[1:])


def bce_loss(reconstruction, clean_target) -> float:
    """Mean binary cross-entropy over all slots.

    Reconstruction entries are clamped to [1e-12, 1 - 1e-12] before the logs,
    so exact {0,1} reconstructions of a {0,1} target give (near) zero loss.
    """
    p = np.asarray(reconstruction, dtype=np.float64)
    y = np.asarray(clean_target, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {y.shape}")
    p = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def loss_gradients(net, inputs, targets):
    """Analytic gradients of bce_loss(forward(inputs), targets) with respect
    to every weight and bias tensor. Returns (loss, grad_weights, grad_biases).
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if inputs.shape != targets.shape or inputs.shape[1] != net.shape.input_dim:
        raise ValueError("inputs/targets must both be (n, input_dim)")
    return oracle_loss_and_grads(net.weights, net.biases, net.shape.group_layout, inputs,
                                 targets)


def initialize_network(shape, seed, config=None):
    """Untrained network, initialised from a generator seeded with ``seed``."""
    weights, biases = _initial_parameters(shape, np.random.default_rng(seed))
    cfg = config if config is not None else TrainingConfig(rng_seed=seed)
    return TrainedAutoencoder(shape, weights, biases, cfg, seed)


def spec_to_table(spec):
    """The generated transactions as a table, bypassing the CSV round trip."""
    labels = [f"c{j}" for j in range(spec.classes_per_feature)]
    features = [
        Feature(_sensor_name(i), "categorical", list(labels)) for i in range(spec.features)
    ]
    return TransactionTable(features, generate_classes(spec))


def oracle_loss_and_grads(weights, biases, layout, noisy, clean):
    """Loss plus exact gradients of bce_loss(forward(noisy), clean), one fresh
    array per operation: the training step that ``autonet.train`` replaced
    with one writing into preallocated flat buffers."""
    acts, p = _activations(weights, biases, layout, noisy)
    loss = bce_loss(p, clean)
    pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)

    n_terms = clean.size
    dp = (-(clean / pc) + (1.0 - clean) / (1.0 - pc)) / n_terms
    # softmax backward, independently per feature group
    starts = np.asarray(layout.offsets)
    counts = np.asarray(layout.class_counts)
    inner = np.repeat(np.add.reduceat(dp * p, starts, axis=1), counts, axis=1)
    delta = p * (dp - inner)

    grads_w = [None] * 6
    grads_b = [None] * 6
    for layer in range(5, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer:  # the input layer needs no upstream gradient
            delta = (delta @ weights[layer].T) * (1.0 - acts[layer] ** 2)
    return loss, grads_w, grads_b


def oracle_csv_text(spec, matrix):
    """``build_dataset``'s sensor CSV text of ``matrix``, formatted one numpy cell at a
    time."""
    lines = ["timestamp,sensor_id,value"]
    for row in range(spec.rows):
        ts = row * spec.window_seconds
        for feat in range(spec.features):
            lines.append(f'{ts},{_sensor_name(feat)},"c{matrix[row, feat]}"')
    return "\n".join(lines) + "\n"


def oracle_test_vectors(layout, subset):
    """The marked vectors of one feature subset, built one at a time."""
    base = equal_prob_vector(layout)
    vectors = []
    for classes in product(*(range(layout.class_counts[f]) for f in subset)):
        vec = base.copy()
        items = []
        for feat, cls in zip(subset, classes):
            vec[group_slice(layout, feat)] = 0.0
            vec[slot(layout, feat, cls)] = 1.0
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
                if any(out[slot(layout, it.feature, it.class_index)] < tau for it in items):
                    continue
                antecedent = frozenset(items)
                for feat in range(n_features):
                    if feat in marked_set:
                        continue
                    block = out[group_slice(layout, feat)]
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

    def item_slot(item):
        return slot(layout, item.feature, item.class_index)

    consequent_slots = np.array([item_slot(r.consequent) for r in rules], dtype=np.int64)
    groups = {}
    for i, rule in enumerate(rules):
        groups.setdefault(rule.antecedent, []).append(i)
    n_x = np.zeros(len(rules), dtype=np.int64)
    n_xy = np.zeros(len(rules), dtype=np.int64)
    covered = np.zeros(bits.shape[1], dtype=np.uint64)
    for antecedent, members in groups.items():
        x_bits = np.bitwise_and.reduce(bits[[item_slot(item) for item in antecedent]], axis=0)
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
        replace(rule, support=sup, confidence=conf, zhang=zh, coverage=cov)
        for rule, sup, conf, cov, zh in zip(candidates, *metrics)
        if conf >= min_confidence
    ]


def oracle_format_report(report, features):
    """The text report with its rule rows rendered from the ``Rule`` views."""

    def render(item):
        feature = features[item.feature]
        return f"{feature.name}={feature.class_values[item.class_index]}"

    header = (f"{'Rules':>8} {'Support':>9} {'Confidence':>11} {'Coverage':>9} "
              f"{'Data cov.':>10} {'Zhang':>8}")
    lines = [
        header,
        "-" * len(header),
        f"{report.rule_count:>8d} {report.mean_support:>9.4f} {report.mean_confidence:>11.4f} "
        f"{report.mean_coverage:>9.4f} {report.data_coverage:>10.4f} {report.mean_zhang:>8.4f}",
    ]
    rules = list(report.per_rule)
    if rules:
        lines.append("")
        lines.append(f"{'support':>9} {'conf':>7} {'cover':>7} {'zhang':>7}  rule")
        for rule in rules[:MAX_REPORT_RULES]:
            lhs = ", ".join(render(item) for item in sorted(rule.antecedent))
            lines.append(
                f"{rule.support:>9.4f} {rule.confidence:>7.4f} {rule.coverage:>7.4f} "
                f"{rule.zhang:>7.4f}  {lhs} -> {render(rule.consequent)}"
            )
        if report.rule_count > MAX_REPORT_RULES:
            lines.append(f"... ({report.rule_count - MAX_REPORT_RULES} more)")
    return "\n".join(lines) + "\n"


def oracle_rules_from_json(source, features, name="rules document"):
    """The rules document read one checked ``Item`` and ``Rule`` at a time,
    without its metrics, as the reader takes none."""
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
            rule = Rule(frozenset(item(d) for d in doc["antecedent"]), item(doc["consequent"]))
            if fault := _shape_fault([i.feature for i in rule.antecedent],
                                     rule.consequent.feature):
                raise ValueError(fault)
        except ValueError as exc:  # an unknown item, or items that make no rule
            raise ValueError(f"{part}: {exc}") from None
        rules.append(rule)
    return rules
