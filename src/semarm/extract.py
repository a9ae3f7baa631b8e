"""Association rule extraction from a trained autoencoder.

Rules are probed with marked test vectors: one class of each chosen feature
is pinned to probability 1 (its siblings to 0) while every other feature
holds uniform class probabilities. If the network reconstructs every marked
class at or above the similarity threshold, each unmarked feature whose top
class clears the threshold becomes a consequent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations, product
from json.encoder import encode_basestring_ascii

import numpy as np

from .transact import Feature, GroupLayout

__all__ = [
    "Item",
    "Rule",
    "ExtractionConfig",
    "equal_prob_vector",
    "generate_test_vectors",
    "count_test_vectors",
    "extract_rules",
    "rule_to_doc",
    "rule_from_doc",
    "rules_array_json",
    "rules_to_json",
    "rules_from_json",
]


@dataclass(frozen=True, order=True)
class Item:
    """One feature=class assignment, by index into the table layout."""

    feature: int
    class_index: int

    def render(self, features: list[Feature]) -> str:
        feat = features[self.feature]
        return f"{feat.name}={feat.class_values[self.class_index]}"


@dataclass(frozen=True)
class Rule:
    """Implication with a non-empty antecedent item set and one consequent.

    Antecedent items must come from pairwise-distinct features, none of which
    is the consequent's feature. Measured quality metrics are optional
    annotations and do not take part in equality or hashing.
    """

    antecedent: frozenset[Item]
    consequent: Item
    support: float | None = field(default=None, compare=False)
    confidence: float | None = field(default=None, compare=False)
    zhang: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.antecedent:
            raise ValueError("antecedent must be non-empty")
        features = [item.feature for item in self.antecedent]
        if len(set(features)) != len(features):
            raise ValueError("antecedent items must come from distinct features")
        if self.consequent.feature in set(features):
            raise ValueError("consequent feature may not appear in the antecedent")

    def with_metrics(self, support: float, confidence: float, zhang: float) -> Rule:
        """Copy of this rule carrying measured metrics. It skips the checks
        of ``__post_init__``: its items are this rule's, already checked."""
        copy = object.__new__(Rule)
        copy.__dict__.update(
            antecedent=self.antecedent,
            consequent=self.consequent,
            support=support,
            confidence=confidence,
            zhang=zhang,
        )
        return copy

    def render(self, features: list[Feature]) -> str:
        lhs = ", ".join(item.render(features) for item in sorted(self.antecedent))
        return f"{lhs} -> {self.consequent.render(features)}"


@dataclass(frozen=True)
class ExtractionConfig:
    """Extraction knobs: similarity threshold, antecedent cap, and an optional
    allow-list of feature indices that may be marked (item constraints)."""

    similarity_threshold: float = 0.8
    max_antecedents: int = 2
    markable_features: frozenset[int] | None = None

    def __post_init__(self):
        if not 0.0 < self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in (0, 1]")
        if self.max_antecedents < 1:
            raise ValueError("max_antecedents must be >= 1")


def equal_prob_vector(layout: GroupLayout) -> np.ndarray:
    """Vector assigning each feature's classes equal probability 1/k."""
    if layout.n_features == 0:
        raise ValueError("layout has no features")
    counts = np.asarray(layout.class_counts, dtype=np.float64)
    return np.repeat(1.0 / counts, layout.class_counts)


def generate_test_vectors(
    layout: GroupLayout, feature_subset
) -> list[tuple[np.ndarray, tuple[Item, ...]]]:
    """All marked vectors for one feature subset.

    One vector per element of the Cartesian product of the subset's class
    values: the chosen class slot is 1.0, sibling slots of the same feature
    0.0, and every other feature keeps equal probabilities.
    """
    subset = tuple(feature_subset)
    if not 1 <= len(set(subset)) == len(subset):
        raise ValueError("feature subset must be non-empty and duplicate-free")
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


def count_test_vectors(layout: GroupLayout, max_antecedents: int) -> int:
    """Number of marked vectors over all feature subsets of size up to
    ``max_antecedents``: the sum over subsets of the product of class counts.

    extract_rules performs exactly this many forward passes when no feature
    constraint is set. Computed via elementary symmetric polynomials, so
    large feature counts stay cheap.
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


def extract_rules(net, config: ExtractionConfig) -> list[Rule]:
    """Run the marked-vector probe over every eligible feature subset.

    For each subset of 1..max_antecedents features and each marked vector, the
    network output must reach the threshold at every marked slot (>=); then
    every unmarked feature whose argmax class output strictly exceeds the
    threshold yields a rule with the marked items as antecedent. Each vector
    is probed once, so no rule repeats. Output is ordered by subset, class
    combination, and consequent feature.
    """
    layout: GroupLayout = net.shape.group_layout
    n_features = layout.n_features
    if config.markable_features is not None:
        markable = sorted(config.markable_features)
        if any(not 0 <= f < n_features for f in markable):
            raise ValueError("markable feature index out of range for the network layout")
    else:
        markable = list(range(n_features))

    tau = config.similarity_threshold
    rules: list[Rule] = []
    for size in range(1, min(config.max_antecedents, len(markable)) + 1):
        for subset in combinations(markable, size):
            marked_set = set(subset)
            for vector, items in generate_test_vectors(layout, subset):
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


def rule_to_doc(rule: Rule, features: list[Feature]) -> dict:
    doc = {
        "antecedent": [
            {
                "feature": features[item.feature].name,
                "class": features[item.feature].class_values[item.class_index],
            }
            for item in sorted(rule.antecedent)
        ],
        "consequent": {
            "feature": features[rule.consequent.feature].name,
            "class": features[rule.consequent.feature].class_values[rule.consequent.class_index],
        },
    }
    for key in ("support", "confidence", "zhang"):
        value = getattr(rule, key)
        if value is not None:
            doc[key] = value
    return doc


def _feature_lookup(features: list[Feature]) -> dict[str, tuple[int, dict[str, int]]]:
    return {
        f.name: (i, {c: j for j, c in enumerate(f.class_values)})
        for i, f in enumerate(features)
    }


def _item_from_doc(doc: dict, by_name: dict[str, tuple[int, dict[str, int]]]) -> Item:
    try:
        feature_idx, class_lookup = by_name[doc["feature"]]
        return Item(feature_idx, class_lookup[doc["class"]])
    except KeyError as exc:
        raise ValueError(f"unknown feature or class in rule document: {exc}") from exc


def _rule_from_doc(doc: dict, by_name: dict[str, tuple[int, dict[str, int]]]) -> Rule:
    return Rule(
        frozenset(_item_from_doc(d, by_name) for d in doc["antecedent"]),
        _item_from_doc(doc["consequent"], by_name),
        support=doc.get("support"),
        confidence=doc.get("confidence"),
        zhang=doc.get("zhang"),
    )


def rule_from_doc(doc: dict, features: list[Feature]) -> Rule:
    return _rule_from_doc(doc, _feature_lookup(features))


def _json_scalar(value) -> str:
    """``value`` as ``json.dumps`` writes it."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def rules_array_json(rows, features: list[Feature], depth: int = 0) -> str:
    """JSON array of rule documents, byte for byte as
    ``json.dumps(docs, indent=2, sort_keys=True)`` writes it when the array
    sits ``depth`` levels deep in an enclosing document.

    ``rows`` yields ``(rule, confidence, coverage, support, zhang)``; a
    metric that is None is left out, as ``rule_to_doc`` does. Every item is
    rendered once and every distinct antecedent once; a rule joins these
    fragments.
    """
    pad = ["\n" + "  " * (depth + level) for level in range(5)]

    def items(inner: str, outer: str) -> list[list[str]]:
        return [
            [
                f'{{{inner}"class": {_json_scalar(value)},'
                f'{inner}"feature": {_json_scalar(feature.name)}{outer}}}'
                for value in feature.class_values
            ]
            for feature in features
        ]

    elements, consequents = items(pad[4], pad[3]), items(pad[3], pad[2])
    antecedents: dict[frozenset[Item], str] = {}
    field_sep = "," + pad[2]
    docs = []
    for rule, confidence, coverage, support, zhang in rows:
        antecedent = antecedents.get(rule.antecedent)
        if antecedent is None:
            listed = ("," + pad[3]).join(
                elements[i.feature][i.class_index] for i in sorted(rule.antecedent)
            )
            antecedent = antecedents[rule.antecedent] = f'"antecedent": [{pad[3]}{listed}{pad[2]}]'
        fields = [antecedent]
        if confidence is not None:
            fields.append(f'"confidence": {_json_scalar(confidence)}')
        consequent = rule.consequent
        fields.append('"consequent": ' + consequents[consequent.feature][consequent.class_index])
        if coverage is not None:
            fields.append(f'"coverage": {_json_scalar(coverage)}')
        if support is not None:
            fields.append(f'"support": {_json_scalar(support)}')
        if zhang is not None:
            fields.append(f'"zhang": {_json_scalar(zhang)}')
        docs.append("{" + pad[2] + field_sep.join(fields) + pad[1] + "}")
    if not docs:
        return "[]"
    return "[" + pad[1] + ("," + pad[1]).join(docs) + pad[0] + "]"


def rules_to_json(rules: list[Rule], features: list[Feature]) -> str:
    """Serialize rules as a JSON array; deterministic for identical inputs.

    The bytes are those of ``json.dumps([rule_to_doc(r, features) for r in
    rules], indent=2, sort_keys=True)``.
    """
    rows = ((r, r.confidence, None, r.support, r.zhang) for r in rules)
    return rules_array_json(rows, features)


def rules_from_json(text, features: list[Feature]) -> list[Rule]:
    docs = json.loads(text)
    if not isinstance(docs, list):
        raise ValueError("rules document must be a JSON array")
    by_name = _feature_lookup(features)
    return [_rule_from_doc(doc, by_name) for doc in docs]
