"""Association rule extraction from a trained autoencoder.

Rules are probed with marked test vectors: one class of each chosen feature
is pinned to probability 1 (its siblings to 0) while every other feature
holds uniform class probabilities. If the network reconstructs every marked
class at or above the similarity threshold, each unmarked feature whose top
class clears the threshold becomes a consequent.
Rules travel from the probe or a rules document to the counting kernel and
the writers as one columnar ``RuleSet``, the only rule type any code path here
takes or builds; ``Item`` and ``Rule`` are only the records its iteration yields.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, combinations, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import jsondoc
from .transact import Feature, GroupLayout

__all__ = [
    "Item",
    "Rule",
    "RuleSet",
    "ExtractionConfig",
    "equal_prob_vector",
    "extract_rules",
    "rule_to_doc",
    "rules_array_json",
    "rules_to_json",
    "rules_from_json",
]


@dataclass(frozen=True, order=True)
class Item:
    """One feature=class assignment, by index into the table layout."""

    feature: int
    class_index: int


@dataclass(frozen=True)
class Rule:
    """One rule of a ``RuleSet`` as its iteration yields it: a non-empty
    antecedent item set of pairwise-distinct features, none of them the
    consequent's. Metrics do not take part in equality or hashing."""

    antecedent: frozenset[Item]
    consequent: Item
    support: float | None = field(default=None, compare=False)
    confidence: float | None = field(default=None, compare=False)
    zhang: float | None = field(default=None, compare=False)
    coverage: float | None = field(default=None, compare=False)


def _shape_fault(antecedent_features: list[int], consequent_feature: int) -> str | None:
    """Why items of these features make no rule; None if they make one."""
    if not antecedent_features:
        return "antecedent must be non-empty"
    if len(set(antecedent_features)) != len(antecedent_features):
        return "antecedent items must come from distinct features"
    if consequent_feature in antecedent_features:
        return "consequent feature may not appear in the antecedent"


def _slot_items(layout: GroupLayout) -> list[Item]:
    return [Item(f, c) for f, count in enumerate(layout.class_counts) for c in range(count)]


def _slot_features(layout: GroupLayout) -> np.ndarray:
    return np.repeat(np.arange(layout.n_features), layout.class_counts)


_METRICS = ("support", "confidence", "zhang", "coverage")
_DOC_METRICS = ("confidence", "support", "zhang")  # those a rules document holds


@dataclass(frozen=True, eq=False)
class RuleSet:
    """Rules as columns.

    Row i of ``antecedents`` holds rule i's antecedent slots (``offsets[f] +
    class``, which sort as ``Item`` does) ascending, padded with
    ``layout.width``; ``consequents[i]`` is its consequent's slot. A metric
    column is a float64 array, or None when the rules do not carry it.
    """

    antecedents: np.ndarray
    consequents: np.ndarray
    layout: GroupLayout
    support: np.ndarray | None = None
    confidence: np.ndarray | None = None
    zhang: np.ndarray | None = None
    coverage: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.consequents)

    def __iter__(self):
        items, pad = _slot_items(self.layout), self.layout.width
        metrics = (repeat(None) if c is None else c.tolist()
                   for c in (getattr(self, key) for key in _METRICS))
        for row, consequent, *values in zip(self.antecedents.tolist(),
                                            self.consequents.tolist(), *metrics):
            yield Rule(frozenset(items[s] for s in row if s != pad), items[consequent], *values)

    def __getitem__(self, index) -> RuleSet:
        """The rules a slice, a boolean mask or an index array selects."""
        metrics = {key: getattr(self, key) for key in _METRICS}
        return replace(self, antecedents=self.antecedents[index],
                       consequents=self.consequents[index],
                       **{key: None if c is None else c[index] for key, c in metrics.items()})

    @cached_property
    def antecedent_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """(distinct, which): the distinct antecedent rows in lexicographic
        order, and the index of each rule's row in ``distinct``; found once
        per RuleSet, however many of the count pass and the writers read it."""
        _, first, which = np.unique(_row_keys(self.antecedents), return_index=True,
                                    return_inverse=True)
        return self.antecedents[first], which


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a non-negative int matrix as one big-endian byte string:
    the strings order as the rows do lexicographically, and no width of
    layout or row can overflow them as an arithmetic key could."""
    rows = np.ascontiguousarray(rows, dtype=">u8")
    return rows.view(f"S{8 * rows.shape[1]}").ravel()


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


def _marked_vectors(layout: GroupLayout, subsets) -> tuple[np.ndarray, np.ndarray]:
    """(vectors, marked): the marked vectors of equal-sized feature subsets
    as matrix rows, by subset and then class combination, and each row's
    marked slots."""
    marked = np.concatenate([
        np.indices([layout.class_counts[f] for f in subset]).reshape(len(subset), -1).T
        + [layout.offsets[f] for f in subset]
        for subset in subsets
    ])
    slot_feature = _slot_features(layout)
    in_marked_group = (slot_feature[:, None] == slot_feature[marked][:, None, :]).any(axis=2)
    vectors = np.where(in_marked_group, 0.0, equal_prob_vector(layout))
    vectors[np.arange(len(marked))[:, None], marked] = 1.0
    return vectors, marked


def extract_rules(net, config: ExtractionConfig) -> RuleSet:
    """Run the marked-vector probe over every eligible feature subset.

    For each subset of 1..max_antecedents features and each marked vector, the
    network output must reach the threshold at every marked slot (>=); then
    every unmarked feature whose argmax class output strictly exceeds the
    threshold yields a rule with the marked items as antecedent. Each vector
    is probed once, as one row of the single ``net.forward_batch`` call of
    its antecedent size, so no rule repeats; the outputs of one size are
    decided together. Output is ordered by subset, class combination, and
    consequent feature.
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
    cap = min(config.max_antecedents, len(markable))
    offsets, counts = np.asarray(layout.offsets), np.asarray(layout.class_counts)
    slot_feature, width = _slot_features(layout), layout.width
    antecedents, consequents = [np.empty((0, max(cap, 1)), np.int64)], [np.empty(0, np.int64)]
    for size in range(1, cap + 1):
        vectors, marked = _marked_vectors(layout, list(combinations(markable, size)))
        outputs = net.forward_batch(vectors)
        gate = ~(np.take_along_axis(outputs, marked, axis=1) < tau).any(axis=1)
        best = np.maximum.reduceat(outputs, offsets, axis=1)
        # the first slot of a group holding its maximum, as np.argmax picks
        at_best = np.where(outputs == np.repeat(best, counts, axis=1), np.arange(width), width)
        argmax = np.minimum.reduceat(at_best, offsets, axis=1)
        unmarked = (slot_feature[marked][:, :, None] != np.arange(n_features)).all(axis=1)
        probe, feature = np.nonzero((best > tau) & gate[:, None] & unmarked)
        antecedents.append(np.pad(marked[probe], ((0, 0), (0, cap - size)), constant_values=width))
        consequents.append(argmax[probe, feature])
    return RuleSet(np.concatenate(antecedents), np.concatenate(consequents), layout)


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
    for key in _DOC_METRICS:
        value = getattr(rule, key)
        if value is not None:
            doc[key] = value
    return doc


def _json_scalar(value) -> str:
    """``value`` as ``json.dumps`` writes it."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _metric_fields(rules: RuleSet, keys, sep: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """For each metric in ``keys`` that the rules carry, its distinct
    ``<sep>"<key>": <value>`` texts and the index of each rule's text. Each
    distinct bit pattern renders once, so values that compare equal but print
    apart (0.0 and -0.0) are never merged."""
    present = [key for key in keys if getattr(rules, key) is not None]
    if not present:
        return {}
    bits = np.concatenate([getattr(rules, key).view(np.int64) for key in present])
    distinct, which = np.unique(bits, return_inverse=True)
    texts = [_json_scalar(value) for value in distinct.view(np.float64).tolist()]
    return {key: (_texts([f'{sep}"{key}": {text}' for text in texts]), rows)
            for key, rows in zip(present, np.split(which, len(present)))}


def _texts(texts: list[str]) -> np.ndarray:
    """``texts`` as an object array, for picking by index arrays."""
    return np.array(texts, dtype=object)


# The most fragments a streamed document joins into one chunk: enough that
# writing a chunk costs little more than its bytes, few enough that no chunk
# holds more than a sliver of a large document.
_CHUNK_FRAGMENTS = 4096


def rules_array_json(rules: RuleSet, features: list[Feature], keys,
                     depth: int = 0) -> Iterator[str]:
    """JSON array of rule documents, as chunks of at most ``_CHUNK_FRAGMENTS``
    fragments that join to the bytes ``json.dumps(docs, indent=2,
    sort_keys=True)`` writes when the array sits ``depth`` levels deep in an
    enclosing document.

    Each document holds a rule's items and the metrics named in ``keys``
    that the rules carry, as ``rule_to_doc`` writes them. Every item,
    every distinct antecedent row and every distinct number is rendered
    once, and each chunk's documents are these fragments joined column by
    column.
    """
    if not len(rules):
        yield "[]"
        return
    pad = ["\n" + "  " * (depth + level) for level in range(5)]
    sep = "," + pad[2]

    def items(inner: str, outer: str) -> list[str]:
        return [
            f'{{{inner}"class": {_json_scalar(value)},'
            f'{inner}"feature": {_json_scalar(feature.name)}{outer}}}'
            for feature in features
            for value in feature.class_values
        ]

    elements, width = items(pad[4], pad[3]), rules.layout.width
    consequents = _texts([f'{sep}"consequent": {text}' for text in items(pad[3], pad[2])])
    distinct, which = rules.antecedent_groups
    antecedents = _texts([
        f'{{{pad[2]}"antecedent": [{pad[3]}'
        + ("," + pad[3]).join(elements[s] for s in row if s != width)
        + f"{pad[2]}]"
        for row in distinct.tolist()
    ])
    fields = _metric_fields(rules, keys, sep)
    fields["antecedent"] = (antecedents, which)
    fields["consequent"] = (consequents, rules.consequents)
    # "antecedent" sorts first, so every other field carries its separator;
    # the closing fragment ends each document and opens the next
    columns = [fields[key] for key in sorted(fields)]
    stride, close = len(columns) + 1, f"{pad[1]}}},{pad[1]}"
    step = _CHUNK_FRAGMENTS // stride
    for start in range(0, len(rules), step):
        stop = min(start + step, len(rules))
        flat = [close] * ((stop - start) * stride)
        for j, (texts, index) in enumerate(columns):
            flat[j::stride] = texts[index[start:stop]].tolist()
        if start == 0:
            flat[0] = "[" + pad[1] + flat[0]
        if stop == len(rules):
            flat[-1] = pad[1] + "}" + pad[0] + "]"
        yield "".join(flat)


def rules_to_json(rules: RuleSet, features: list[Feature]) -> Iterator[str]:
    """Serialize a RuleSet as a JSON array, streamed as the chunks of
    ``rules_array_json``; deterministic for identical inputs.

    The chunks join to the bytes of ``json.dumps([rule_to_doc(r, features)
    for r in rules], indent=2, sort_keys=True)``.
    """
    return rules_array_json(rules, features, _DOC_METRICS)


_ITEMS = jsondoc.array_of(jsondoc.OBJECT, "an array of objects")


def rules_from_json(source, features: list[Feature], name: str = "rules document") -> RuleSet:
    """The rules of a rules document (text or a stream) as a RuleSet on the
    layout of ``features``, without metrics: a command measures the rules it
    reads. An item given twice counts once. Every error names the document
    and the rule, as ``<name>: rule <i>``, and the first failing rule is the
    one named."""
    docs = jsondoc.checked(jsondoc.load(source, name), jsondoc.ARRAY, name)
    layout = GroupLayout.of(features)
    by_name = {f.name: {c: (i, layout.offsets[i] + j) for j, c in enumerate(f.class_values)}
               for i, f in enumerate(features)}
    antecedents, consequents = [], []
    for i, doc in enumerate(docs):
        part = f"{name}: rule {i}"
        jsondoc.checked(doc, jsondoc.OBJECT, part)
        jsondoc.entry(doc, "antecedent", _ITEMS, part)
        jsondoc.entry(doc, "consequent", jsondoc.OBJECT, part)
        try:
            items = {by_name[d["feature"]][d["class"]] for d in doc["antecedent"]}
            feature, slot = by_name[doc["consequent"]["feature"]][doc["consequent"]["class"]]
        except (KeyError, TypeError) as exc:  # TypeError: an unhashable name
            raise ValueError(f"{part}: unknown feature or class in rule document: {exc}") from None
        if fault := _shape_fault([f for f, _ in items], feature):
            raise ValueError(f"{part}: {fault}")
        antecedents.append(sorted(s for _, s in items))
        consequents.append(slot)
    lengths = np.fromiter(map(len, antecedents), np.int64, len(antecedents))
    rows = np.full((len(antecedents), lengths.max(initial=1)), layout.width, dtype=np.int64)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = list(chain.from_iterable(antecedents))
    return RuleSet(rows, np.array(consequents, dtype=np.int64), layout)
