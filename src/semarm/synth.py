"""Deterministic synthetic benchmark data with planted implications.

Generates categorical sensor transactions whose planted rules hit their
target confidence exactly (verified by row scan at generation time), plus a
small property graph and binding so the semantic enrichment path can be
exercised end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Binding, Ontology, PropertyGraph, dump_graph

__all__ = [
    "PlantedRule",
    "SyntheticSpec",
    "UnsatisfiableSpecError",
    "generate_classes",
    "build_dataset",
    "write_dataset",
]

CONFIDENCE_TOLERANCE = 0.03
_SENSOR_KINDS = ("flow", "pressure", "demand")


class UnsatisfiableSpecError(ValueError):
    """The requested synthetic dataset cannot be generated as specified."""


@dataclass(frozen=True)
class PlantedRule:
    """Implication to embed in the data: (feature, class) antecedent items,
    one (feature, class) consequent, and the confidence to hit."""

    antecedent: tuple[tuple[int, int], ...]
    consequent: tuple[int, int]
    confidence: float = 1.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and content of a synthetic dataset.

    With ``exclusive_consequents`` (the default) a planted consequent class
    occurs only where some rule puts it, which keeps planted implications
    cleanly separated from background noise. ``noise_rate`` reshuffles cells
    of features untouched by any planted rule, so targets stay exact.
    """

    features: int = 10
    classes_per_feature: int = 4
    rows: int = 1000
    planted: tuple[PlantedRule, ...] = ()
    noise_rate: float = 0.0
    seed: int = 0
    exclusive_consequents: bool = True
    zones: int = 2
    window_seconds: int = 60

    def __post_init__(self):
        if self.features < 1 or self.rows < 1 or self.classes_per_feature < 1:
            raise UnsatisfiableSpecError("features, classes, and rows must be positive")
        if not 0.0 <= self.noise_rate < 1.0:
            raise UnsatisfiableSpecError("noise_rate must be in [0, 1)")
        if self.zones < 1 or self.window_seconds < 1:
            raise UnsatisfiableSpecError("zones and window_seconds must be positive")
        object.__setattr__(self, "planted", tuple(self.planted))
        for rule in self.planted:
            self._check_rule(rule)
        self._check_conflicts()
        if self.exclusive_consequents:
            per_feature: dict[int, set[int]] = {}
            for rule in self.planted:
                per_feature.setdefault(rule.consequent[0], set()).add(rule.consequent[1])
            for feat, classes in per_feature.items():
                if len(classes) >= self.classes_per_feature:
                    raise UnsatisfiableSpecError(
                        f"feature {feat} has no free class left for non-matching rows"
                    )

    def _check_rule(self, rule: PlantedRule):
        items = list(rule.antecedent) + [rule.consequent]
        for feat, cls in items:
            if not (0 <= feat < self.features and 0 <= cls < self.classes_per_feature):
                raise UnsatisfiableSpecError(f"planted item ({feat}, {cls}) out of range")
        ante_feats = [f for f, _ in rule.antecedent]
        if not ante_feats:
            raise UnsatisfiableSpecError("planted rule needs at least one antecedent item")
        if len(set(ante_feats)) != len(ante_feats):
            raise UnsatisfiableSpecError("planted antecedent repeats a feature")
        if rule.consequent[0] in set(ante_feats):
            raise UnsatisfiableSpecError("planted consequent feature appears in the antecedent")
        if not 0.0 < rule.confidence <= 1.0:
            raise UnsatisfiableSpecError("target confidence must be in (0, 1]")

    def _check_conflicts(self):
        """Two rules whose antecedents can hold simultaneously but demand
        different classes of the same feature are unsatisfiable once their
        confidence targets sum past 1."""
        for i, first in enumerate(self.planted):
            for second in self.planted[i + 1 :]:
                if first.consequent[0] != second.consequent[0]:
                    continue
                if first.consequent[1] == second.consequent[1]:
                    continue
                assigned = dict(first.antecedent)
                compatible = all(
                    assigned.get(feat, cls) == cls for feat, cls in second.antecedent
                )
                if compatible and first.confidence + second.confidence > 1.0:
                    raise UnsatisfiableSpecError(
                        f"conflicting planted rules: {first} vs {second}"
                    )


def _antecedent_mask(matrix: np.ndarray, rule: PlantedRule) -> np.ndarray:
    mask = np.ones(matrix.shape[0], dtype=bool)
    for feat, cls in rule.antecedent:
        mask &= matrix[:, feat] == cls
    return mask


def generate_classes(spec: SyntheticSpec) -> np.ndarray:
    """Class-index matrix (rows x features) realizing a SyntheticSpec.

    Background cells are uniform; each planted rule then fixes exactly
    round(confidence * matches) of its antecedent rows to the consequent
    class. Measured confidences are re-checked by row scan and must land
    within 0.03 of the target.
    """
    rng = np.random.default_rng(spec.seed)
    k = spec.classes_per_feature
    matrix = rng.integers(0, k, size=(spec.rows, spec.features), dtype=np.int64)

    planted_classes: dict[int, set[int]] = {}
    touched: set[int] = set()
    for rule in spec.planted:
        planted_classes.setdefault(rule.consequent[0], set()).add(rule.consequent[1])
        touched.add(rule.consequent[0])
        touched.update(f for f, _ in rule.antecedent)

    if spec.exclusive_consequents:
        for feat, classes in sorted(planted_classes.items()):
            free = np.array([c for c in range(k) if c not in classes])
            matrix[:, feat] = free[rng.integers(0, len(free), spec.rows)]

    for rule in spec.planted:
        feat, cls = rule.consequent
        idx = np.flatnonzero(_antecedent_mask(matrix, rule))
        if idx.size == 0:
            raise UnsatisfiableSpecError(f"antecedent of {rule} never occurs in {spec.rows} rows")
        wanted = int(round(rule.confidence * idx.size))
        chosen = rng.permutation(idx)[:wanted]
        matrix[chosen, feat] = cls
        rest = np.setdiff1d(idx, chosen, assume_unique=True)
        if spec.exclusive_consequents:
            allowed = np.array([c for c in range(k) if c not in planted_classes[feat]])
        else:
            allowed = np.array([c for c in range(k) if c != cls])
        if rest.size:
            if allowed.size == 0:
                raise UnsatisfiableSpecError(
                    f"no class left for unchosen antecedent rows of {rule}"
                )
            matrix[rest, feat] = allowed[rng.integers(0, allowed.size, rest.size)]

    if spec.noise_rate > 0.0:
        for feat in range(spec.features):
            if feat in touched:
                continue
            flips = rng.random(spec.rows) < spec.noise_rate
            matrix[flips, feat] = rng.integers(0, k, int(flips.sum()))

    for rule in spec.planted:
        mask = _antecedent_mask(matrix, rule)
        matched = int(mask.sum())
        hits = int((matrix[mask, rule.consequent[0]] == rule.consequent[1]).sum())
        measured = hits / matched if matched else 0.0
        if abs(measured - rule.confidence) > CONFIDENCE_TOLERANCE:
            raise UnsatisfiableSpecError(
                f"measured confidence {measured:.4f} for {rule} misses the "
                f"target {rule.confidence} by more than {CONFIDENCE_TOLERANCE}"
            )
    return matrix


def _sensor_name(index: int) -> str:
    return f"s{index:02d}"


def _build_graph(spec: SyntheticSpec) -> tuple[PropertyGraph, Ontology, Binding]:
    graph = PropertyGraph()
    binding = Binding()
    for zone in range(spec.zones):
        area = f"area_z{zone}"
        graph.node_ids.add(area)
        graph.labels[area] = {"Area"}
        graph.properties[area] = {"floor": zone}
    for i in range(spec.features):
        sensor = _sensor_name(i)
        node = f"dev_{sensor}"
        graph.node_ids.add(node)
        graph.labels[node] = {"Device"}
        graph.properties[node] = {
            "kind": _SENSOR_KINDS[i % len(_SENSOR_KINDS)],
            "zone": f"z{i % spec.zones}",
        }
        edge = f"loc_{sensor}"
        graph.edge_ids.add(edge)
        graph.edge_endpoints[edge] = (node, f"area_z{i % spec.zones}")
        graph.labels[edge] = {"located_in"}
        graph.properties[edge] = {}
        binding.sensor_to_node[sensor] = node
    ontology = Ontology(
        classes={"Device", "Area"},
        relations={"located_in"},
        properties={"kind", "zone", "floor"},
        relation_signature={"located_in": ("Device", "Area")},
        owned_properties={"Device": {"kind", "zone"}, "Area": {"floor"}},
    )
    return graph, ontology, binding


def build_dataset(spec: SyntheticSpec) -> tuple[np.ndarray, str, str]:
    """(class matrix, sensor CSV text, graph JSON text) for a SyntheticSpec.

    Output text is byte-deterministic for fixed parameters: one categorical
    reading per sensor per window, windows starting at 0.
    """
    matrix = generate_classes(spec)
    names = [_sensor_name(feat) for feat in range(spec.features)]
    lines = ["timestamp,sensor_id,value"]
    for row, classes in enumerate(matrix.tolist()):
        ts = row * spec.window_seconds
        lines += [f'{ts},{name},"c{c}"' for name, c in zip(names, classes)]
    csv_text = "\n".join(lines) + "\n"
    graph_text = dump_graph(*_build_graph(spec)) + "\n"
    return matrix, csv_text, graph_text


def write_dataset(spec: SyntheticSpec, sensors_path, graph_path) -> np.ndarray:
    matrix, csv_text, graph_text = build_dataset(spec)
    with open(sensors_path, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    with open(graph_path, "w", encoding="utf-8") as fh:
        fh.write(graph_text)
    return matrix
