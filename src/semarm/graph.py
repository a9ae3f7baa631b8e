"""Static system description: a labeled property graph, its schema, and the
sensor-to-node binding used for semantic enrichment of transactions.

The graph is read-only during a mining run. Each sensor is bound to one node;
the node's labels, property values, and neighborhood supply extra items for
the sensor's transactions.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

from . import jsondoc
from .jsondoc import ARRAY, OBJECT, PROPERTY, STRING, STRINGS

__all__ = [
    "Ontology",
    "PropertyGraph",
    "Binding",
    "SchemaViolation",
    "GraphFormatError",
    "GraphIntegrityError",
    "UnboundSensorError",
    "validate_schema",
    "load_graph",
    "dump_graph",
    "semantic_items_for_sensor",
]


class GraphFormatError(ValueError):
    """A graph document cannot be parsed or is structurally malformed."""


class GraphIntegrityError(ValueError):
    """A graph document references ids that do not exist."""


class UnboundSensorError(KeyError):
    """A sensor id has no entry in the binding."""

    def __str__(self):
        return f"sensor {self.args[0]!r} has no binding in the graph"


@dataclass
class Ontology:
    """Schema underlying a property graph: class/relation/property vocabularies,
    relation endpoint signatures, and property ownership."""

    classes: set[str] = field(default_factory=set)
    relations: set[str] = field(default_factory=set)
    properties: set[str] = field(default_factory=set)
    relation_signature: dict[str, tuple[str, str]] = field(default_factory=dict)
    owned_properties: dict[str, set[str]] = field(default_factory=dict)

    def validate(self):
        for rel, (src, dst) in self.relation_signature.items():
            if rel not in self.relations:
                raise ValueError(f"relation signature for unknown relation {rel!r}")
            if src not in self.classes or dst not in self.classes:
                raise ValueError(f"relation {rel!r} endpoints {src!r}/{dst!r} not in classes")
        for owner, props in self.owned_properties.items():
            unknown = props - self.properties
            if unknown:
                raise ValueError(f"{owner!r} owns undeclared properties {sorted(unknown)}")


@dataclass
class PropertyGraph:
    """Directed property graph: nodes and edges with label sets and
    property-value maps."""

    node_ids: set[str] = field(default_factory=set)
    edge_ids: set[str] = field(default_factory=set)
    edge_endpoints: dict[str, tuple[str, str]] = field(default_factory=dict)
    labels: dict[str, set[str]] = field(default_factory=dict)
    properties: dict[str, dict[str, object]] = field(default_factory=dict)

    def hop_rings(self, start: str) -> Iterator[list[str]]:
        """Sorted node lists by undirected hop distance, ``[start]`` first."""
        neighbors: dict[str, set[str]] = {}
        for src, dst in self.edge_endpoints.values():
            neighbors.setdefault(src, set()).add(dst)
            neighbors.setdefault(dst, set()).add(src)
        ring, seen = [start], {start}
        while ring:
            yield ring
            ring = sorted({other for node in ring for other in neighbors.get(node, ())} - seen)
            seen.update(ring)


@dataclass
class Binding:
    """Total map from sensor ids to the graph nodes they are attached to."""

    sensor_to_node: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class SchemaViolation:
    """One schema-conformance failure: a label or property key that the
    ontology does not declare, plus the id carrying it."""

    owner_id: str
    kind: str  # "label" or "property"
    value: str


def validate_schema(graph: PropertyGraph, ontology: Ontology) -> list[SchemaViolation]:
    """Check that every label of the graph is a declared class or relation and
    every property key is a declared property.

    Violations are data, not failures: the list is empty iff the graph
    conforms to the schema.
    """
    allowed_labels = ontology.classes | ontology.relations
    violations = []
    for owner in sorted(graph.labels):
        for label in sorted(graph.labels[owner]):
            if label not in allowed_labels:
                violations.append(SchemaViolation(owner, "label", label))
    for owner in sorted(graph.properties):
        for prop in sorted(graph.properties[owner]):
            if prop not in ontology.properties:
                violations.append(SchemaViolation(owner, "property", prop))
    return violations


_checked = partial(jsondoc.checked, error=GraphFormatError)
_entry = partial(jsondoc.entry, error=GraphFormatError)


def _add_labels_and_props(graph: PropertyGraph, owner_id: str, doc: dict, role: str):
    """Record the labels and property values of one node or edge document."""
    owner = f"{role} {owner_id!r}"
    graph.labels[owner_id] = set(_checked(doc.get("labels", []), STRINGS, f"{owner} labels"))
    graph.properties[owner_id] = dict(_checked(doc.get("props", {}), OBJECT, f"{owner} props"))
    for key, value in graph.properties[owner_id].items():
        _checked(value, PROPERTY, f"{owner} props {key!r}")


def load_graph(source, name: str = "graph document") -> tuple[PropertyGraph, Ontology, Binding]:
    """Parse a graph JSON document into (graph, ontology, binding).

    ``source`` may be a JSON string, bytes, or a readable text/binary stream.
    Raises GraphFormatError for unparseable (named ``name``) or malformed
    documents and GraphIntegrityError for dangling node references.
    """
    doc = jsondoc.load(source, name, GraphFormatError)
    _checked(doc, OBJECT, "graph document")
    onto_doc = _entry(doc, "ontology", OBJECT, "graph document", "ontology")
    relations = _entry(onto_doc, "relations", ARRAY, "ontology", "ontology relations")
    for index, relation in enumerate(relations):
        context = f"ontology relation {index}"
        _checked(relation, OBJECT, context)
        _entry(relation, "name", STRING, context, f"{context} name")
        for end in ("from", "to"):  # a missing or empty endpoint: no signature
            _checked(relation.get(end, ""), STRING, f"{context} {end!r}")
    owned = _checked(onto_doc.get("owned", {}), OBJECT, "ontology owned")
    ontology = Ontology(
        classes=set(_entry(onto_doc, "classes", STRINGS, "ontology", "ontology classes")),
        relations={r["name"] for r in relations},
        properties=set(_entry(onto_doc, "properties", STRINGS, "ontology", "ontology properties")),
        relation_signature={
            r["name"]: (r["from"], r["to"]) for r in relations if r.get("from") and r.get("to")
        },
        owned_properties={k: set(_entry(owned, k, STRINGS, "ontology owned")) for k in owned},
    )
    try:
        ontology.validate()
    except ValueError as exc:
        raise GraphFormatError(f"invalid ontology: {exc}") from exc

    graph = PropertyGraph()
    for index, node in enumerate(_entry(doc, "nodes", ARRAY, "graph document", "nodes")):
        context = f"node {index}"
        _checked(node, OBJECT, context)
        node_id = _entry(node, "id", STRING, context, f"{context} id")
        if node_id in graph.node_ids:
            raise GraphIntegrityError(f"duplicate node id {node_id!r}")
        graph.node_ids.add(node_id)
        _add_labels_and_props(graph, node_id, node, "node")
    for index, edge in enumerate(_entry(doc, "edges", ARRAY, "graph document", "edges")):
        context = f"edge {index}"
        _checked(edge, OBJECT, context)
        edge_id, src, dst = (_entry(edge, key, STRING, context) for key in ("id", "from", "to"))
        if edge_id in graph.edge_ids or edge_id in graph.node_ids:
            raise GraphIntegrityError(f"duplicate id {edge_id!r}")
        if src not in graph.node_ids:
            raise GraphIntegrityError(f"edge {edge_id!r} references missing node {src!r}")
        if dst not in graph.node_ids:
            raise GraphIntegrityError(f"edge {edge_id!r} references missing node {dst!r}")
        graph.edge_ids.add(edge_id)
        graph.edge_endpoints[edge_id] = (src, dst)
        _add_labels_and_props(graph, edge_id, edge, "edge")

    binding = Binding(dict(_entry(doc, "bindings", OBJECT, "graph document", "bindings")))
    for sensor, node in binding.sensor_to_node.items():
        if _checked(node, STRING, f"binding for sensor {sensor!r}") not in graph.node_ids:
            raise GraphIntegrityError(
                f"binding for sensor {sensor!r} references missing node {node!r}"
            )
    return graph, ontology, binding


def dump_graph(graph: PropertyGraph, ontology: Ontology, binding: Binding) -> str:
    """Serialize (graph, ontology, binding) to the canonical graph JSON text.

    Output is deterministic (sorted ids and keys) so that serialize-then-parse
    reproduces the input structures exactly.
    """
    doc = {
        "ontology": {
            "classes": sorted(ontology.classes),
            "relations": [
                {"name": name, "from": sig[0], "to": sig[1]}
                for name, sig in sorted(ontology.relation_signature.items())
            ]
            + [
                {"name": name, "from": "", "to": ""}
                for name in sorted(ontology.relations - set(ontology.relation_signature))
            ],
            "properties": sorted(ontology.properties),
            "owned": {k: sorted(v) for k, v in sorted(ontology.owned_properties.items())},
        },
        "nodes": [
            {
                "id": node,
                "labels": sorted(graph.labels.get(node, ())),
                "props": dict(sorted(graph.properties.get(node, {}).items())),
            }
            for node in sorted(graph.node_ids)
        ],
        "edges": [
            {
                "id": edge,
                "from": graph.edge_endpoints[edge][0],
                "to": graph.edge_endpoints[edge][1],
                "labels": sorted(graph.labels.get(edge, ())),
                "props": dict(sorted(graph.properties.get(edge, {}).items())),
            }
            for edge in sorted(graph.edge_ids)
        ],
        "bindings": dict(sorted(binding.sensor_to_node.items())),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _owner_items(graph: PropertyGraph, owner: str, role: str) -> list[tuple[str, object]]:
    """Property items of one node, qualified as <role>.<label>.<property>.

    Multi-labeled owners contribute one item per (label, property) pair; an
    owner without labels uses the placeholder label "_".
    """
    labels = sorted(graph.labels.get(owner, ())) or ["_"]
    props = graph.properties.get(owner, {})
    items = []
    for label in labels:
        for prop in sorted(props):
            items.append((f"{role}.{label}.{prop}", props[prop]))
    return items


def semantic_items_for_sensor(
    graph: PropertyGraph,
    binding: Binding,
    sensor_id: str,
    neighbor_depth: int = 1,
) -> list[tuple[str, object]]:
    """Semantic (feature name, raw value) pairs for one sensor.

    The bound node contributes a ("self.type", label) pair per label and its
    property values as ("self.<label>.<property>", value). For depth >= 1,
    nodes reachable within ``neighbor_depth`` hops (undirected, breadth-first)
    contribute property values under the role of their hop distance
    ("hop1.<label>.<property>", ...).

    The result is sorted by (feature name, value text, value type), whatever
    the walk order; items at depth k are a superset of items at depth k - 1.
    """
    if neighbor_depth < 0:
        raise ValueError("neighbor_depth must be >= 0")
    try:
        start = binding.sensor_to_node[sensor_id]
    except KeyError:
        raise UnboundSensorError(sensor_id) from None

    items: list[tuple[str, object]] = []
    for label in sorted(graph.labels.get(start, ())):
        items.append(("self.type", label))
    items.extend(_owner_items(graph, start, "self"))

    rings = islice(graph.hop_rings(start), 1, neighbor_depth + 1)
    for hop, ring in enumerate(rings, start=1):
        for node in ring:
            items.extend(_owner_items(graph, node, f"hop{hop}"))
    return sorted(items, key=lambda kv: (kv[0], str(kv[1]), type(kv[1]).__name__))
