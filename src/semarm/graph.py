"""Static system description: a labeled property graph, its schema, and the
sensor-to-node binding used for semantic enrichment of transactions.

The graph is read-only during a mining run. Each sensor is bound to one node;
the node's labels, property values, and neighborhood supply extra items for
the sensor's transactions.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

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

    def adjacency(self) -> dict[str, list[tuple[str, str]]]:
        """Undirected adjacency: node -> sorted list of (edge_id, other_node)."""
        adj: dict[str, list[tuple[str, str]]] = {}
        for edge, (src, dst) in self.edge_endpoints.items():
            adj.setdefault(src, []).append((edge, dst))
            adj.setdefault(dst, []).append((edge, src))
        for entries in adj.values():
            entries.sort()
        return adj


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


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise GraphFormatError(f"{context}: missing key {key!r}")
    return doc[key]


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string"}


def _typed(value, kind: type, context: str):
    if not isinstance(value, kind):
        raise GraphFormatError(f"{context} must be {_JSON_TYPES[kind]}")
    return value


def _strings(value, context: str) -> list[str]:
    for item in _typed(value, list, context):
        _typed(item, str, f"{context} entry {item!r}")
    return value


def _props(value, context: str) -> dict[str, object]:
    for key, prop in _typed(value, dict, context).items():
        if not isinstance(prop, (str, int, float)):
            raise GraphFormatError(f"{context} {key!r} must be a string, number or boolean")
    return dict(value)


def load_graph(source) -> tuple[PropertyGraph, Ontology, Binding]:
    """Parse a graph JSON document into (graph, ontology, binding).

    ``source`` may be a JSON string, bytes, or a readable text/binary stream.
    Raises GraphFormatError for unparseable or malformed documents and
    GraphIntegrityError for dangling node references.
    """
    if isinstance(source, (io.IOBase,)) or hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid graph JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")

    onto_doc = _typed(_require(doc, "ontology", "graph document"), dict, "ontology")
    relations = _typed(_require(onto_doc, "relations", "ontology"), list, "ontology relations")
    for index, relation in enumerate(relations):
        context = f"ontology relation {index}"
        _typed(relation, dict, context)
        _typed(_require(relation, "name", context), str, f"{context} name")
        for end in ("from", "to"):  # a missing or empty endpoint: no signature
            _typed(relation.get(end) or "", str, f"{context} {end!r}")
    owned = _typed(onto_doc.get("owned", {}), dict, "ontology owned")
    ontology = Ontology(
        classes=set(_strings(_require(onto_doc, "classes", "ontology"), "ontology classes")),
        relations={r["name"] for r in relations},
        properties=set(
            _strings(_require(onto_doc, "properties", "ontology"), "ontology properties")
        ),
        relation_signature={
            r["name"]: (r["from"], r["to"]) for r in relations if r.get("from") and r.get("to")
        },
        owned_properties={k: set(_strings(v, f"ontology owned {k!r}")) for k, v in owned.items()},
    )
    try:
        ontology.validate()
    except ValueError as exc:
        raise GraphFormatError(f"invalid ontology: {exc}") from exc

    graph = PropertyGraph()
    for index, node in enumerate(_typed(_require(doc, "nodes", "graph document"), list, "nodes")):
        context = f"node {index}"
        _typed(node, dict, context)
        node_id = _typed(_require(node, "id", context), str, f"{context} id")
        if node_id in graph.node_ids:
            raise GraphIntegrityError(f"duplicate node id {node_id!r}")
        graph.node_ids.add(node_id)
        graph.labels[node_id] = set(_strings(node.get("labels", []), f"node {node_id!r} labels"))
        graph.properties[node_id] = _props(node.get("props", {}), f"node {node_id!r} props")
    for index, edge in enumerate(_typed(_require(doc, "edges", "graph document"), list, "edges")):
        context = f"edge {index}"
        _typed(edge, dict, context)
        edge_id, src, dst = (
            _typed(_require(edge, key, context), str, f"{context} {key!r}")
            for key in ("id", "from", "to")
        )
        if edge_id in graph.edge_ids or edge_id in graph.node_ids:
            raise GraphIntegrityError(f"duplicate id {edge_id!r}")
        if src not in graph.node_ids:
            raise GraphIntegrityError(f"edge {edge_id!r} references missing node {src!r}")
        if dst not in graph.node_ids:
            raise GraphIntegrityError(f"edge {edge_id!r} references missing node {dst!r}")
        graph.edge_ids.add(edge_id)
        graph.edge_endpoints[edge_id] = (src, dst)
        graph.labels[edge_id] = set(_strings(edge.get("labels", []), f"edge {edge_id!r} labels"))
        graph.properties[edge_id] = _props(edge.get("props", {}), f"edge {edge_id!r} props")

    binding = Binding(dict(_typed(_require(doc, "bindings", "graph document"), dict, "bindings")))
    for sensor, node in binding.sensor_to_node.items():
        if _typed(node, str, f"binding for sensor {sensor!r}") not in graph.node_ids:
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
    """Property items of one node or edge, qualified as <role>.<label>.<property>.

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
    include_edge_props: bool = False,
) -> list[tuple[str, object]]:
    """Semantic (feature name, raw value) pairs for one sensor.

    The bound node contributes a ("self.type", label) pair per label and its
    property values as ("self.<label>.<property>", value). For depth >= 1,
    nodes reachable within ``neighbor_depth`` hops (undirected, breadth-first)
    contribute property values under the role of their hop distance
    ("hop1.<label>.<property>", ...). Traversed edges contribute their
    properties under "edge<d>" roles only when ``include_edge_props`` is set.

    The result is ordered lexicographically by (feature name, value) and is
    deterministic; items at depth k are a superset of items at depth k - 1.
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

    adjacency = graph.adjacency()
    visited = {start}
    seen_edges: set[str] = set()
    frontier = [start]
    for depth in range(1, neighbor_depth + 1):
        next_frontier = []
        for node in frontier:
            for edge_id, other in adjacency.get(node, ()):
                if include_edge_props and edge_id not in seen_edges:
                    seen_edges.add(edge_id)
                    items.extend(_owner_items(graph, edge_id, f"edge{depth}"))
                if other not in visited:
                    visited.add(other)
                    next_frontier.append(other)
                    items.extend(_owner_items(graph, other, f"hop{depth}"))
        frontier = sorted(next_frontier)
    return sorted(items, key=lambda kv: (kv[0], str(kv[1])))
