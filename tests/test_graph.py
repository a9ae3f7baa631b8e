import copy
import json
import re
from functools import reduce
from operator import getitem

import pytest

from semarm.graph import (
    Binding,
    GraphFormatError,
    GraphIntegrityError,
    Ontology,
    PropertyGraph,
    SchemaViolation,
    UnboundSensorError,
    dump_graph,
    load_graph,
    semantic_items_for_sensor,
    validate_schema,
)

from conftest import WATER_GRAPH


@pytest.fixture
def water():
    return load_graph(json.dumps(WATER_GRAPH))


class TestValidateSchema:
    def test_conformant_graph_has_no_violations(self, water):
        graph, ontology, _ = water
        assert validate_schema(graph, ontology) == []

    def test_empty_graph_conforms_vacuously(self):
        assert validate_schema(PropertyGraph(), Ontology()) == []

    def test_unknown_label_is_reported(self):
        graph = PropertyGraph(
            node_ids={"v1"}, labels={"v1": {"Valve"}}, properties={"v1": {}}
        )
        ontology = Ontology(classes={"Pipe", "Junction"})
        violations = validate_schema(graph, ontology)
        assert violations == [SchemaViolation("v1", "label", "Valve")]

    def test_unknown_property_is_reported(self, water):
        graph, ontology, _ = water
        graph.properties["p1"]["diameter"] = 30
        violations = validate_schema(graph, ontology)
        assert SchemaViolation("p1", "property", "diameter") in violations
        assert len(violations) == 1


class TestLoadGraph:
    def test_minimal_document(self):
        doc = {
            "ontology": {"classes": ["Pipe"], "relations": [], "properties": [], "owned": {}},
            "nodes": [{"id": "n1", "labels": ["Pipe"], "props": {}}],
            "edges": [],
            "bindings": {"s1": "n1"},
        }
        graph, ontology, binding = load_graph(json.dumps(doc))
        assert graph.node_ids == {"n1"}
        assert graph.edge_ids == set()
        assert binding.sensor_to_node == {"s1": "n1"}

    def test_edge_to_missing_node_is_integrity_error(self):
        doc = {
            "ontology": {"classes": [], "relations": [], "properties": [], "owned": {}},
            "nodes": [{"id": "n1"}],
            "edges": [{"id": "e1", "from": "n1", "to": "ghost"}],
            "bindings": {},
        }
        with pytest.raises(GraphIntegrityError):
            load_graph(json.dumps(doc))

    def test_binding_to_missing_node_is_integrity_error(self):
        doc = {
            "ontology": {"classes": [], "relations": [], "properties": [], "owned": {}},
            "nodes": [{"id": "n1"}],
            "edges": [],
            "bindings": {"s1": "ghost"},
        }
        with pytest.raises(GraphIntegrityError):
            load_graph(json.dumps(doc))

    def test_malformed_json_is_format_error(self):
        with pytest.raises(GraphFormatError):
            load_graph("{not json")

    def test_missing_section_is_format_error(self):
        with pytest.raises(GraphFormatError):
            load_graph(json.dumps({"nodes": []}))

    @pytest.mark.parametrize("path, value, message", [
        (("ontology",), [], "ontology must be an object"),
        (("ontology", "relations"), {}, "ontology relations must be an array"),
        (("ontology", "relations", 0), "connected_to", "ontology relation 0 must be an object"),
        (("ontology", "relations", 0, "name"), None, "ontology relation 0: missing key 'name'"),
        (("ontology", "relations", 0, "name"), 5, "ontology relation 0 name must be a string"),
        (("ontology", "relations", 0, "from"), ["Pipe"],
         "ontology relation 0 'from' must be a string"),
        (("ontology", "classes"), "Pipe", "ontology classes must be an array"),
        (("ontology", "properties", 0), 5, "ontology properties entry 5 must be a string"),
        (("ontology", "owned"), [], "ontology owned must be an object"),
        (("ontology", "owned", "Pipe"), "length", "ontology owned 'Pipe' must be an array"),
        (("nodes",), {}, "nodes must be an array"),
        (("nodes", 2), 5, "node 2 must be an object"),
        (("nodes", 0, "id"), 5, "node 0 id must be a string"),
        (("nodes", 0, "labels"), "Pipe", "node 'p1' labels must be an array"),
        (("nodes", 0, "props"), [["length", 850]], "node 'p1' props must be an object"),
        (("nodes", 0, "props", "length"), [850],
         "node 'p1' props 'length' must be a string, number or boolean"),
        (("edges",), {}, "edges must be an array"),
        (("edges", 0), "e1", "edge 0 must be an object"),
        (("edges", 0, "from"), ["p1"], "edge 0 'from' must be a string"),
        (("edges", 1, "labels", 0), 5, "edge 'e2' labels entry 5 must be a string"),
        (("edges", 1, "props"), ["order"], "edge 'e2' props must be an object"),
        (("bindings",), [["s1", "p1"]], "bindings must be an object"),
        (("bindings", "s1"), ["p1"], "binding for sensor 's1' must be a string"),
    ])
    def test_wrong_json_type_is_named_format_error(self, path, value, message):
        """Each mutation sets ``path`` to ``value``; None deletes it."""
        doc = copy.deepcopy(WATER_GRAPH)
        *parents, last = path
        owner = reduce(getitem, parents, doc)
        if value is None:
            del owner[last]
        else:
            owner[last] = value
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            load_graph(json.dumps(doc))

    def test_bytes_and_stream_sources(self, water_graph_json):
        import io

        from_bytes = load_graph(water_graph_json.encode())
        from_stream = load_graph(io.StringIO(water_graph_json))
        assert from_bytes[0].node_ids == from_stream[0].node_ids

    def test_dump_then_load_round_trips(self, water):
        graph, ontology, binding = water
        text = dump_graph(graph, ontology, binding)
        graph2, ontology2, binding2 = load_graph(text)
        assert graph2 == graph
        assert ontology2 == ontology
        assert binding2 == binding
        # serialization is canonical: a second dump is byte-identical
        assert dump_graph(graph2, ontology2, binding2) == text


class TestSemanticItems:
    def test_depth_zero_returns_type_and_own_properties(self, water):
        graph, _, binding = water
        items = semantic_items_for_sensor(graph, binding, "s1", neighbor_depth=0)
        assert items == [("self.Pipe.length", 850), ("self.type", "Pipe")]

    def test_depth_zero_without_properties_is_single_type_item(self):
        graph = PropertyGraph(node_ids={"n"}, labels={"n": {"Junction"}}, properties={"n": {}})
        binding = Binding({"s": "n"})
        assert semantic_items_for_sensor(graph, binding, "s", 0) == [("self.type", "Junction")]

    def test_depth_one_reaches_junction_elevation(self, water):
        graph, _, binding = water
        items = semantic_items_for_sensor(graph, binding, "s1", neighbor_depth=1)
        assert ("hop1.Junction.elevation", 12.5) in items
        # hand-enumerated: self items plus the single hop-1 neighbor
        assert items == [
            ("hop1.Junction.elevation", 12.5),
            ("self.Pipe.length", 850),
            ("self.type", "Pipe"),
        ]

    def test_depth_two_adds_second_hop_pipe(self, water):
        graph, _, binding = water
        depth1 = semantic_items_for_sensor(graph, binding, "s1", 1)
        depth2 = semantic_items_for_sensor(graph, binding, "s1", 2)
        assert set(depth1) <= set(depth2)
        assert ("hop2.Pipe.length", 430) in depth2

    @pytest.mark.parametrize("edge_props", [False, True])
    def test_depths_are_nested(self, water, edge_props):
        graph, _, binding = water
        for sensor in ("s1", "s2", "s3"):
            previous = set()
            for depth in range(4):
                current = set(
                    semantic_items_for_sensor(
                        graph, binding, sensor, depth, include_edge_props=edge_props
                    )
                )
                assert previous <= current
                previous = current

    def test_round_trip_preserves_signatureless_relations(self):
        ontology = Ontology(classes={"Pipe"}, relations={"touches"})
        graph = PropertyGraph(node_ids={"n"}, labels={"n": {"Pipe"}}, properties={"n": {}})
        text = dump_graph(graph, ontology, Binding({}))
        _, loaded, _ = load_graph(text)
        assert loaded == ontology

    def test_deterministic_and_sorted(self, water):
        graph, _, binding = water
        first = semantic_items_for_sensor(graph, binding, "s2", 2)
        second = semantic_items_for_sensor(graph, binding, "s2", 2)
        assert first == second
        assert first == sorted(first, key=lambda kv: (kv[0], str(kv[1])))

    def test_unbound_sensor_raises(self, water):
        graph, _, binding = water
        with pytest.raises(UnboundSensorError, match="^sensor 'nope' has no binding in the graph$"):
            semantic_items_for_sensor(graph, binding, "nope", 1)

    def test_negative_depth_rejected(self, water):
        graph, _, binding = water
        with pytest.raises(ValueError):
            semantic_items_for_sensor(graph, binding, "s1", -1)

    def test_edge_properties_only_when_requested(self, water):
        graph, _, binding = water
        plain = semantic_items_for_sensor(graph, binding, "s3", 1)
        with_edges = semantic_items_for_sensor(graph, binding, "s3", 1, include_edge_props=True)
        assert all(not name.startswith("edge") for name, _ in plain)
        assert ("edge1.connected_to.order", 2) in with_edges
        assert set(plain) <= set(with_edges)

    def test_multi_labeled_node_yields_one_type_item_per_label(self):
        graph = PropertyGraph(
            node_ids={"n"},
            labels={"n": {"Pipe", "Asset"}},
            properties={"n": {"length": 5}},
        )
        binding = Binding({"s": "n"})
        items = semantic_items_for_sensor(graph, binding, "s", 0)
        assert ("self.type", "Asset") in items and ("self.type", "Pipe") in items
        assert ("self.Asset.length", 5) in items and ("self.Pipe.length", 5) in items
