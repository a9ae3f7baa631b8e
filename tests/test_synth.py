import numpy as np
import pytest

from semarm.graph import load_graph, validate_schema
from semarm.synth import (
    PlantedRule,
    SyntheticSpec,
    UnsatisfiableSpecError,
    build_dataset,
    generate_classes,
    spec_to_table,
)
from semarm.transact import Enrichment, aggregate, build_transactions, load_sensor_csv


def class_value_rows(table):
    """Each row of the table as its class values, feature by feature."""
    return [
        [feature.class_values[c] for feature, c in zip(table.features, row)]
        for row in table.rows.tolist()
    ]


def measure_confidence(matrix, rule):
    mask = np.ones(matrix.shape[0], dtype=bool)
    for feat, cls in rule.antecedent:
        mask &= matrix[:, feat] == cls
    if not mask.any():
        return 0.0
    return float((matrix[mask, rule.consequent[0]] == rule.consequent[1]).mean())


class TestGeneration:
    def test_certain_rule_holds_in_every_matching_row(self):
        rule = PlantedRule(((0, 0), (2, 1)), (1, 2), confidence=1.0)
        spec = SyntheticSpec(5, 3, 800, planted=(rule,), seed=1)
        matrix = generate_classes(spec)
        assert measure_confidence(matrix, rule) == 1.0

    def test_fractional_confidence_lands_near_target(self):
        rule = PlantedRule(((0, 0),), (1, 1), confidence=0.9)
        spec = SyntheticSpec(6, 4, 5000, planted=(rule,), seed=2)
        matrix = generate_classes(spec)
        assert 0.87 <= measure_confidence(matrix, rule) <= 0.93

    def test_generation_is_deterministic(self):
        spec = SyntheticSpec(4, 3, 200, planted=(PlantedRule(((0, 0),), (1, 1)),), seed=3)
        assert np.array_equal(generate_classes(spec), generate_classes(spec))

    def test_exclusive_consequent_class_absent_elsewhere(self):
        rule = PlantedRule(((0, 0),), (1, 1), confidence=1.0)
        spec = SyntheticSpec(4, 3, 500, planted=(rule,), seed=4)
        matrix = generate_classes(spec)
        non_matching = matrix[matrix[:, 0] != 0]
        assert not (non_matching[:, 1] == 1).any()

    def test_noise_leaves_planted_columns_alone(self):
        rule = PlantedRule(((0, 0),), (1, 1), confidence=1.0)
        spec = SyntheticSpec(6, 3, 1000, planted=(rule,), noise_rate=0.3, seed=5)
        matrix = generate_classes(spec)
        assert measure_confidence(matrix, rule) == 1.0

    def test_matrix_shape_and_range(self):
        spec = SyntheticSpec(7, 4, 100, seed=6)
        matrix = generate_classes(spec)
        assert matrix.shape == (100, 7)
        assert matrix.min() >= 0 and matrix.max() < 4


class TestSpecValidation:
    def test_conflicting_pair_reported(self):
        rules = (
            PlantedRule(((0, 0),), (2, 1), confidence=1.0),
            PlantedRule(((1, 0),), (2, 2), confidence=1.0),
        )
        with pytest.raises(UnsatisfiableSpecError, match="conflicting"):
            SyntheticSpec(4, 3, 100, planted=rules)

    def test_incompatible_antecedents_do_not_conflict(self):
        rules = (
            PlantedRule(((0, 0),), (2, 1), confidence=1.0),
            PlantedRule(((0, 1),), (2, 2), confidence=1.0),
        )
        spec = SyntheticSpec(4, 4, 400, planted=rules, seed=7)
        matrix = generate_classes(spec)
        for rule in rules:
            assert measure_confidence(matrix, rule) == 1.0

    def test_out_of_range_item_rejected(self):
        with pytest.raises(UnsatisfiableSpecError):
            SyntheticSpec(3, 3, 10, planted=(PlantedRule(((9, 0),), (1, 1)),))

    def test_consequent_in_antecedent_rejected(self):
        with pytest.raises(UnsatisfiableSpecError):
            SyntheticSpec(3, 3, 10, planted=(PlantedRule(((1, 0),), (1, 1)),))

    def test_exclusivity_needs_a_free_class(self):
        rules = tuple(
            PlantedRule(((0, c),), (1, c), confidence=1.0) for c in range(3)
        )
        with pytest.raises(UnsatisfiableSpecError, match="free class"):
            SyntheticSpec(3, 3, 100, planted=rules)


class TestDatasetFiles:
    def test_build_dataset_is_byte_deterministic(self):
        spec = SyntheticSpec(4, 3, 50, seed=8)
        _, csv1, graph1 = build_dataset(spec)
        _, csv2, graph2 = build_dataset(spec)
        assert csv1 == csv2 and graph1 == graph2

    def test_csv_round_trips_through_pipeline(self):
        spec = SyntheticSpec(3, 3, 40, seed=9)
        matrix, csv_text, _ = build_dataset(spec)
        series = aggregate(load_sensor_csv(csv_text), spec.window_seconds)
        table = build_transactions(series)
        direct = spec_to_table(spec, matrix)
        assert [f.name for f in table.features] == [f.name for f in direct.features]
        # class values observed in the CSV map back to the same assignments
        assert class_value_rows(table) == class_value_rows(direct)

    def test_graph_conforms_to_its_ontology_and_binds_all_sensors(self):
        spec = SyntheticSpec(5, 3, 20, seed=10, zones=2)
        _, _, graph_text = build_dataset(spec)
        graph, ontology, binding = load_graph(graph_text)
        assert validate_schema(graph, ontology) == []
        assert sorted(binding.sensor_to_node) == [f"s{i:02d}" for i in range(5)]

    def test_enrichment_path_is_exercisable(self):
        spec = SyntheticSpec(4, 3, 30, seed=11)
        _, csv_text, graph_text = build_dataset(spec)
        graph, _, binding = load_graph(graph_text)
        series = aggregate(load_sensor_csv(csv_text), spec.window_seconds)
        table = build_transactions(series, Enrichment(graph, binding, depth=1))
        names = [f.name for f in table.features]
        assert "s00.self.type" in names
        assert "s00.self.Device.zone" in names
        assert "s00.hop1.Area.floor" in names
