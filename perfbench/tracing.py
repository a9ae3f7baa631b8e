"""In-memory span tracing of semarm's layers, recorded from outside.

While ``Tracer.capture()`` runs a function, the public functions of each
layer are replaced, at the places where ``semarm.cli`` looks them up, with
wrappers that record a span per call: name, start, end, parent span,
enclosing command span and run id, plus counts read from the call's
arguments and result. Spans stay in memory until ``write()``.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import Counter, defaultdict


def _table_counts(args, table):
    counts = [len(f.class_values) for f in table.features]
    return {
        "rows": table.n_rows,
        "features": len(counts),
        "single_class_features": sum(1 for c in counts if c == 1),
        "input_width": sum(counts),
    }


def _graph_counts(args, result):
    graph = result[0]
    return {"nodes": len(graph.node_ids), "edges": len(graph.edge_ids)}


def _train_counts(args, net):
    matrix = args[0]
    config = net.config
    return {
        "rows": matrix.n_rows,
        "steps": config.epochs * math.ceil(matrix.n_rows / config.batch_size),
        "row_passes": config.epochs * matrix.n_rows,
    }


def _extract_counts(args, rules):
    class_counts = args[0].shape.group_layout.class_counts
    return {
        "rules": len(rules),
        "constant_consequent_rules": sum(
            1 for r in rules if class_counts[r.consequent.feature] == 1
        ),
        "antecedents": len({r.antecedent for r in rules}),
    }


def _itemset_counts(args, itemsets):
    sizes = Counter(len(s.items) for s in itemsets)
    return {f"itemsets_l{k}": sizes.get(k, 0) for k in (1, 2, 3)}


def _rules_from_itemsets_counts(args, rules):
    itemsets, max_antecedents = args[0], args[3]
    tried = sum(len(s.items) for s in itemsets if 2 <= len(s.items) <= max_antecedents + 1)
    return {"rules": len(rules), "pairs_tried": tried}


def _targets():
    """(owner, attribute, span name, counter) for every traced layer call."""
    from semarm import autonet, baseline, cli, extract, quality, synth, transact

    model = autonet.TrainedAutoencoder
    return [
        (transact, "load_sensor_csv", "transact.load_sensor_csv",
         lambda a, r: {"readings": len(r.readings)}),
        (transact, "aggregate", "transact.aggregate", None),
        (transact, "build_transactions", "transact.build_transactions", _table_counts),
        (transact, "one_hot_encode", "transact.one_hot_encode", None),
        (cli, "load_graph", "graph.load_graph", _graph_counts),
        (autonet, "train", "autonet.train", _train_counts),
        (autonet, "save_model", "autonet.save_model", None),
        (autonet, "load_model", "autonet.load_model", None),
        (model, "forward", "autonet.forward", lambda a, r: {"rows": 1}),
        (model, "forward_batch", "autonet.forward", lambda a, r: {"rows": len(r)}),
        (extract, "extract_rules", "extract.extract_rules", _extract_counts),
        (extract, "rules_to_json", "extract.rules_to_json", None),
        (quality, "annotate_rules", "quality.annotate_rules", None),
        (quality, "evaluate", "quality.evaluate", lambda a, r: {"rules": r.rule_count}),
        (quality, "report_to_doc", "quality.report", None),
        (quality, "format_report", "quality.report", None),
        (baseline, "mine_frequent", "baseline.mine_frequent", _itemset_counts),
        (baseline, "rules_from_itemsets", "baseline.rules_from_itemsets",
         _rules_from_itemsets_counts),
        (synth, "write_dataset", "synth.write_dataset", None),
    ]


class Tracer:
    """Records spans of the wrapped layer calls; one instance per run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._targets = _targets()

    def open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "command": parent["command"] if parent else None,
            "run": self.run_id,
        }
        if parent is None:
            span["command"] = span["id"]
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict):
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.update(counter(args, result))
            return result

        return traced

    def capture(self, fn, *args) -> list[dict]:
        """Run ``fn(*args)`` with every layer wrapped; return its spans."""
        first = len(self.spans)
        saved = []
        for owner, attr, name, counter in self._targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))
        try:
            fn(*args)
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
        return self.spans[first:]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time(span: dict, children: list[dict]) -> float:
    duration = span["end"] - span["start"]
    return duration - _covered((c["start"], c["end"]) for c in children)


def check_command_spans(spans: list[dict]) -> list[str]:
    """Each command span must equal the sum of its direct children plus its
    self time, with children disjoint and inside the command span."""
    problems = []
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    for span in spans:
        if span["parent"] is not None:
            continue
        kids = sorted(children[span["id"]], key=lambda c: c["start"])
        duration = span["end"] - span["start"]
        kid_sum = sum(c["end"] - c["start"] for c in kids)
        if abs(kid_sum + self_time(span, kids) - duration) > 1e-6:
            problems.append(f"{span['name']}: children overlap")
        if kids and (kids[0]["start"] < span["start"] or kids[-1]["end"] > span["end"]):
            problems.append(f"{span['name']}: a child lies outside the command span")
    return problems


def iteration_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced pipeline iteration (its spans only)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    ids = {span["id"]: span for span in spans}

    def seconds(name, where=None):
        return sum(s["end"] - s["start"] for s in by_name[name] if where is None or where(s))

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    def last(name, key):
        return by_name[name][-1].get(key, 0) if by_name[name] else 0

    def under(command):
        return lambda s: ids[s["command"]]["name"] == command

    extract_spans = by_name["extract.extract_rules"]
    probes = sum(c.get("rows", 0) for s in extract_spans for c in children[s["id"]])
    extract_s = seconds("extract.extract_rules")
    forward_in_extract = sum(
        c["end"] - c["start"] for s in extract_spans for c in children[s["id"]]
    )
    evaluate_s = seconds("quality.evaluate")
    train_s = seconds("autonet.train")
    pairs_tried = total("baseline.rules_from_itemsets", "pairs_tried")
    baseline_rules = total("baseline.rules_from_itemsets", "rules")

    m = {
        "transact.load_sensor_csv_s": seconds("transact.load_sensor_csv"),
        "transact.aggregate_s": seconds("transact.aggregate"),
        "transact.build_transactions_s": seconds("transact.build_transactions"),
        "transact.one_hot_encode_s": seconds("transact.one_hot_encode"),
        "transact.table_builds": len(by_name["transact.build_transactions"]),
        "graph.load_graph_s": seconds("graph.load_graph"),
        "graph.nodes": last("graph.load_graph", "nodes"),
        "graph.edges": last("graph.load_graph", "edges"),
        "autonet.train_s": train_s,
        "autonet.steps": total("autonet.train", "steps"),
        "autonet.train_rows_per_s": (
            total("autonet.train", "row_passes") / train_s if train_s else 0.0
        ),
        "autonet.save_model_s": seconds("autonet.save_model"),
        "autonet.load_model_s": seconds("autonet.load_model"),
        "autonet.forward_s": seconds("autonet.forward"),
        "autonet.forward_rows": total("autonet.forward", "rows"),
        "extract.extract_rules_s": extract_s,
        "extract.self_s": extract_s - forward_in_extract,
        "extract.probes": probes,
        "extract.rules": total("extract.extract_rules", "rules"),
        "extract.constant_consequent_rules": total(
            "extract.extract_rules", "constant_consequent_rules"
        ),
        "extract.productive_probe_ratio": (
            total("extract.extract_rules", "antecedents") / probes if probes else 0.0
        ),
        "extract.rules_to_json_s": seconds("extract.rules_to_json"),
        "quality.annotate_rules_s": seconds("quality.annotate_rules"),
        "quality.evaluate.mine_s": seconds("quality.evaluate", under("cli.mine")),
        "quality.evaluate.baseline_s": seconds("quality.evaluate", under("cli.baseline")),
        "quality.rules_evaluated": total("quality.evaluate", "rules"),
        "quality.rules_per_s": (
            total("quality.evaluate", "rules") / evaluate_s if evaluate_s else 0.0
        ),
        "quality.report_s": seconds("quality.report"),
        "baseline.mine_frequent_s": seconds("baseline.mine_frequent"),
        "baseline.rules_from_itemsets_s": seconds("baseline.rules_from_itemsets"),
        "baseline.itemsets_l1": total("baseline.mine_frequent", "itemsets_l1"),
        "baseline.itemsets_l2": total("baseline.mine_frequent", "itemsets_l2"),
        "baseline.itemsets_l3": total("baseline.mine_frequent", "itemsets_l3"),
        "baseline.rules": baseline_rules,
        "baseline.rule_yield": baseline_rules / pairs_tried if pairs_tried else 0.0,
        "cost.readings": last("transact.load_sensor_csv", "readings"),
        "cost.rows": last("transact.build_transactions", "rows"),
        "cost.features": last("transact.build_transactions", "features"),
        "cost.single_class_features": last(
            "transact.build_transactions", "single_class_features"
        ),
        "cost.input_width": last("transact.build_transactions", "input_width"),
    }
    for command in ("train", "mine", "baseline"):
        m[f"cli.{command}_s"] = seconds(f"cli.{command}")
        m[f"cli.{command}.self_s"] = sum(
            self_time(s, children[s["id"]]) for s in by_name[f"cli.{command}"]
        )
    return m


def median_metrics(iterations: list[dict]) -> dict:
    """Median of each metric over iterations; counts stay whole numbers."""
    return {
        key: (statistics.median_low if isinstance(value, int) else statistics.median)(
            it[key] for it in iterations
        )
        for key, value in iterations[0].items()
    }
