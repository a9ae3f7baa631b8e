"""Command-line pipeline: synthesize benchmark data, train the autoencoder,
extract rules, run the exhaustive baseline, and compare reports.

Exit codes: 0 ok, 2 usage error, 3 data error, 4 internal error. Every
failure prints a single machine-parseable ``error: <category>: ...`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import autonet, baseline, extract, quality, synth, transact
from .graph import (
    GraphFormatError,
    GraphIntegrityError,
    UnboundSensorError,
    load_graph,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output directory", default=None)


def _add_pipeline_flags(parser):
    parser.add_argument("--sensors", help="sensor readings CSV")
    parser.add_argument("--graph", help="graph JSON (required with --enrich)")
    parser.add_argument("--window-seconds", type=float)
    parser.add_argument("--intervals", type=int)
    parser.add_argument("--enrich", action=argparse.BooleanOptionalAction)
    parser.add_argument("--depth", type=int)
    parser.add_argument("--sample-sensors", type=int, help="graph-walk sample size")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semarm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with planted rules")
    _add_common(p)
    p.add_argument("--rows", type=int)
    p.add_argument("--features", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--noise-rate", type=float)
    p.add_argument("--zones", type=int)
    p.add_argument("--window-seconds", type=int)
    p.add_argument("--planted", help="JSON list of planted rules")
    p.add_argument("--exclusive-consequents", action=argparse.BooleanOptionalAction)

    p = sub.add_parser("train", help="train the autoencoder on pipeline output")
    _add_common(p)
    _add_pipeline_flags(p)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--noise-factor", type=float)
    p.add_argument("--batch-size", type=int)

    p = sub.add_parser("mine", help="extract rules from a trained model")
    _add_common(p)
    _add_pipeline_flags(p)
    p.add_argument("--model", help="model JSON written by train")
    p.add_argument("--manifest", help="manifest path (default: manifest.json beside the model)")
    p.add_argument("--similarity-threshold", type=float)
    p.add_argument("--max-antecedents", type=int)
    p.add_argument("--mark-features", help="comma-separated feature names to mark")

    p = sub.add_parser("baseline", help="run the exhaustive miner")
    _add_common(p)
    _add_pipeline_flags(p)
    p.add_argument("--min-support", type=float)
    p.add_argument("--coupled", action="store_true", default=None,
                   help="derive min support from a rules file")
    p.add_argument("--rules", help="rules JSON for --coupled")
    p.add_argument("--min-confidence", type=float)
    p.add_argument("--max-antecedents", type=int)

    p = sub.add_parser("compare", help="compare report files side by side")
    _add_common(p)
    p.add_argument("--left", nargs="+", help="report JSON files (macro-averaged)")
    p.add_argument("--right", nargs="+", help="report JSON files (macro-averaged)")
    p.add_argument("--left-label", default="left")
    p.add_argument("--right-label", default="right")

    return parser


class _Settings:
    """Flag > config-file > default resolution for one subcommand run."""

    def __init__(self, args):
        self.args = args
        self.config = {}
        if getattr(args, "config", None):
            with open(args.config, "r", encoding="utf-8") as fh:
                self.config = json.load(fh)
            if not isinstance(self.config, dict):
                raise ValueError("config file must hold a JSON object")

    def get(self, key: str, default=None, required: bool = False):
        value = getattr(self.args, key.replace("-", "_"), None)
        if value is None:
            value = self.config.get(key, default)
        if value is None and required:
            raise UsageError(f"missing required option --{key}")
        return value


def _out_dir(settings) -> Path:
    out = Path(settings.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: Path, doc):
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_outputs(out: Path, prefix: str, rules, report, features, **extra):
    """One route's rules, report (``extra`` as top-level keys) and text report."""
    _write_text(out / f"{prefix}rules.json", extract.rules_to_json(rules, features) + "\n")
    report_json = quality.report_to_json(report, features, **extra)
    _write_text(out / f"{prefix}report.json", report_json + "\n")
    _write_text(out / f"{prefix}report.txt", quality.format_report(report, features))


def _sample_sensor_walk(graph, binding, count: int, seed: int) -> list[str]:
    """Pick a seeded random bound sensor and widen over graph neighbors until
    ``count`` bound sensors are collected."""
    node_to_sensors: dict[str, list[str]] = {}
    for sensor, node in sorted(binding.sensor_to_node.items()):
        node_to_sensors.setdefault(node, []).append(sensor)
    sensors = sorted(binding.sensor_to_node)
    if count >= len(sensors):
        return sensors
    rng = np.random.default_rng(seed)
    start_sensor = sensors[int(rng.integers(0, len(sensors)))]
    adjacency = graph.adjacency()
    picked: list[str] = []
    visited = set()
    frontier = [binding.sensor_to_node[start_sensor]]
    while frontier and len(picked) < count:
        next_frontier = []
        for node in frontier:
            if node in visited:
                continue
            visited.add(node)
            for sensor in node_to_sensors.get(node, ()):
                if len(picked) < count:
                    picked.append(sensor)
            for _, other in adjacency.get(node, ()):
                if other not in visited:
                    next_frontier.append(other)
        frontier = sorted(set(next_frontier))
    return sorted(picked)


def _build_table(settings, keep_sensors=None):
    """Shared ingestion path: CSV -> aggregate -> (optional) enrich -> table."""
    with open(settings.get("sensors", required=True), "r", encoding="utf-8") as fh:
        series = transact.load_sensor_csv(fh)
    window = float(settings.get("window-seconds", 60.0))
    intervals = int(settings.get("intervals", transact.DEFAULT_INTERVALS))
    enrich = bool(settings.get("enrich", False))
    depth = int(settings.get("depth", 1))

    graph = ontology = binding = None
    graph_path = settings.get("graph")
    if graph_path:
        with open(graph_path, "r", encoding="utf-8") as fh:
            graph, ontology, binding = load_graph(fh)

    sample = settings.get("sample-sensors")
    if keep_sensors is None and sample is not None:
        if graph is None:
            raise ValueError("--sample-sensors needs --graph")
        keep_sensors = _sample_sensor_walk(graph, binding, int(sample), int(settings.get("seed", 0)))
    if keep_sensors is not None:
        series = series.select(keep_sensors)
        if not series.timestamps.size:
            raise ValueError("sensor selection removed every reading")

    aggregated = transact.aggregate(series, window)
    enrichment = None
    if enrich:
        if graph is None:
            raise ValueError("--enrich needs --graph")
        enrichment = transact.Enrichment(graph, binding, depth=depth)
    table = transact.build_transactions(aggregated, enrichment, intervals)
    pipeline = {
        "window_seconds": window,
        "intervals": intervals,
        "enrich": enrich,
        "depth": depth,
        "sensors": aggregated.sensors,
    }
    return table, pipeline


def _feature_docs(features) -> list[dict]:
    return [
        {
            "name": f.name,
            "kind": f.kind,
            "class_values": list(f.class_values),
            "bin_edges": list(f.bin_edges),
        }
        for f in features
    ]


def cmd_synth(settings) -> int:
    planted_raw = settings.get("planted", [])
    if isinstance(planted_raw, str):
        planted_raw = json.loads(planted_raw)
    planted = tuple(
        synth.PlantedRule(
            antecedent=tuple((int(f), int(c)) for f, c in rule["antecedent"]),
            consequent=(int(rule["consequent"][0]), int(rule["consequent"][1])),
            confidence=float(rule.get("confidence", 1.0)),
        )
        for rule in planted_raw
    )
    spec = synth.SyntheticSpec(
        features=int(settings.get("features", 10)),
        classes_per_feature=int(settings.get("classes", 4)),
        rows=int(settings.get("rows", 1000)),
        planted=planted,
        noise_rate=float(settings.get("noise-rate", 0.0)),
        seed=int(settings.get("seed", 0)),
        exclusive_consequents=bool(settings.get("exclusive-consequents", True)),
        zones=int(settings.get("zones", 2)),
        window_seconds=int(settings.get("window-seconds", 60)),
    )
    out = _out_dir(settings)
    synth.write_dataset(spec, out / "sensors.csv", out / "graph.json")
    print(f"wrote {out / 'sensors.csv'} and {out / 'graph.json'} "
          f"({spec.rows} rows, {spec.features} sensors, {len(spec.planted)} planted rules)")
    return EXIT_OK


def cmd_train(settings) -> int:
    started = time.perf_counter()
    table, pipeline = _build_table(settings)
    ingest_seconds = time.perf_counter() - started
    started = time.perf_counter()
    matrix = transact.one_hot_encode(table)
    config = autonet.TrainingConfig(
        learning_rate=float(settings.get("learning-rate", 5e-3)),
        epochs=int(settings.get("epochs", 5)),
        weight_decay=float(settings.get("weight-decay", 2e-8)),
        noise_factor=float(settings.get("noise-factor", 0.5)),
        batch_size=int(settings.get("batch-size", 64)),
        rng_seed=int(settings.get("seed", 0)),
    )
    shape = autonet.NetworkShape.default_for(matrix.layout)
    net = autonet.train(matrix, shape, config)
    train_seconds = time.perf_counter() - started

    out = _out_dir(settings)
    autonet.save_model(net, out / "model.json")
    manifest = {
        "features": _feature_docs(table.features),
        "pipeline": pipeline,
        "training": autonet.model_to_doc(net)["config"],
        "seed": config.rng_seed,
        "final_loss": net.final_loss,
        "timings": {"ingest_seconds": ingest_seconds, "train_seconds": train_seconds},
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {out / 'model.json'} (final loss {net.final_loss:.4f}, "
          f"{table.n_rows} transactions, {table.n_features} features)")
    return EXIT_OK


def _rebuild_from_manifest(settings, manifest):
    pipeline = manifest["pipeline"]
    for key, name in (
        ("window_seconds", "window-seconds"),
        ("intervals", "intervals"),
        ("enrich", "enrich"),
        ("depth", "depth"),
    ):
        if settings.get(name) is None:
            settings.config[name] = pipeline[key]
    table, _ = _build_table(settings, keep_sensors=pipeline["sensors"])
    if _feature_docs(table.features) != manifest["features"]:
        raise ValueError(
            "model manifest does not match the rebuilt table; "
            "re-run train with the current inputs"
        )
    return table


def cmd_mine(settings) -> int:
    model_path = Path(settings.get("model", required=True))
    manifest_path = settings.get("manifest") or model_path.parent / "manifest.json"
    manifest = _read_json(manifest_path)
    net = autonet.load_model(model_path)
    table = _rebuild_from_manifest(settings, manifest)
    if net.shape.group_layout != table.layout():
        raise ValueError("model layout does not match the rebuilt table")

    markable = None
    mark_raw = settings.get("mark-features")
    if mark_raw:
        names = [n.strip() for n in str(mark_raw).split(",") if n.strip()]
        try:
            markable = frozenset(table.feature_index(name) for name in names)
        except KeyError as exc:
            raise ValueError(f"--mark-features: unknown feature {exc}") from exc
    config = extract.ExtractionConfig(
        similarity_threshold=float(settings.get("similarity-threshold", 0.8)),
        max_antecedents=int(settings.get("max-antecedents", 2)),
        markable_features=markable,
    )
    started = time.perf_counter()
    rules = extract.extract_rules(net, config)
    extract_seconds = time.perf_counter() - started
    report = quality.evaluate(rules, table)
    annotated = [stats.rule for stats in report.per_rule]

    out = _out_dir(settings)
    _write_outputs(out, "", annotated, report, table.features,
                   timings={"extract_seconds": extract_seconds})
    print(f"wrote {out / 'rules.json'} ({report.rule_count} rules, "
          f"data coverage {report.data_coverage:.2f})")
    return EXIT_OK


def cmd_baseline(settings) -> int:
    table, _ = _build_table(settings)
    min_confidence = float(settings.get("min-confidence", 0.8))
    max_antecedents = int(settings.get("max-antecedents", 2))

    if settings.get("coupled", False):
        rules_path = settings.get("rules")
        if not rules_path:
            raise UsageError("--coupled needs --rules <rules JSON from a mine run>")
        with open(rules_path, "r", encoding="utf-8") as fh:
            reference_rules = extract.rules_from_json(fh.read(), table.features)
        if not reference_rules:
            raise ValueError("cannot couple the support threshold to an empty rules file")
        min_support = baseline.coupled_support_threshold(reference_rules, table)
    else:
        min_support = settings.get("min-support")
        if min_support is None:
            raise UsageError("baseline needs --min-support or --coupled")
        min_support = float(min_support)

    started = time.perf_counter()
    itemsets = baseline.mine_frequent(table, min_support, max_size=max_antecedents + 1)
    rules = baseline.rules_from_itemsets(itemsets, table, min_confidence, max_antecedents)
    mine_seconds = time.perf_counter() - started
    report = quality.evaluate(rules, table)

    out = _out_dir(settings)
    _write_outputs(out, "baseline_", rules, report, table.features,
                   min_support=min_support, timings={"mine_seconds": mine_seconds})
    print(f"wrote {out / 'baseline_rules.json'} ({report.rule_count} rules "
          f"at min support {min_support:.4f})")
    return EXIT_OK


_COMPARE_KEYS = (
    ("rule_count", "# rules"),
    ("mean_support", "support"),
    ("mean_confidence", "confidence"),
    ("mean_coverage", "coverage"),
    ("data_coverage", "data cov."),
    ("mean_zhang", "zhang"),
)


def _macro_mean(reports: list[dict]) -> dict:
    merged = {key: sum(r[key] for r in reports) / len(reports) for key, _ in _COMPARE_KEYS}
    seconds = [sum(v for k, v in r.get("timings", {}).items() if k.endswith("_seconds"))
               for r in reports]
    merged["seconds"] = sum(seconds) / len(seconds)
    return merged


def cmd_compare(settings) -> int:
    left_paths = settings.get("left", required=True)
    right_paths = settings.get("right", required=True)
    left = _macro_mean([_read_json(p) for p in left_paths])
    right = _macro_mean([_read_json(p) for p in right_paths])
    left_label = settings.get("left-label", "left")
    right_label = settings.get("right-label", "right")

    lines = [f"{'metric':<12} {left_label:>12} {right_label:>12} {'delta':>12}"]
    lines.append("-" * len(lines[0]))
    for key, label in _COMPARE_KEYS:
        delta = left[key] - right[key]
        lines.append(f"{label:<12} {left[key]:>12.4f} {right[key]:>12.4f} {delta:>12.4f}")
    lines.append(
        f"{'seconds':<12} {left['seconds']:>12.4f} {right['seconds']:>12.4f} "
        f"{left['seconds'] - right['seconds']:>12.4f}"
    )
    text = "\n".join(lines) + "\n"

    out = _out_dir(settings)
    _write_text(out / "compare.txt", text)
    _write_json(
        out / "compare.json",
        {"left": left, "right": right, "left_label": left_label, "right_label": right_label},
    )
    sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "mine": cmd_mine,
    "baseline": cmd_baseline,
    "compare": cmd_compare,
}

_DATA_ERRORS = (
    OSError,
    json.JSONDecodeError,
    GraphFormatError,
    GraphIntegrityError,
    UnboundSensorError,
    synth.UnsatisfiableSpecError,
    ValueError,
    KeyError,
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        settings = _Settings(args)
        return _COMMANDS[args.command](settings)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: data: {message}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
