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
from dataclasses import asdict, fields
from itertools import islice
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


def _json_text(text: str) -> str:
    """Type of a flag that takes JSON text; a config file may hold the value itself."""
    return text


# The JSON type a config file or manifest must give an option, by the type its flag declares.
_JSON_TYPES = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) is float or type(v) is int and abs(v) <= sys.float_info.max,
            "a number"),
    bool: (lambda v: type(v) is bool, "a boolean"),
    str: (lambda v: type(v) is str, "a string"),
    list: (lambda v: type(v) is list and all(type(s) is str for s in v), "an array of strings"),
    _json_text: (lambda v: type(v) in (str, list), "JSON text or an array"),
}


def _checked(value, kind, name: str):
    """``value`` from a JSON document, checked to have the JSON type of ``kind``."""
    accepts, noun = _JSON_TYPES[kind]
    if not accepts(value):
        raise ValueError(f"{name} must be {noun}")
    return float(value) if kind is float else value


def _typed(options, source: str, doc, sep: str = "-") -> dict:
    """Entries of JSON object ``doc`` naming an option of ``options`` (words joined by
    ``sep``), by dest, each checked against the type its flag declares; others are ignored."""
    if not isinstance(doc, dict):
        raise ValueError(f"{source} must be a JSON object")
    typed = {}
    for action in options._actions:
        key = action.dest.replace("_", sep)
        if key in doc and action.dest != "help":
            kind = list if action.nargs == "+" else bool if action.nargs == 0 else action.type or str
            typed[action.dest] = _checked(doc[key], kind, f"{source} '{key}'")
    return typed


def _add_common(parser, run):
    parser.set_defaults(run=run, options=parser)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output directory", default=".")


def _add_pipeline_flags(parser):
    parser.add_argument("--sensors", help="sensor readings CSV")
    parser.add_argument("--graph", help="graph JSON (required with --enrich)")
    parser.add_argument("--window-seconds", type=float, default=60.0)
    parser.add_argument("--intervals", type=int, default=transact.DEFAULT_INTERVALS)
    parser.add_argument("--enrich", action=argparse.BooleanOptionalAction, default=False)
    parser.add_argument("--depth", type=int, default=1)
    parser.add_argument("--sample-sensors", type=int, help="graph-walk sample size")


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand's parser sets ``run``, its command, and ``options``, itself."""
    parser = _Parser(prog="semarm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with planted rules")
    _add_common(p, cmd_synth)
    p.add_argument("--rows", type=int)
    p.add_argument("--features", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--noise-rate", type=float)
    p.add_argument("--zones", type=int)
    p.add_argument("--window-seconds", type=int)
    p.add_argument("--planted", type=_json_text, help="JSON list of planted rules")
    p.add_argument("--exclusive-consequents", action=argparse.BooleanOptionalAction)

    p = sub.add_parser("train", help="train the autoencoder on pipeline output")
    _add_common(p, cmd_train)
    _add_pipeline_flags(p)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--noise-factor", type=float)
    p.add_argument("--batch-size", type=int)

    p = sub.add_parser("mine", help="extract rules from a trained model")
    _add_common(p, cmd_mine)
    _add_pipeline_flags(p)
    # unless given, taken from the manifest the model was trained with
    p.set_defaults(window_seconds=None, intervals=None, enrich=None, depth=None)
    p.add_argument("--model", help="model JSON written by train")
    p.add_argument("--manifest", help="manifest path (default: manifest.json beside the model)")
    p.add_argument("--similarity-threshold", type=float)
    p.add_argument("--max-antecedents", type=int)
    p.add_argument("--mark-features", help="comma-separated feature names to mark")

    p = sub.add_parser("baseline", help="run the exhaustive miner")
    _add_common(p, cmd_baseline)
    _add_pipeline_flags(p)
    p.add_argument("--min-support", type=float)
    p.add_argument("--coupled", action="store_true", help="derive min support from a rules file")
    p.add_argument("--rules", help="rules JSON for --coupled")
    p.add_argument("--min-confidence", type=float, default=0.8)
    p.add_argument("--max-antecedents", type=int, default=2)

    p = sub.add_parser("compare", help="compare report files side by side")
    _add_common(p, cmd_compare)
    p.add_argument("--left", nargs="+", help="report JSON files (macro-averaged)")
    p.add_argument("--right", nargs="+", help="report JSON files (macro-averaged)")
    p.add_argument("--left-label", default="left")
    p.add_argument("--right-label", default="right")

    return parser


def _required(value, flag: str):
    if value is None:
        raise UsageError(f"missing required option {flag}")
    return value


def _from_options(cls, args, **values):
    """``cls`` from ``values`` and the like-named options; a field left None keeps its default."""
    for field in fields(cls):
        values.setdefault(field.name, getattr(args, field.name, None))
    return cls(**{name: value for name, value in values.items() if value is not None})


def _out_dir(args) -> Path:
    out = Path(args.out)
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
    sensors = sorted(binding.sensor_to_node)
    if count >= len(sensors):
        return sensors
    node_to_sensors: dict[str, list[str]] = {}
    for sensor in sensors:
        node_to_sensors.setdefault(binding.sensor_to_node[sensor], []).append(sensor)
    rng = np.random.default_rng(seed)
    start = binding.sensor_to_node[sensors[int(rng.integers(0, len(sensors)))]]
    along = (sensor for ring in graph.hop_rings(start) for node in ring
             for sensor in node_to_sensors.get(node, ()))
    return sorted(islice(along, max(count, 0)))


def _build_table(args, keep_sensors=None):
    """Shared ingestion path: CSV -> aggregate -> (optional) enrich -> table."""
    with open(_required(args.sensors, "--sensors"), "r", encoding="utf-8") as fh:
        series = transact.load_sensor_csv(fh)
    graph = ontology = binding = None
    if args.graph:
        with open(args.graph, "r", encoding="utf-8") as fh:
            graph, ontology, binding = load_graph(fh)

    if keep_sensors is None and args.sample_sensors is not None:
        if graph is None:
            raise ValueError("--sample-sensors needs --graph")
        keep_sensors = _sample_sensor_walk(graph, binding, args.sample_sensors, args.seed or 0)
    if keep_sensors is not None:
        series = series.select(keep_sensors)
        if not series.timestamps.size:
            raise ValueError("sensor selection removed every reading")

    aggregated = transact.aggregate(series, args.window_seconds)
    enrichment = None
    if args.enrich:
        if graph is None:
            raise ValueError("--enrich needs --graph")
        enrichment = transact.Enrichment(graph, binding, depth=args.depth)
    table = transact.build_transactions(aggregated, enrichment, args.intervals)
    pipeline = {
        "window_seconds": args.window_seconds,
        "intervals": args.intervals,
        "enrich": args.enrich,
        "depth": args.depth,
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


def _planted_rules(raw) -> tuple[synth.PlantedRule, ...]:
    """Planted rules from ``--planted`` JSON text or a config file's array."""
    if isinstance(raw, str):
        raw = json.loads(raw)
    if not isinstance(raw, list):
        raise ValueError("planted rules must be a JSON array")
    planted = []
    for i, rule in enumerate(raw):
        if not isinstance(rule, dict):
            raise ValueError(f"planted rule {i} must be an object")
        try:
            planted.append(synth.PlantedRule(
                antecedent=tuple((int(f), int(c)) for f, c in rule["antecedent"]),
                consequent=(int(rule["consequent"][0]), int(rule["consequent"][1])),
                confidence=float(rule.get("confidence", 1.0)),
            ))
        except TypeError as exc:  # a number where a list belongs, or the reverse
            raise ValueError(f"planted rule {i}: {exc}") from exc
    return tuple(planted)


def cmd_synth(args) -> int:
    planted = None if args.planted is None else _planted_rules(args.planted)
    spec = _from_options(synth.SyntheticSpec, args,
                         classes_per_feature=args.classes, planted=planted)
    out = _out_dir(args)
    synth.write_dataset(spec, out / "sensors.csv", out / "graph.json")
    print(f"wrote {out / 'sensors.csv'} and {out / 'graph.json'} "
          f"({spec.rows} rows, {spec.features} sensors, {len(spec.planted)} planted rules)")
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.perf_counter()
    table, pipeline = _build_table(args)
    ingest_seconds = time.perf_counter() - started
    started = time.perf_counter()
    matrix = transact.one_hot_encode(table)
    config = _from_options(autonet.TrainingConfig, args, rng_seed=args.seed)
    shape = autonet.NetworkShape.default_for(matrix.layout)
    net = autonet.train(matrix, shape, config)
    train_seconds = time.perf_counter() - started

    out = _out_dir(args)
    autonet.save_model(net, out / "model.json")
    manifest = {
        "features": _feature_docs(table.features),
        "pipeline": pipeline,
        "training": asdict(net.config),
        "seed": config.rng_seed,
        "final_loss": net.final_loss,
        "timings": {"ingest_seconds": ingest_seconds, "train_seconds": train_seconds},
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {out / 'model.json'} (final loss {net.final_loss:.4f}, "
          f"{table.n_rows} transactions, {table.n_features} features)")
    return EXIT_OK


def _rebuild_from_manifest(args, manifest):
    if not isinstance(manifest, dict) or not isinstance(manifest["pipeline"], dict):
        raise ValueError("manifest and its pipeline must be JSON objects")
    pipeline = manifest["pipeline"]
    recorded = {key: pipeline[key] for key in ("window_seconds", "intervals", "enrich", "depth")}
    for dest, value in _typed(args.options, "manifest pipeline", recorded, sep="_").items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    sensors = _checked(pipeline["sensors"], list, "manifest pipeline 'sensors'")
    table, _ = _build_table(args, keep_sensors=sensors)
    if _feature_docs(table.features) != manifest["features"]:
        raise ValueError(
            "model manifest does not match the rebuilt table; "
            "re-run train with the current inputs"
        )
    return table


def cmd_mine(args) -> int:
    model_path = Path(_required(args.model, "--model"))
    manifest = _read_json(args.manifest or model_path.parent / "manifest.json")
    net = autonet.load_model(model_path)
    table = _rebuild_from_manifest(args, manifest)
    if net.shape.group_layout != table.layout():
        raise ValueError("model layout does not match the rebuilt table")

    markable = None
    if args.mark_features:
        names = [n.strip() for n in args.mark_features.split(",") if n.strip()]
        try:
            markable = frozenset(table.feature_index(name) for name in names)
        except KeyError as exc:
            raise ValueError(f"--mark-features: unknown feature {exc}") from exc
    config = _from_options(extract.ExtractionConfig, args, markable_features=markable)
    started = time.perf_counter()
    rules = extract.extract_rules(net, config)
    extract_seconds = time.perf_counter() - started
    report = quality.evaluate(rules, table)
    annotated = [stats.rule for stats in report.per_rule]

    out = _out_dir(args)
    _write_outputs(out, "", annotated, report, table.features,
                   timings={"extract_seconds": extract_seconds})
    print(f"wrote {out / 'rules.json'} ({report.rule_count} rules, "
          f"data coverage {report.data_coverage:.2f})")
    return EXIT_OK


def cmd_baseline(args) -> int:
    table, _ = _build_table(args)
    if args.coupled:
        if not args.rules:
            raise UsageError("--coupled needs --rules <rules JSON from a mine run>")
        with open(args.rules, "r", encoding="utf-8") as fh:
            reference_rules = extract.rules_from_json(fh.read(), table.features)
        if not reference_rules:
            raise ValueError("cannot couple the support threshold to an empty rules file")
        min_support = baseline.coupled_support_threshold(reference_rules, table)
    elif args.min_support is None:
        raise UsageError("baseline needs --min-support or --coupled")
    else:
        min_support = args.min_support

    started = time.perf_counter()
    itemsets = baseline.mine_frequent(table, min_support, max_size=args.max_antecedents + 1)
    rules = baseline.rules_from_itemsets(itemsets, table, args.min_confidence, args.max_antecedents)
    mine_seconds = time.perf_counter() - started
    report = quality.evaluate(rules, table)

    out = _out_dir(args)
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


def _read_report(path) -> dict:
    """A report for ``compare``, with each entry that it reads checked."""
    report, name = _read_json(path), f"report {path}"
    if not isinstance(report, dict):
        raise ValueError(f"{name} must be a JSON object")
    for key, _ in _COMPARE_KEYS:
        if key not in report:
            raise ValueError(f"{name} has no '{key}'")
        _checked(report[key], float, f"{name} '{key}'")
    timings = report.get("timings", {})
    if not isinstance(timings, dict):
        raise ValueError(f"{name} 'timings' must be a JSON object")
    for key, seconds in timings.items():
        _checked(seconds, float, f"{name} timing '{key}'")
    return report


def _macro_mean(reports: list[dict]) -> dict:
    merged = {key: sum(r[key] for r in reports) / len(reports) for key, _ in _COMPARE_KEYS}
    seconds = [sum(v for k, v in r.get("timings", {}).items() if k.endswith("_seconds"))
               for r in reports]
    merged["seconds"] = sum(seconds) / len(seconds)
    return merged


def cmd_compare(args) -> int:
    left = _macro_mean([_read_report(p) for p in _required(args.left, "--left")])
    right = _macro_mean([_read_report(p) for p in _required(args.right, "--right")])

    lines = [f"{'metric':<12} {args.left_label:>12} {args.right_label:>12} {'delta':>12}"]
    lines.append("-" * len(lines[0]))
    for key, label in _COMPARE_KEYS:
        delta = left[key] - right[key]
        lines.append(f"{label:<12} {left[key]:>12.4f} {right[key]:>12.4f} {delta:>12.4f}")
    lines.append(
        f"{'seconds':<12} {left['seconds']:>12.4f} {right['seconds']:>12.4f} "
        f"{left['seconds'] - right['seconds']:>12.4f}"
    )
    text = "\n".join(lines) + "\n"

    out = _out_dir(args)
    _write_text(out / "compare.txt", text)
    _write_json(
        out / "compare.json",
        {"left": left, "right": right,
         "left_label": args.left_label, "right_label": args.right_label},
    )
    sys.stdout.write(text)
    return EXIT_OK


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
        if args.config:  # config values become the defaults that flags override
            args.options.set_defaults(**_typed(args.options, "config", _read_json(args.config)))
            args = parser.parse_args(argv)
        return args.run(args)
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
