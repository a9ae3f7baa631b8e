"""Command-line pipeline: synthesize benchmark data, train the autoencoder,
extract rules, run the exhaustive baseline, and compare reports.

Exit codes: 0 ok, 2 usage error, 3 data error, 4 internal error. Every
failure prints a single machine-parseable ``error: <category>: ...`` line.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import time
import zipfile
from dataclasses import asdict, fields
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import autonet, baseline, extract, jsondoc, quality, synth, transact
from .graph import load_graph

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


# The JSON kind a config file or manifest must give an option, by the type its flag declares.
_OPTION_KINDS = {
    int: jsondoc.INTEGER,
    float: jsondoc.NUMBER,
    bool: jsondoc.BOOLEAN,
    str: jsondoc.STRING,
    list: jsondoc.STRINGS,
    _json_text: jsondoc.Kind(lambda v: jsondoc.STRING.accepts(v) or jsondoc.ARRAY.accepts(v),
                             "JSON text or an array"),
}


def _option_value(action, doc: dict, key: str, part: str):
    """Entry ``key`` of ``doc``, checked to have the JSON kind of ``action``'s flag."""
    kind = list if action.nargs == "+" else bool if action.nargs == 0 else action.type or str
    value = jsondoc.entry(doc, key, _OPTION_KINDS[kind], part)
    return float(value) if kind is float else value


def _typed(options, doc) -> dict:
    """Config entries by dest, each of its flag's kind; keys naming no option are ignored."""
    jsondoc.checked(doc, jsondoc.OBJECT, "config")
    return {
        action.dest: _option_value(action, doc, key, "config")
        for action in options._actions
        if (key := action.dest.replace("_", "-")) in doc and action.dest != "help"
    }


def _add_common(parser, run):
    parser.set_defaults(run=run, options=parser)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--out", help="output directory", default=".")


def _add_pipeline_flags(parser):
    parser.add_argument("--sensors", help="sensor readings CSV")
    parser.add_argument("--graph", help="graph JSON (required with --enrich)")
    parser.add_argument("--window-seconds", type=float, default=60.0)
    parser.add_argument("--intervals", type=int, default=transact.DEFAULT_INTERVALS)
    parser.add_argument("--enrich", action=argparse.BooleanOptionalAction, default=False)
    parser.add_argument("--depth", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand's parser sets ``run``, its command, and ``options``, itself."""
    parser = _Parser(prog="semarm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with planted rules")
    _add_common(p, cmd_synth)
    p.add_argument("--seed", type=int)
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
    p.add_argument("--seed", type=int)
    p.add_argument("--sample-sensors", type=int, help="graph-walk sample size")
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
    p.add_argument("--seed", type=int)
    p.add_argument("--sample-sensors", type=int, help="graph-walk sample size")
    p.add_argument("--min-support", type=float)
    p.add_argument("--rules", help="rules JSON of a mine run; min support: half their mean")
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


def _write_text(path: Path, chunks):
    """Write an iterable of strings to ``path``, each chunk as it comes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _write_json(path: Path, doc):
    _write_text(path, [json.dumps(doc, indent=2, sort_keys=True), "\n"])


def _read_json(path, name: str):
    with open(path, "r", encoding="utf-8") as fh:
        return jsondoc.load(fh, f"{name} {path}")


def _write_outputs(out: Path, prefix: str, report, features, **extra):
    """One route's rules, report (``extra`` as top-level keys) and text report,
    each from the report's measured rules and streamed to its file."""
    rules_json = extract.rules_to_json(report.per_rule, features)
    _write_text(out / f"{prefix}rules.json", chain(rules_json, ["\n"]))
    report_json = quality.report_to_json(report, features, **extra)
    _write_text(out / f"{prefix}report.json", chain(report_json, ["\n"]))
    _write_text(out / f"{prefix}report.txt", [quality.format_report(report, features)])


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
    return sorted(islice(along, count))


# Bump the format when a code change would build another table from the same inputs.
_TABLE_FILE, _TABLE_FORMAT = "transactions.npz", "semarm transactions 1"
_PIPELINE_OPTIONS = ("window_seconds", "intervals", "enrich", "depth")


def _stored_table(path: Path, key: str, keep_sensors):
    """(table, sensors) of the artifact at ``path`` if built under ``key`` for the
    same sensor selection, else None, as for one that is missing or unreadable."""
    try:
        with open(path, "rb") as fh, np.load(fh) as stored:
            meta, rows = json.loads(stored["meta"].item()), stored["rows"]
        if meta["key"] == key and (not meta["selected"] if keep_sensors is None
                                   else list(keep_sensors) == meta["sensors"]):
            features = [transact.Feature(**doc) for doc in meta["features"]]
            return transact.TransactionTable(features, rows), meta["sensors"]
    except (OSError, ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile):
        pass
    return None


def _build_table(args, keep_sensors=None):
    """Shared ingestion path: CSV -> aggregate -> (optional) enrich -> table.

    The table is kept in ``<out>/transactions.npz`` under a key hashed from
    the CSV and graph bytes and the pipeline options; a later command with
    the same key and sensor selection reads it instead of building again."""
    with open(_required(args.sensors, "--sensors"), "rb") as fh:
        data = fh.read()
    graph_data = graph = binding = None
    if args.graph:
        with open(args.graph, "rb") as fh:
            graph_data = fh.read()
        text = io.TextIOWrapper(io.BytesIO(graph_data), encoding="utf-8")  # as open() reads it
        graph, _, binding = load_graph(text, f"graph {args.graph}")
    options = {name: getattr(args, name) for name in _PIPELINE_OPTIONS}
    digests = [None if part is None else hashlib.sha256(part).hexdigest()
               for part in (data, graph_data)]
    key = hashlib.sha256(json.dumps([_TABLE_FORMAT, options, digests]).encode()).hexdigest()
    if args.intervals < 1:
        raise ValueError("--intervals must be at least 1")
    if args.depth < 0:
        raise ValueError("--depth must be at least 0")
    if keep_sensors is None and args.sample_sensors is not None:
        if args.sample_sensors < 1:
            raise ValueError("--sample-sensors must be at least 1")
        if graph is None:
            raise ValueError("--sample-sensors needs --graph")
        keep_sensors = _sample_sensor_walk(graph, binding, args.sample_sensors, args.seed or 0)
    stored = _stored_table(Path(args.out) / _TABLE_FILE, key, keep_sensors)
    if stored is not None:
        return stored[0], {**options, "sensors": stored[1]}

    series = transact.load_sensor_csv(data, f"sensors {args.sensors}")
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
    meta = {"key": key, "features": _feature_docs(table.features),
            "sensors": aggregated.sensors, "selected": keep_sensors is not None}
    temp = _out_dir(args) / f".{os.getpid()}.{_TABLE_FILE}"  # written aside, swapped in at once
    np.savez(temp, rows=table.rows, meta=np.array(json.dumps(meta)))
    os.replace(temp, temp.with_name(_TABLE_FILE))
    return table, {**options, "sensors": aggregated.sensors}


def _feature_docs(features) -> list[dict]:
    return [asdict(f) for f in features]  # the inverse of Feature(**doc)


_PAIR = jsondoc.Kind(lambda v: jsondoc.INTEGERS.accepts(v) and len(v) == 2, "a pair of integers")
_PAIRS = jsondoc.array_of(_PAIR, "an array of pairs of integers")


def _planted_rules(raw) -> tuple[synth.PlantedRule, ...]:
    """Planted rules from ``--planted`` JSON text or a config file's array."""
    if jsondoc.STRING.accepts(raw):
        raw = jsondoc.load(raw, "--planted")
    planted = []
    for i, rule in enumerate(jsondoc.checked(raw, jsondoc.ARRAY, "planted rules")):
        part = f"planted rule {i}"
        jsondoc.checked(rule, jsondoc.OBJECT, part)
        confidence = rule.get("confidence", 1.0)
        planted.append(synth.PlantedRule(
            antecedent=tuple(map(tuple, jsondoc.entry(rule, "antecedent", _PAIRS, part))),
            consequent=tuple(jsondoc.entry(rule, "consequent", _PAIR, part)),
            confidence=float(jsondoc.checked(confidence, jsondoc.NUMBER, f"{part} 'confidence'")),
        ))
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
        "epoch_losses": list(net.epoch_losses),
        "timings": {"ingest_seconds": ingest_seconds, "train_seconds": train_seconds},
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {out / 'model.json'} (final loss {net.final_loss:.4f}, "
          f"{table.n_rows} transactions, {table.n_features} features)")
    return EXIT_OK


def _rebuild_from_manifest(args, manifest):
    jsondoc.checked(manifest, jsondoc.OBJECT, "manifest")
    pipeline = jsondoc.entry(manifest, "pipeline", jsondoc.OBJECT, "manifest")
    features = jsondoc.entry(manifest, "features", jsondoc.ARRAY, "manifest")
    actions = {action.dest: action for action in args.options._actions}
    for dest in _PIPELINE_OPTIONS:
        value = _option_value(actions[dest], pipeline, dest, "manifest pipeline")
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    sensors = jsondoc.entry(pipeline, "sensors", jsondoc.STRINGS, "manifest pipeline")
    table, _ = _build_table(args, keep_sensors=sensors)
    if _feature_docs(table.features) != features:
        raise ValueError(
            "model manifest does not match the rebuilt table; "
            "re-run train with the current inputs"
        )
    return table


def cmd_mine(args) -> int:
    # a flag or a config file value, refused before anything is read or built
    if args.similarity_threshold is not None and not 0.0 < args.similarity_threshold <= 1.0:
        raise ValueError("--similarity-threshold must be in (0, 1]")
    if args.max_antecedents is not None and args.max_antecedents < 1:
        raise ValueError("--max-antecedents must be at least 1")
    model_path = Path(_required(args.model, "--model"))
    manifest = _read_json(args.manifest or model_path.parent / "manifest.json", "manifest")
    net = autonet.load_model(model_path)
    table = _rebuild_from_manifest(args, manifest)
    if net.shape.group_layout != table.layout():
        raise ValueError("model layout does not match the rebuilt table")

    markable = None
    if args.mark_features is not None:
        names = [n.strip() for n in args.mark_features.split(",") if n.strip()]
        if not names:
            raise ValueError(f"--mark-features names no feature: {args.mark_features!r}")
        try:
            markable = frozenset(table.feature_index(name) for name in names)
        except KeyError as exc:
            raise ValueError(f"--mark-features: unknown feature {exc}") from exc
    config = _from_options(extract.ExtractionConfig, args, markable_features=markable)
    started = time.perf_counter()
    rules = extract.extract_rules(net, config)
    extract_seconds = time.perf_counter() - started
    report = quality.evaluate(rules, table)

    out = _out_dir(args)
    _write_outputs(out, "", report, table.features,
                   timings={"extract_seconds": extract_seconds})
    print(f"wrote {out / 'rules.json'} ({report.rule_count} rules, "
          f"data coverage {report.data_coverage:.2f})")
    return EXIT_OK


def cmd_baseline(args) -> int:
    if (args.rules is None) == (args.min_support is None):
        raise UsageError("baseline needs exactly one of --min-support and --rules")
    if args.max_antecedents < 1:
        raise ValueError("--max-antecedents must be at least 1")
    if not 0.0 <= args.min_confidence <= 1.0:
        raise ValueError("--min-confidence must be in [0, 1]")
    if args.min_support is not None and not 0.0 < args.min_support <= 1.0:
        raise ValueError("--min-support must be in (0, 1]")
    table, _ = _build_table(args)
    min_support = args.min_support
    if args.rules is not None:
        name = f"rules {args.rules}"
        with open(args.rules, "r", encoding="utf-8") as fh:
            reference_rules = extract.rules_from_json(fh, table.features, name)
        try:
            min_support = baseline.coupled_support_threshold(reference_rules, table)
        except ValueError as exc:  # no rules, or none that holds in a row
            raise ValueError(f"{name}: {exc}") from None

    started = time.perf_counter()
    itemsets = baseline.mine_frequent(table, min_support, max_size=args.max_antecedents + 1)
    rules = baseline.rules_from_itemsets(itemsets, table, args.min_confidence, args.max_antecedents)
    mine_seconds = time.perf_counter() - started
    report = quality.evaluate(rules, table, measured=True)  # metrics from the itemset counts

    out = _out_dir(args)
    _write_outputs(out, "baseline_", report, table.features,
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
    name = f"report {path}"
    report = jsondoc.checked(_read_json(path, "report"), jsondoc.OBJECT, name)
    for key, _ in _COMPARE_KEYS:
        jsondoc.entry(report, key, jsondoc.NUMBER, name)
    timings = jsondoc.checked(report.get("timings", {}), jsondoc.OBJECT, f"{name} 'timings'")
    for key in timings:
        jsondoc.entry(timings, key, jsondoc.NUMBER, f"{name} timings")
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
    _write_text(out / "compare.txt", [text])
    _write_json(
        out / "compare.json",
        {"left": left, "right": right,
         "left_label": args.left_label, "right_label": args.right_label},
    )
    sys.stdout.write(text)
    return EXIT_OK


# Every data error of the package subclasses one of these.
_DATA_ERRORS = (OSError, ValueError, KeyError)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # config values become the defaults that flags override
            args.options.set_defaults(**_typed(args.options, _read_json(args.config, "config")))
            args = parser.parse_args(argv)
        if getattr(args, "seed", None) is not None and args.seed < 0:  # flag or config file
            raise ValueError("--seed must be at least 0")
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
