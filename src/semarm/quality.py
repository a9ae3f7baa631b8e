"""Rule quality metrics over a transaction table: support, confidence, rule
coverage, data coverage, and Zhang's association-strength metric.

All metrics are exact integer counts followed by one final division, so
independent row-scan recomputations agree bit-for-bit. ``evaluate`` is the one
counting pass a command makes over its rules: it counts a whole ``RuleSet`` on
per-item row bitsets (the vertical layout of ECLAT), one bitset per distinct
antecedent row, and ``rule_metrics`` is the one place the metrics are computed
from counts. Rules the baseline miner derived already carry the metrics of
their itemset counts, so for them ``evaluate`` counts only the rows their
distinct antecedents cover. ``report_to_json`` streams the report document in
chunks, as ``extract.rules_to_json`` does the rules document. The row-scan
references they are tested against, and the one-rule views over this kernel,
are in ``tests/test_quality.py`` and ``tests/oracles.py``.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .extract import _METRICS, RuleSet, rule_to_doc, rules_array_json
from .transact import Feature, TransactionTable

__all__ = [
    "RuleQualityReport",
    "rule_metrics",
    "evaluate",
    "annotate_rules",
    "report_to_doc",
    "report_to_json",
    "format_report",
    "MAX_REPORT_RULES",
    "REPORT_SCHEMA",
]

# Rules listed one per line in the text report; the rest are counted.
MAX_REPORT_RULES = 50


@dataclass
class RuleQualityReport:
    """The measured rules, a RuleSet carrying support, confidence, zhang and
    coverage columns, plus set-level aggregates for the same rules."""

    per_rule: RuleSet
    rule_count: int
    mean_support: float
    mean_confidence: float
    mean_coverage: float
    mean_zhang: float
    data_coverage: float


def _popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _slot_bits(table: TransactionTable) -> np.ndarray:
    """Vertical layout: for each one-hot slot, in layout order, the rows
    holding it as a bitset packed into uint64 words."""
    layout = table.layout()
    slots = table.rows + np.asarray(layout.offsets, dtype=np.int64)
    hits = np.zeros((layout.width, -(-table.n_rows // 64) * 64), dtype=bool)
    hits[slots, np.arange(table.n_rows)[:, None]] = True
    return np.packbits(hits, axis=1).view(np.uint64)


# Bitset rows counted per step (rules here, candidates in the miner): small
# steps keep every temporary array small, so memory stays flat however many
# rules a pass counts.
_CHUNK = 256


def _and_rows(bits: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The row bitset of each row of slots: the AND of its slots' bitsets."""
    return np.bitwise_and.reduce(bits[rows], axis=1)


def _padded_bits(rules: RuleSet, table: TransactionTable) -> tuple[np.ndarray, np.ndarray]:
    """(slot_bits, bits): the table's slot bitsets, and the same with the
    padding slot of antecedent rows, which holds every row, appended.
    Raises ValueError for rules on another layout than the table's, or on
    a table with no rows."""
    layout = table.layout()
    if rules.layout != layout:
        raise ValueError(f"rules are on layout {rules.layout.class_counts}, "
                         f"not the table's {layout.class_counts}")
    if len(rules) and table.n_rows == 0:
        raise ValueError("cannot measure rules on a table with no rows")
    slot_bits = _slot_bits(table)
    return slot_bits, np.vstack([slot_bits, np.full((1, slot_bits.shape[1]), ~np.uint64(0))])


def _count_pass(rules: RuleSet, table: TransactionTable):
    """Per-rule (n_x, n_xy, n_y) int64 arrays, plus the number of rows that
    match at least one antecedent.

    Rules are grouped by antecedent row; each group's row bitset is the AND
    of its slots' bitsets, built once per step and intersected with every
    consequent of the group.
    """
    slot_bits, bits = _padded_bits(rules, table)
    groups, group_of = rules.antecedent_groups
    order = np.argsort(group_of, kind="stable")
    n_x = np.zeros(len(rules), dtype=np.int64)
    n_xy = np.zeros(len(rules), dtype=np.int64)
    covered = np.zeros(bits.shape[1], dtype=np.uint64)
    for start in range(0, len(rules), _CHUNK):
        members = order[start : start + _CHUNK]
        group = group_of[members]
        first = group[0]
        x_bits = _and_rows(bits, groups[first : group[-1] + 1])
        covered |= np.bitwise_or.reduce(x_bits, axis=0)
        x_bits = x_bits[group - first]
        n_x[members] = _popcount(x_bits)
        n_xy[members] = _popcount(bits[rules.consequents[members]] & x_bits)
    n_y = _popcount(slot_bits)[rules.consequents]
    return n_x, n_xy, n_y, int(_popcount(covered))


def _covered_rows(rules: RuleSet, table: TransactionTable) -> int:
    """The number of rows that match at least one antecedent, from the
    distinct antecedent rows alone."""
    _, bits = _padded_bits(rules, table)
    groups, _ = rules.antecedent_groups
    covered = np.zeros(bits.shape[1], dtype=np.uint64)
    for start in range(0, len(groups), _CHUNK):
        covered |= np.bitwise_or.reduce(_and_rows(bits, groups[start : start + _CHUNK]), axis=0)
    return int(_popcount(covered))



def rule_metrics(n_x, n_xy, n_y, n: int) -> tuple[np.ndarray, ...]:
    """Support, confidence, rule coverage and Zhang's metric per rule, as
    float64 arrays, from count arrays over ``n`` rows."""
    with np.errstate(divide="ignore", invalid="ignore"):
        conf_x = np.where(n_x > 0, n_xy / n_x, 0.0)
        conf_not_x = (n_y - n_xy) / (n - n_x)
        denom = np.maximum(conf_x, conf_not_x)
        zhang_values = np.where((n_x == n) | (denom == 0.0), 0.0, (conf_x - conf_not_x) / denom)
    return n_xy / n, conf_x, n_x / n, zhang_values


def evaluate(rules: RuleSet, table: TransactionTable, *,
             measured: bool = False) -> RuleQualityReport:
    """Measure every metric for every rule from one counting pass; no rules
    yield a valid all-zero report.

    ``per_rule`` is the rules carrying their measured support, confidence,
    zhang and coverage columns. Each mean is a Python ``sum`` over the rules
    in order, divided by their number.

    ``measured=True`` says the rules already carry those four columns,
    measured on this table (as ``baseline.rules_from_itemsets`` derives
    them from itemset counts): they are kept as they are, and only the rows
    the distinct antecedents cover are counted.
    """
    if measured:
        if any(getattr(rules, key) is None for key in _METRICS):
            raise ValueError("measured rules must carry " + ", ".join(_METRICS))
        per_rule, covered = rules, _covered_rows(rules, table)
    else:
        n_x, n_xy, n_y, covered = _count_pass(rules, table)
        supports, confidences, coverages, zhangs = rule_metrics(n_x, n_xy, n_y, table.n_rows)
        per_rule = replace(rules, support=supports, confidence=confidences, zhang=zhangs,
                           coverage=coverages)
    count = len(per_rule)

    def mean(values):
        return sum(values.tolist()) / count if count else 0.0

    return RuleQualityReport(
        per_rule=per_rule,
        rule_count=count,
        mean_support=mean(per_rule.support),
        mean_confidence=mean(per_rule.confidence),
        mean_coverage=mean(per_rule.coverage),
        mean_zhang=mean(per_rule.zhang),
        data_coverage=covered / table.n_rows if count else 0.0,
    )


def annotate_rules(rules: RuleSet, table: TransactionTable) -> RuleSet:
    """The rules with their measured metric columns attached."""
    return evaluate(rules, table).per_rule


def _aggregates(report: RuleQualityReport) -> dict:
    return {
        "rule_count": report.rule_count,
        "mean_support": report.mean_support,
        "mean_confidence": report.mean_confidence,
        "mean_coverage": report.mean_coverage,
        "mean_zhang": report.mean_zhang,
        "data_coverage": report.data_coverage,
    }


def report_to_doc(report: RuleQualityReport, features: list[Feature]) -> dict:
    rules = [{**rule_to_doc(r, features), "coverage": r.coverage} for r in report.per_rule]
    return {**_aggregates(report), "rules": rules}


_REPORT_METRICS = ("confidence", "coverage", "support", "zhang")


def report_to_json(report: RuleQualityReport, features: list[Feature],
                   **extra) -> Iterator[str]:
    """The report, with ``extra`` top-level keys, as chunks that join to the
    bytes ``json.dumps({**report_to_doc(report, features), **extra},
    indent=2, sort_keys=True)`` writes; the rules array streams from the
    specialised writer ``rules_array_json``, which reads the RuleSet's
    columns."""
    rules = object()
    doc = {**_aggregates(report), "rules": rules, **extra}
    parts = []
    for i, (key, value) in enumerate(sorted(doc.items())):
        parts += [",\n  " if i else "{\n  ", json.dumps(key), ": "]
        if value is rules:
            yield "".join(parts)
            parts = []
            yield from rules_array_json(report.per_rule, features, _REPORT_METRICS, depth=1)
        else:
            parts.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "))
    yield "".join([*parts, "\n}"])


def format_report(report: RuleQualityReport, features: list[Feature]) -> str:
    """Aligned-column text report: aggregates first, then per-rule rows."""
    lines = []
    header = f"{'Rules':>8} {'Support':>9} {'Confidence':>11} {'Coverage':>9} {'Data cov.':>10} {'Zhang':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    lines.append(
        f"{report.rule_count:>8d} {report.mean_support:>9.4f} {report.mean_confidence:>11.4f} "
        f"{report.mean_coverage:>9.4f} {report.data_coverage:>10.4f} {report.mean_zhang:>8.4f}"
    )
    if report.per_rule:
        rules = report.per_rule[:MAX_REPORT_RULES]
        texts = [f"{f.name}={value}" for f in features for value in f.class_values]
        pad = rules.layout.width
        lines.append("")
        lines.append(f"{'support':>9} {'conf':>7} {'cover':>7} {'zhang':>7}  rule")
        for row, consequent, sup, conf, cover, zhang in zip(
            rules.antecedents.tolist(), rules.consequents.tolist(), rules.support.tolist(),
            rules.confidence.tolist(), rules.coverage.tolist(), rules.zhang.tolist(),
        ):
            lhs = ", ".join(texts[s] for s in row if s != pad)
            lines.append(f"{sup:>9.4f} {conf:>7.4f} {cover:>7.4f} {zhang:>7.4f}  "
                         f"{lhs} -> {texts[consequent]}")
        if report.rule_count > MAX_REPORT_RULES:
            lines.append(f"... ({report.rule_count - MAX_REPORT_RULES} more)")
    return "\n".join(lines) + "\n"


_ITEM_SCHEMA = {
    "type": "object",
    "properties": {"feature": {"type": "string"}, "class": {"type": "string"}},
    "required": ["feature", "class"],
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "rule_count": {"type": "integer", "minimum": 0},
        "mean_support": {"type": "number", "minimum": 0, "maximum": 1},
        "mean_confidence": {"type": "number", "minimum": 0, "maximum": 1},
        "mean_coverage": {"type": "number", "minimum": 0, "maximum": 1},
        "mean_zhang": {"type": "number", "minimum": -1, "maximum": 1},
        "data_coverage": {"type": "number", "minimum": 0, "maximum": 1},
        "rules": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "antecedent": {"type": "array", "items": _ITEM_SCHEMA, "minItems": 1},
                    "consequent": _ITEM_SCHEMA,
                    "support": {"type": "number"},
                    "confidence": {"type": "number"},
                    "coverage": {"type": "number"},
                    "zhang": {"type": "number"},
                },
                "required": ["antecedent", "consequent"],
            },
        },
        "timings": {"type": "object"},
    },
    "required": [
        "rule_count",
        "mean_support",
        "mean_confidence",
        "mean_coverage",
        "mean_zhang",
        "data_coverage",
        "rules",
    ],
}
