"""Output checks for one pipeline iteration of the benchmark.

- ``digests``: SHA-256 of each output file, with the run-dependent
  ``timings`` removed from the reports (hashed as compact sorted JSON), so
  repeated runs of one seed, and later versions of the program, can be
  compared byte for byte.
- ``recount_problems``: support, confidence and coverage of a seeded sample
  of the emitted rules, recounted by a direct scan of the transaction rows.
- ``missing_planted``: planted implications absent from a rules file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

DIGESTED = ("model.json", "rules.json", "report.json", "baseline_rules.json", "baseline_report.json")
REPORTS = ("report.json", "baseline_report.json")
SAMPLE_RULES = 64


def load(out: Path) -> dict:
    """Bytes of every digested output file, and the parsed JSON documents."""
    raw = {name: (out / name).read_bytes() for name in DIGESTED}
    return {"raw": raw, "docs": {name: json.loads(data) for name, data in raw.items()
                                 if name != "model.json"}}


def digests(outputs: dict) -> dict:
    result = {}
    for name, data in outputs["raw"].items():
        if name in REPORTS:
            doc = {k: v for k, v in outputs["docs"][name].items() if k != "timings"}
            data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
        result[name] = hashlib.sha256(data).hexdigest()
    return result


class RowScan:
    """Transaction rows with feature/class name lookup, for recounting."""

    def __init__(self, table):
        self.rows = table.rows
        self.n = table.n_rows
        self.index = {
            f.name: (col, {c: i for i, c in enumerate(f.class_values)})
            for col, f in enumerate(table.features)
        }

    def mask(self, items) -> np.ndarray:
        mask = np.ones(self.n, dtype=bool)
        for item in items:
            col, classes = self.index[item["feature"]]
            mask &= self.rows[:, col] == classes[item["class"]]
        return mask

    def expected(self, rule: dict) -> dict:
        x = self.mask(rule["antecedent"])
        xy = x & self.mask([rule["consequent"]])
        n_x, n_xy = int(x.sum()), int(xy.sum())
        return {
            "support": n_xy / self.n,
            "confidence": n_xy / n_x if n_x else 0.0,
            "coverage": n_x / self.n,
        }


def recount_problems(scan: RowScan, outputs: dict, rng: np.random.Generator) -> list[str]:
    """Compare recorded metrics of sampled rules (in the rules files and the
    matching report entries) with exact row-scan counts."""
    problems = []
    for rules_name, report_name in (
        ("rules.json", "report.json"),
        ("baseline_rules.json", "baseline_report.json"),
    ):
        rules = outputs["docs"][rules_name]
        report = outputs["docs"][report_name]
        if report["rule_count"] != len(rules) or len(report["rules"]) != len(rules):
            problems.append(f"{report_name}: rule count differs from {rules_name}")
            continue
        picks = rng.choice(len(rules), size=min(SAMPLE_RULES, len(rules)), replace=False)
        for i in sorted(int(p) for p in picks):
            want = scan.expected(rules[i])
            for doc, keys in (
                (rules[i], ("support", "confidence")),
                (report["rules"][i], ("support", "confidence", "coverage")),
            ):
                for key in keys:
                    if doc.get(key) != want[key]:
                        problems.append(
                            f"{rules_name}[{i}] {key}: recorded {doc.get(key)!r}, "
                            f"row scan {want[key]!r}"
                        )
    return problems


def missing_planted(outputs: dict, planted) -> list[str]:
    """Planted (antecedent, consequent) pairs absent from either rules file."""
    missing = []
    for name in ("rules.json", "baseline_rules.json"):
        found = {
            (
                tuple(sorted((i["feature"], i["class"]) for i in r["antecedent"])),
                (r["consequent"]["feature"], r["consequent"]["class"]),
            )
            for r in outputs["docs"][name]
        }
        for antecedent, consequent in planted:
            key = (tuple(sorted(antecedent.items())), consequent)
            if key not in found:
                missing.append(f"{name}: planted rule {antecedent} -> {consequent} missing")
    return missing
