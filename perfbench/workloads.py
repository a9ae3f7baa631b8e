"""Workload definitions and input writers for the semarm benchmark.

Each workload is a dataset made from the workload seed plus the CLI flags
the pipeline runs with. The program only ever sees the written files.

Run as a script, this module is the benchmark's set-up step: a fresh
interpreter that imports semarm and writes one workload's inputs, so that
its wall time covers both the imports and the writing.

    python3 perfbench/workloads.py --workload plain_tall --seed 0 --out DIR
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, so a run times one core's work; set before numpy loads.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The README's two planted implications: s00=c0 -> s01=c1 and s00=c1 -> s01=c2.
PLANTED = [
    {"antecedent": [[0, 0]], "consequent": [1, 1], "confidence": 1.0},
    {"antecedent": [[0, 1]], "consequent": [1, 2], "confidence": 1.0},
]
PLANTED_DOCS = [
    ({"s00": "c0"}, ("s01", "c1")),
    ({"s00": "c1"}, ("s01", "c2")),
]

# Flags shared by every workload: the extraction and baseline settings the
# benchmark fixes for all of them.
MINE_FLAGS = ["--similarity-threshold", "0.8", "--max-antecedents", "2"]
BASELINE_FLAGS = ["--min-support", "0.05", "--max-antecedents", "2"]


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    sensors: int
    enrich: bool = False


WORKLOADS = {
    # Synth, 3,000 rows x 12 categorical sensors x 3 classes, no enrichment.
    # Ingest (CSV load and aggregate) is about three quarters of every command
    # and there are only a handful of autoencoder rules: the workload that
    # moves with ingest and training, and the bypass workload for changes to
    # quality, extract and baseline.
    "plain_tall": Workload("plain_tall", rows=3000, sensors=12),
    # Synth, 2,000 rows x 4 sensors x 3 classes with depth-1 enrichment: 20
    # features, 16 of them single-class, input width 28. Thousands of
    # autoencoder and baseline rules, so rule emission and rule metrics
    # (annotate_rules, evaluate, rules_from_itemsets) take most of the time
    # and ingest little.
    "enriched_dense": Workload("enriched_dense", rows=2000, sensors=4, enrich=True),
}
# Both sizes recover the planted rules on every seed tried (30 of 30), which
# the planted-rule check relies on; smaller synth sets do not.


def pipeline_flags(workload: Workload, data: Path) -> list[str]:
    """Ingest flags every command of the workload passes."""
    flags = ["--sensors", str(data / "sensors.csv")]
    if workload.enrich:
        flags += ["--graph", str(data / "graph.json"), "--enrich", "--depth", "1"]
    return flags


def write_inputs(workload: Workload, seed: int, out: Path):
    """Write the workload's input files into ``out`` with the CLI's own
    ``synth`` command."""
    from semarm import cli

    argv = [
        "synth", "--out", str(out), "--rows", str(workload.rows),
        "--features", str(workload.sensors), "--classes", "3",
        "--seed", str(seed), "--planted", json.dumps(PLANTED),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"semarm synth exited with {code}")


def import_semarm():
    """Import semarm from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "semarm" / "__init__.py").is_file():
        raise SystemExit(f"error: no semarm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import semarm

    if Path(semarm.__file__).resolve().parent != SRC / "semarm":
        raise SystemExit(f"error: imported semarm from {semarm.__file__}, not {SRC}")
    return semarm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write one workload's inputs")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    import_semarm()
    write_inputs(WORKLOADS[args.workload], args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
