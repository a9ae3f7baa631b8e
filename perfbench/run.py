"""semarm benchmark: the train -> mine -> baseline CLI pipeline on one workload.

    python3 perfbench/run.py --workload plain_tall --seed 0 --seconds 60 --trace 0

One process per workload, one command in flight (a closed loop with one
client). Set-up writes the workload's inputs from ``--seed`` in fresh
interpreters, several times, and times each. The run then repeats the
pipeline through ``semarm.cli.main`` until the next iteration would pass
``--seconds`` and checks every iteration's outputs. It reports the median
set-up time and the mean over the untraced iterations of the pipeline's
time, total_s; the table before the result also gives each command's mean.

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` untraced and traced iterations alternate
and the result holds the per-layer metrics from the traced ones, the
tracing overhead and the sizes that drive cost. The last line of standard
output is the result as one JSON object; the lines before it give the run
environment, the output digests and a readable table.

Every iteration's outputs are checked (see check.py); a non-zero exit or a
failed check counts in ``failed``. For seed 0 the digests must also equal
those in digests.json, so a change that alters the output bytes shows; one
that does so on purpose replaces them with the digests the run prints.
"""

from __future__ import annotations

import workloads as wl  # first: it pins the BLAS threads before numpy loads

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import tracing

HERE = Path(__file__).resolve().parent
WORK = wl.ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
COMMANDS = ("train", "mine", "baseline")


class Counts:
    """Attempted and failed commands plus output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def setup(workload, seed: int, work: Path, counts: Counts):
    """Write the inputs SETUP_REPEATS times, each in a fresh interpreter that
    also does the imports; return the wall times and the first copy."""
    times, copies = [], []
    for i in range(SETUP_REPEATS):
        out = work / f"setup{i}"
        argv = [sys.executable, str(HERE / "workloads.py"), "--workload", workload.name,
                "--seed", str(seed), "--out", str(out)]
        started = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed: {proc.stderr.strip()}")
        copies.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    counts.record("inputs", [] if all(c == copies[0] for c in copies) else
                  ["the same seed wrote different inputs"])
    return times, work / "setup0"


def build_table(workload, data: Path):
    """The transaction table the commands build, for row-scan recounts."""
    from semarm import graph, transact

    with open(data / "sensors.csv", encoding="utf-8") as fh:
        series = transact.load_sensor_csv(fh)
    enrichment = None
    if workload.enrich:
        with open(data / "graph.json", encoding="utf-8") as fh:
            g, _, binding = graph.load_graph(fh)
        enrichment = transact.Enrichment(g, binding, depth=1)
    return transact.build_transactions(transact.aggregate(series, 60.0), enrichment)


def run_commands(workload, data: Path, out: Path, seed: int, tracer, counts: Counts) -> dict:
    """train -> mine -> baseline through cli.main; wall seconds per command."""
    from semarm import cli

    flags = wl.pipeline_flags(workload, data)
    commands = (
        ("train", ["train", "--out", str(out), "--seed", str(seed)] + flags),
        ("mine", ["mine", "--model", str(out / "model.json"), "--out", str(out)]
         + wl.MINE_FLAGS + flags),
        ("baseline", ["baseline", "--out", str(out)] + wl.BASELINE_FLAGS + flags),
    )
    seconds = {}
    for name, argv in commands:
        stderr = io.StringIO()
        span = tracer.open(f"cli.{name}") if tracer else None
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        seconds[name] = time.perf_counter() - started
        if span is not None:
            tracer.close(span)
            seconds[name] = span["end"] - span["start"]
        counts.record(name, [] if code == 0 else [f"exit {code}: {stderr.getvalue().strip()}"])
    return seconds


def check_outputs(out: Path, scan, rng, reference: dict, counts: Counts):
    if not all((out / name).is_file() for name in check.DIGESTED):
        for label in ("digests", "recount", "planted"):
            counts.record(label, ["outputs missing"])
        return
    outputs = check.load(out)
    digests = check.digests(outputs)
    counts.record("digests", [
        f"{name} digest {digests[name][:12]} differs from {want[:12]}"
        for name, want in reference.items() if digests[name] != want
    ])
    reference.update({k: v for k, v in digests.items() if k not in reference})
    counts.record("recount", check.recount_problems(scan, outputs, rng))
    counts.record("planted", check.missing_planted(outputs, wl.PLANTED_DOCS))


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((wl.ROOT / "src").rglob("*.py"))
    )


def trace_metrics(traced: list[list[dict]], untraced: list[dict], setup_spans) -> dict:
    metrics = tracing.median_metrics([tracing.iteration_metrics(spans) for spans in traced])
    transact_s = sum(v for k, v in metrics.items() if k.startswith("transact.") and k.endswith("_s"))
    commands_s = {c: metrics[f"cli.{c}_s"] for c in COMMANDS}
    total = sum(commands_s.values())
    rule_metrics_s = (metrics["quality.annotate_rules_s"] + metrics["quality.evaluate.mine_s"]
                      + metrics["quality.evaluate.baseline_s"] + metrics["quality.report_s"]
                      + metrics["baseline.rules_from_itemsets_s"])
    untraced_total = statistics.median(sum(it.values()) for it in untraced)
    traced_total = statistics.median(
        sum(s["end"] - s["start"] for s in spans if s["parent"] is None) for spans in traced
    )
    metrics.update({
        "synth.write_dataset_s": sum(
            s["end"] - s["start"] for s in setup_spans if s["name"] == "synth.write_dataset"
        ),
        "cost.src_lines": src_lines(),
        "share.transact_of_total": transact_s / total,
        "share.rule_metrics_of_mine_baseline": rule_metrics_s / (
            commands_s["mine"] + commands_s["baseline"]),
        "trace.total_s": traced_total,
        "trace.untraced_total_s": untraced_total,
        "trace.overhead_s": traced_total - untraced_total,
    })
    return metrics


def measure(args, workload, work: Path, counts: Counts) -> tuple[dict, dict]:
    setup_times, data = setup(workload, args.seed, work, counts)
    scan = check.RowScan(build_table(workload, data))
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    reference = dict(recorded.get(workload.name, {})) if args.seed == DEFAULT_SEED else {}

    tracer = tracing.Tracer(f"{workload.name}/seed{args.seed}") if args.trace else None
    setup_spans = []
    if tracer:
        def traced_setup():
            span = tracer.open("setup")
            wl.write_inputs(workload, args.seed, work / "traced_setup")
            tracer.close(span)

        setup_spans = tracer.capture(traced_setup)

    untraced, traced, walls = [], [], []
    started = time.perf_counter()
    i = 0
    while True:
        with_trace = bool(args.trace) and i % 2 == 1
        out = work / f"run{i}"
        gc.collect()  # the last iteration's garbage is not this one's cost
        iteration_started = time.perf_counter()
        if with_trace:
            spans = tracer.capture(run_commands, workload, data, out, args.seed, tracer, counts)
            counts.record("spans", tracing.check_command_spans(spans))
            traced.append(spans)
        else:
            untraced.append(run_commands(workload, data, out, args.seed, None, counts))
        check_outputs(out, scan, np.random.default_rng([args.seed, i]), reference, counts)
        shutil.rmtree(out, ignore_errors=True)
        walls.append(time.perf_counter() - iteration_started)
        i += 1
        elapsed = time.perf_counter() - started
        if i >= (2 if args.trace else 1) and elapsed + statistics.median(walls) > args.seconds:
            break

    # The load other tenants put on a shared host changes in bursts that last
    # from seconds to minutes. In ten-run trials on both workloads, the mean
    # over the whole run spread from run to run no more than the median (less
    # in most trials) and far less than the fastest iteration, so the metrics
    # report it; the medians are printed beside it.
    mean = {name: statistics.fmean(it[name] for it in untraced) for name in COMMANDS}
    if tracer:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{workload.name}-seed{args.seed}.jsonl")
        metrics = trace_metrics(traced, untraced, setup_spans)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            **{f"{name}_s": mean[name] for name in COMMANDS},
            "total_s": sum(mean.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    info = {
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "untraced_median_seconds": {
            name: round(statistics.median(it[name] for it in untraced), 4) for name in COMMANDS
        },
        "untraced_seconds": [{k: round(v, 4) for k, v in it.items()} for it in untraced],
        "digests": reference,
    }
    return metrics, info


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": {var: os.environ.get(var) for var in wl.BLAS_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    wl.import_semarm()
    workload = wl.WORKLOADS[args.workload]

    work = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    counts = Counts()
    try:
        metrics, info = measure(args, workload, work, counts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    result = {
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps({"env": environment(args), **info}, sort_keys=True))
    for problem in counts.problems:
        print(f"failed: {problem}")
    print(f"{'error_rate':<40} {counts.failed / counts.attempted:>14.6g} ratio")
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6g} {units.get(name, 's' if name.endswith('_s') else '')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
