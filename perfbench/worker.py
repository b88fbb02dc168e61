"""One benchmark worker process: set up a workload, then run closed-loop passes.

The worker prints ``READY`` once its set-up (imports, input generation and
warm-up) is done; the launcher times the worker from spawn to that line.
After measuring it prints one JSON object as its last line.

With ``--trace 1`` it alternates untraced and traced passes of its workload,
then runs one traced pass of every other workload, so that each traced run
reports the whole layer map, plus the CLI probes and in-process mirror. It
writes its spans to ``--spans`` once, at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from common import Recorder, median

ROOT = Path(__file__).resolve().parents[1]
MODULES = {"cli-pipeline": "cli_pipeline", "fit-batch": "fit_batch", "dose-sweep": "dose_sweep"}
TRACE_METRICS = {"trace.overhead_frac": "ratio", "trace.unaccounted_frac": "ratio"}
EXTRAS_PASS = -1  # pass id of traced work outside any pass (the CLI probes and mirror)


def make_workload(name: str, seed: int, work: Path):
    return importlib.import_module(MODULES[name]).Workload(ROOT, seed, work / name)


@contextlib.contextmanager
def tracing(tracer, rec, pass_id, taggers):
    """Layers instrumented and operations spanned for the duration of the block."""
    tracer.pass_id = rec.pass_id = pass_id
    tracer.instrument(taggers)
    rec.tracer = tracer
    try:
        yield
    finally:
        tracer.restore()
        rec.tracer = None


def run_pass(workload, rec, pass_id: int, tracer=None, taggers=None) -> float:
    """Wall time of one pass; with a tracer, inside a pass span with the layers instrumented."""
    if tracer is None:
        rec.pass_id = pass_id
        start = time.perf_counter()
        workload.run_pass(rec)
        return time.perf_counter() - start
    with tracing(tracer, rec, pass_id, taggers):
        span = tracer.open("pass", workload.name)
        try:
            workload.run_pass(rec)
        finally:
            tracer.close(span)
    return tracer.spans[span][3] - tracer.spans[span][2]


def keep_going(start: float, typical: float, budget: float) -> bool:
    """Start another pass only if, at the typical pass time, it ends at most half a pass late."""
    return time.perf_counter() - start + 0.5 * typical <= budget


def measure(workload, rec, budget: float) -> list[float]:
    """Closed loop: passes back to back until the budget is spent; none if it is 0."""
    walls: list[float] = []
    start = time.perf_counter()
    while budget > 0 and (not walls or keep_going(start, median(walls), budget)):
        walls.append(run_pass(workload, rec, len(walls)))
    return walls


def traced_run(workload, rec, budget: float, seed: int, work: Path, spans_path) -> dict:
    """Per-layer metrics, the tracing overhead and the share of pass time no span covers."""
    from tracing import SpanIndex, Tracer

    tracer = Tracer()
    taggers = {}
    for module in MODULES.values():
        taggers.update(getattr(importlib.import_module(module), "TAGGERS", {}))

    plain, spanned, own = [], [], []
    start = time.perf_counter()
    while not own or keep_going(start, median(plain) + median(spanned), budget):
        plain.append(run_pass(workload, rec, 2 * len(own)))
        own.append(2 * len(own) + 1)
        spanned.append(run_pass(workload, rec, own[-1], tracer, taggers))

    runs = {workload.name: (workload, own)}
    for pass_id, name in enumerate((n for n in MODULES if n != workload.name), start=1000):
        other = make_workload(name, seed, work)
        run_pass(other, rec, pass_id, tracer, taggers)
        runs[name] = (other, [pass_id])
    cli, cli_passes = runs["cli-pipeline"]
    with tracing(tracer, rec, EXTRAS_PASS, taggers):
        cli.trace_extras(rec)
    cli_passes.append(EXTRAS_PASS)
    tracer.write(spans_path)

    index = SpanIndex(tracer.spans)
    metrics = {}
    for owner, passes in runs.values():
        metrics.update(owner.layer_metrics(index, rec, passes))
    metrics["trace.overhead_frac"] = median(spanned) / median(plain) - 1.0
    metrics["trace.unaccounted_frac"] = median(
        [index.unaccounted_frac(i) for i in index.select("pass", own)])
    units = dict(TRACE_METRICS)
    for module in MODULES.values():
        units.update(importlib.import_module(module).LAYER_METRICS)
    return {name: {"value": metrics[name], "unit": units[name]} for name in sorted(units)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args()

    work = ROOT / "perfbench" / "out" / f"work-{os.getpid()}"
    try:
        if args.trace or args.workload != "cli-pipeline":
            import mitoclock

            source = ROOT / "src" / "mitoclock"
            if Path(mitoclock.__file__).resolve().parent != source:
                print(f"error: mitoclock imported from {mitoclock.__file__}, not {source}",
                      file=sys.stderr)
                return 2
        workload = make_workload(args.workload, args.seed, work)
        warm = Recorder()
        workload.warm_up(warm)
        print("READY", flush=True)

        rec = Recorder(speed=None if args.trace else workload.speed)
        if args.trace:
            layers = traced_run(workload, rec, args.budget, args.seed, work, args.spans)
            walls = []
        else:
            layers = {}
            walls = measure(workload, rec, args.budget)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    by_pass: dict[int, list[list[float]]] = {}
    for row in rec.ops:
        by_pass.setdefault(row[0], []).append([row[2], row[4].get("raw_s", row[2])])
    samples = [by_pass[p] for p in sorted(by_pass)] if not args.trace else []
    result = {
        "passes": walls,
        "names": [row[1] for row in rec.ops if row[0] == 0] if not args.trace else [],
        "samples": samples,
        "attempted": len(warm.ops) + len(rec.ops),
        "failed": warm.failed + rec.failed,
        "errors": warm.errors + rec.errors,
        "rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
