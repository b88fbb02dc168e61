#!/usr/bin/env python3
"""Benchmark of mitoclock: three closed-loop workloads, one command.

    python3 perfbench/run.py --workload cli-pipeline --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

- cli-pipeline: the README pipeline as separate ``mitoclock`` processes;
- fit-batch: ``fit_imt`` in process on seeded clean and noisy histograms;
- dose-sweep: the simulator in process over a seeded dose grid and four more cases.

With ``--trace 0`` the run spawns SETUP_REPEATS workers one after another.
Each sets up (imports, inputs from ``--seed``, warm-up), then runs passes
for its share of ``--seconds``. The run reports every end-to-end metric:
set-up time is the median over the workers; the others take each
operation's median over all passes of all workers. Every time is scaled by
the host's speed, measured with a fixed reference task next to it, and all
processes run on one CPU (see perfbench/README.md).
With ``--trace 1`` one worker reports every per-layer metric instead.

Every operation's output is checked. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is a summary with tail percentiles, sample counts, the
names the metrics have per workload and the environment. Both are also
written to perfbench/out/. The command exits 2 without a result when the
package source or its data are missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import import_speed, median, percentile, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-pipeline", "fit-batch", "dose-sweep")
SETUP_REPEATS = 3
RUN_LIMIT = 170.0  # s; workers still running past this are killed and the run fails
REQUIRED = ("src/mitoclock/__init__.py", "src/mitoclock/cli.py",
            "data/growth_curve.csv", "data/imt_histogram.csv")
# BLAS and OpenMP pools pinned to one thread, here and in every child process
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
# what each generic metric is called for the workload it matters most on
ALIASES = {
    "cli-pipeline": {"pipeline_s": ("pass_s", "s")},
    "fit-batch": {"fits_per_s": ("ops_per_s", "1/s"), "fit_p50_ms": ("op_p50_ms", "ms"),
                  "fit_p90_ms": ("op_p90_ms", "ms")},
    "dose-sweep": {"sweep_s": ("pass_s", "s")},
}


class WorkerError(RuntimeError):
    pass


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    The host-speed references then run on the CPU whose speed they stand for:
    the virtual CPUs of a shared host can differ in speed at the same time.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def worker_env() -> dict:
    env = dict(os.environ, **PINNED, MITOCLOCK_SEED="0")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, budget: float, deadline: float, spans=None) -> dict:
    """Run one worker; its set-up time is spawn to its READY line.

    Untraced, the import reference runs just before the spawn, and
    ``setup_s`` is the set-up time scaled by the host speed it gives.
    """
    speed = None if args.trace else import_speed(sys.executable, worker_env(), ROOT)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", repr(budget),
           "--trace", str(args.trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or code != 0 or not lines:
        raise WorkerError(f"worker exited {code} before reporting (ready={ready.strip()!r})")
    result = json.loads(lines[-1])
    result["setup_raw_s"] = setup
    result["setup_s"] = setup * speed if speed is not None else setup
    return result


def distribution(values, scale: float = 1.0) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median": scale * median(values)}
    q = tail_percentile(len(values))
    if q is not None and q > 50.0:
        out[f"p{q:g}"] = scale * percentile(values, q)
    return out


def environment(args) -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    return {
        "git_sha": sha, "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)), "cpu_model": cpu,
        "platform": platform.platform(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "thread_env": PINNED,
    }


def end_to_end(args, results) -> tuple[dict, dict]:
    """End-to-end metrics from each operation's median host-scaled time over the run's passes.

    Every pass of a run repeats the same operations on the same inputs, so
    operation j has one sample per pass. Each sample is the operation's time
    scaled by the host speed measured just before it (see common.Recorder),
    which takes out most of the drift of a shared machine. The times as
    measured stay in the summary.
    """
    setups = [r["setup_s"] for r in results]
    passes = [p for r in results for p in r["samples"]]
    names = next(r["names"] for r in results if r["names"])
    columns = list(zip(*passes))
    typical = [median([scaled for scaled, _ in column]) for column in columns]
    raw_best = [min(raw for _, raw in column) for column in columns]
    rss = "rss_children_mb" if args.workload == "cli-pipeline" else "rss_self_mb"
    values = {
        "setup_s": median(setups),
        "pass_s": sum(typical),
        "op_p50_ms": 1e3 * percentile(typical, 50.0),
        "op_p90_ms": 1e3 * percentile(typical, 90.0),
        "peak_rss_mb": max(r[rss] for r in results),
    }
    values["ops_per_s"] = len(typical) / values["pass_s"]
    detail = {
        "repeats": len(passes),
        "setup_s": distribution(setups),
        "setup_raw_s": distribution([r["setup_raw_s"] for r in results]),
        "pass_wall_s": distribution([w for r in results for w in r["passes"]]),
        "op_ms": distribution([s for p in passes for s, _ in p], 1e3),
        "op_raw_ms": distribution([raw for p in passes for _, raw in p], 1e3),
        "raw_pass_s": {"best": sum(raw_best)},
        "op_ms_by_name": [[name, 1e3 * t] for name, t in zip(names, typical)],
    }
    return values, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"error: not a mitoclock checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + RUN_LIMIT
    try:
        if args.trace:
            results = [spawn(args, args.seconds, deadline, spans=out / f"spans-{stem}.json")]
        else:
            results = []
            for k in range(SETUP_REPEATS, 0, -1):
                # each worker gets an equal share of what the earlier ones left
                used = sum(sum(r["passes"]) for r in results)
                results.append(spawn(args, max(args.seconds - used, 0.0) / k, deadline))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    summary = {"environment": environment(args), "attempted": attempted, "failed": failed,
               "fail_frac": failed / attempted,
               "errors": [e for r in results for e in r["errors"]]}
    if args.trace:
        metrics = results[0]["layers"]
    else:
        values, summary["distributions"] = end_to_end(args, results)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
        summary["aliases"] = {alias: {"value": values[name], "unit": unit}
                              for alias, (name, unit) in ALIASES[args.workload].items()}
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (out / f"result-{stem}.json").write_text(json.dumps({"summary": summary, "result": final},
                                                        indent=2) + "\n")
    for error in summary["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    print("summary: " + json.dumps(summary))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
