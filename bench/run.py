"""Benchmark of gramweave's two user paths: running the highlighter and the
formatter over source files, and weaving aspects onto grammars.

    python3 bench/run.py --workload java_files --seed 1 --seconds 15 --trace 0

Workloads: java_files, arith_long, weave_grammars (see bench/README.md).
Each run starts fresh interpreters (bench/worker.py): one untimed and
SETUP_PROBES timed ones that only set up, for the median set-up time, then
one that runs the workload.  The last line printed is one JSON object with
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json, or with --trace 1 its per-layer ones, with their units.
--quick runs every workload at a tiny size, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
SETUP_PROBES = 10
DEADLINE_S = 170  # a run must end within 180 s
NEEDED = ("src/gramweave/__init__.py", "tests/support.py",
          "tests/fixtures/java5.g", "tests/fixtures/arith.g")


def worker(args, deadline: float, *extra) -> dict:
    """Run bench/worker.py to its end; return the JSON line it printed."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    missing = [p for p in NEEDED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"bench: not a gramweave checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        # the first set-up may compile the sources to bytecode: not timed
        probes = [worker(args, deadline, "--setup-only")
                  for _ in range(1 + (1 if args.quick else SETUP_PROBES))][1:]
        run = worker(args, deadline, *(["--trace"] if args.trace else []))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    samples = probes + [run]
    metrics = dict(run["metrics"])
    if args.trace:
        metrics["gramweave.import_s"] = statistics.median(s["import_s"] for s in samples)
    else:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in samples)
    print(f"bench: {args.workload} seed {args.seed}: {run['attempted']} operations, "
          f"{run['failed']} failed, {run['problems']} unexpected", file=sys.stderr)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
