#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first call configures and builds
perfbench/ (the simulator library from src/ plus the benchmark driver) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls only
rebuild what changed. The driver's progress goes to stdout and stderr, and
the last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1. The traced run also writes its spans
to .bench_build/traces/. Workloads and metrics are described in
perfbench/METRICS.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark must finish within this many seconds of starting, building
# included, except on the first call in a checkout.
DEADLINE_S = 175


def fail(message, log=None):
    if log:
        sys.stderr.write(log[-6000:])
    sys.stderr.write(f"run.py: {message}\n")
    sys.exit(1)


def build(build_dir):
    """Configure (once) and build the benchmark; return the binary's path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        done = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            capture_output=True, text=True)
        if done.returncode != 0:
            # Leave no half-configured tree behind for the next call.
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configuring the benchmark failed", done.stdout + done.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          capture_output=True, text=True)
    if done.returncode != 0:
        fail("building the benchmark failed", done.stdout + done.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json asks of this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"extra {extra}, or units differ")
    if result["attempted"] < 1:
        raise ValueError("no run attempted")


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    binary = build(os.path.join(target, "perfbench"))
    trace_dir = os.path.join(target, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    budget = max(60.0, DEADLINE_S - (time.monotonic() - start))
    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--trace-dir", trace_dir],
            stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {budget:.0f} s")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark exited with code {done.returncode}", done.stdout)
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as err:
        fail(f"malformed result line: {err}", done.stdout)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
