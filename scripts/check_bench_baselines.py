#!/usr/bin/env python3
"""Check the committed bench baselines: present, and (optionally) not drifted.

Every bench binary runs through run_figure_main(argc, argv, "<figure>", ...)
(bench/figure_common.hpp) and writes BENCH_<figure>.json on each run.
Those reports are the perf-trajectory baselines CI diffs against, so each
advertised figure must have its baseline checked in at the repository root.
This guard scans bench/*.cpp for advertised figure names and errors on any
missing (or unparseable) BENCH_<figure>.json.

With --rerun it is also a two-sided drift gate: it runs every advertised
figure's bench binary (or only those --only names) from BUILD_DIR/bench with
CAGVT_BENCH_JSON_DIR pointing at a temporary directory, at the default
CAGVT_BENCH_SCALE and with CAGVT_ABL11_STRESS=1 (so abl11's 128/256-node
rows are reproduced too), and fails when
  * a baseline row is not reproduced, or the rerun has a row the baseline
    lacks;
  * a rerun row lacks one of its baseline row's counters;
  * a counter the two share differs in value.
Host timings and google-benchmark's bookkeeping keys (IGNORED_KEYS) are not
counters. Counters the rerun has but the baseline lacks are listed but do
not fail the check. The coroutine backend is deterministic, so any
difference is a behaviour change.

Usage:
    python3 scripts/check_bench_baselines.py [repo_root]
    python3 scripts/check_bench_baselines.py [repo_root] --rerun BUILD_DIR
    python3 scripts/check_bench_baselines.py [repo_root] --rerun BUILD_DIR \
        --only tab02,abl09,abl10,abl11

Exit codes: 0 all baselines present and valid JSON (and, with --rerun,
every baseline row and counter reproduced exactly), 1 otherwise.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

FIGURE_MAIN = re.compile(r'run_figure_main\(\s*argc,\s*argv,\s*"([^"]+)"')
# Row keys that are not simulation counters: host timings and
# google-benchmark's own bookkeeping.
IGNORED_KEYS = {
    "real_time", "cpu_time", "time_unit", "name", "run_name", "run_type",
    "family_index", "per_family_instance_index", "repetitions",
    "repetition_index", "threads", "iterations", "aggregate_name",
    "aggregate_unit", "label", "error_occurred", "error_message",
}


def advertised_figures(bench_dir):
    figures = {}
    for fname in sorted(os.listdir(bench_dir)):
        if not fname.endswith(".cpp"):
            continue
        with open(os.path.join(bench_dir, fname)) as f:
            src = f.read()
        for figure in FIGURE_MAIN.findall(src):
            figures[figure] = fname
    return figures


def counter_keys(row):
    return {key for key in row if key not in IGNORED_KEYS}


def compare_rows(figure, baseline_rows, rerun_rows):
    """Two-sided comparison of one figure's rows; returns drift messages."""
    failures = []
    baseline = {row["name"]: row for row in baseline_rows}
    rerun = {row["name"]: row for row in rerun_rows}
    for name in sorted(baseline.keys() - rerun.keys()):
        failures.append(f"{figure}: baseline row {name} was not reproduced")
    for name in sorted(rerun.keys() - baseline.keys()):
        failures.append(f"{figure}: row {name} is not in the baseline")
    unchecked = set()
    equal_keys = 0
    for name in sorted(baseline.keys() & rerun.keys()):
        want, got = baseline[name], rerun[name]
        want_keys, got_keys = counter_keys(want), counter_keys(got)
        for key in sorted(want_keys - got_keys):
            failures.append(f"{figure}: {name} lacks baseline counter {key}")
        unchecked |= got_keys - want_keys
        equal_keys += want_keys == got_keys
        for key in sorted(want_keys & got_keys):
            if want[key] != got[key]:
                failures.append(f"{figure}: {name} {key}: baseline "
                                f"{want[key]!r}, rerun {got[key]!r}")
    if unchecked:
        print(f"check_bench_baselines: {figure}: counters not in the baseline "
              f"(not checked): {', '.join(sorted(unchecked))}")
    print(f"check_bench_baselines: {figure}: reran {len(rerun)} of "
          f"{len(baseline)} baseline rows; counter keys equal on {equal_keys}")
    return failures


def rerun_failures(root, build_dir, figures, only):
    """Rerun the `only` figures' binaries; return drift messages."""
    failures = []
    for figure in only:
        if figure not in figures:
            failures.append(f"--only names unknown figure '{figure}' "
                            f"(known: {', '.join(sorted(figures))})")
            continue
        binary = os.path.join(build_dir, "bench",
                              os.path.splitext(figures[figure])[0])
        with open(os.path.join(root, f"BENCH_{figure}.json")) as f:
            baseline = json.load(f)["benchmarks"]
        with tempfile.TemporaryDirectory() as tmp:
            # Baselines record the default scale with abl11's stress sizes.
            env = dict(os.environ, CAGVT_BENCH_JSON_DIR=tmp, CAGVT_ABL11_STRESS="1")
            env.pop("CAGVT_BENCH_JSON", None)
            env.pop("CAGVT_BENCH_SCALE", None)
            try:
                proc = subprocess.run([binary], env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True)
            except OSError as e:
                failures.append(f"{figure}: cannot run {binary}: {e}")
                continue
            if proc.returncode != 0:
                failures.append(f"{figure}: {binary} exited {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            with open(os.path.join(tmp, f"BENCH_{figure}.json")) as f:
                rows = json.load(f)["benchmarks"]
        failures += compare_rows(figure, baseline, rows)
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="Check committed BENCH_*.json baselines.")
    parser.add_argument("root", nargs="?", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--rerun", metavar="BUILD_DIR",
                        help="rerun bench binaries from BUILD_DIR/bench and "
                             "require their counters to equal the baselines")
    parser.add_argument("--only", metavar="FIGURES",
                        help="comma-separated figures to rerun (with --rerun; "
                             "default: every advertised figure)")
    args = parser.parse_args()
    if args.only and not args.rerun:
        parser.error("--only needs --rerun")
    root = args.root
    figures = advertised_figures(os.path.join(root, "bench"))
    if not figures:
        print("check_bench_baselines: no bench sources advertise JSON output",
              file=sys.stderr)
        return 1

    failures = []
    for figure, source in sorted(figures.items()):
        baseline = os.path.join(root, f"BENCH_{figure}.json")
        if not os.path.exists(baseline):
            failures.append(
                f"bench/{source} advertises '{figure}' but BENCH_{figure}.json "
                f"is not committed (run build/bench/* with CAGVT_BENCH_JSON_DIR=.)")
            continue
        try:
            with open(baseline) as f:
                report = json.load(f)
            if not report.get("benchmarks"):
                failures.append(f"BENCH_{figure}.json has no 'benchmarks' entries")
        except (OSError, json.JSONDecodeError) as e:
            failures.append(f"BENCH_{figure}.json is not valid JSON: {e}")

    if not failures and args.rerun:
        only = ([f for f in args.only.split(",") if f] if args.only
                else sorted(figures))
        failures += rerun_failures(root, args.rerun, figures, only)

    if failures:
        for line in failures:
            print(f"check_bench_baselines: {line}", file=sys.stderr)
        return 1
    print(f"check_bench_baselines: {len(figures)} baselines present and valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
