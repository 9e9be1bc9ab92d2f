#!/usr/bin/env python3
"""Parse CA-GVT bench output into CSV series, one row per figure point.

Two input formats:

  * google-benchmark console output:
        for b in build/bench/{fig,tab,abl}[0-9][0-9]_*; do
          echo "=== $(basename $b)"; CAGVT_BENCH_JSON=0 $b; done > bench_output.txt
        python3 scripts/bench_to_csv.py bench_output.txt > figures.csv

  * machine-readable BENCH_*.json reports, written by every bench binary
    (bench/figure_common.hpp). Any argument ending in .json is parsed as a
    google-benchmark JSON report; several can be mixed:
        python3 scripts/bench_to_csv.py BENCH_abl04.json BENCH_abl08.json > ablations.csv

Columns: figure, series, x (nodes / interval / threshold / hot_factor /
scenario), rate_events_s, efficiency_pct, rollbacks, gvt_rounds,
sync_rounds, sim_wall_s, then every other counter the input rows carry
(max_history, peak_pool, migrations, ...), in first-seen order; a row
without one of them leaves its cell empty.
"""

import json
import os
import re
import sys

from check_bench_baselines import IGNORED_KEYS

ROW = re.compile(r"^(BM_\w+)((?:/(?!iterations:)\w+:\d+)*)/iterations:1\s")
COUNTER = re.compile(r"(\w+)=([-\d.eku]+[MKGmu]?)")
JSON_NAME = re.compile(r"^(BM_\w+)((?:/(?!iterations:)\w+:\d+)*)")
ARG = re.compile(r"/(?!iterations:)\w+:(\d+)")

SUFFIX = {"k": 1e3, "K": 1e3, "M": 1e6, "G": 1e9, "m": 1e-3, "u": 1e-6}

FIELDS = [
    "rate_events_s",
    "efficiency_pct",
    "rollbacks",
    "gvt_rounds",
    "sync_rounds",
    "sim_wall_s",
]

def parse_value(text: str) -> float:
    if text and text[-1] in SUFFIX:
        return float(text[:-1]) * SUFFIX[text[-1]]
    return float(text)


def figure_from_path(path: str) -> str:
    stem = os.path.basename(path)
    stem = stem.removesuffix(".json").removeprefix("BENCH_")
    return stem


def rows_from_console(path: str):
    figure = "?"
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("==="):
                figure = line.split()[-1]
                continue
            match = ROW.match(line)
            if not match:
                continue
            series = match.group(1).removeprefix("BM_")
            x = "/".join(ARG.findall(match.group(2)))
            counters = {k: parse_value(v) for k, v in COUNTER.findall(line)}
            yield figure, series, x, counters


def rows_from_json(path: str):
    figure = figure_from_path(path)
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        match = JSON_NAME.match(bench.get("name", ""))
        if not match:
            continue
        series = match.group(1).removeprefix("BM_")
        # Multi-argument sweeps (abl09's model/epg/remote/lps grid) join
        # their argument values with '/'; single-argument figures keep the
        # bare value, so existing consumers see an unchanged column.
        x = "/".join(ARG.findall(match.group(2)))
        counters = {
            key: value
            for key, value in bench.items()
            if isinstance(value, (int, float)) and key not in IGNORED_KEYS
        }
        yield figure, series, x, counters


def main(paths: list[str]) -> None:
    rows = []
    for path in paths:
        reader = rows_from_json if path.endswith(".json") else rows_from_console
        rows.extend(reader(path))

    # dict.fromkeys keeps first-seen order while dropping duplicates.
    extras = dict.fromkeys(key for _, _, _, counters in rows for key in counters
                           if key not in FIELDS)
    fields = FIELDS + list(extras)
    print("figure,series,x," + ",".join(fields))
    for figure, series, x, counters in rows:
        values = []
        for field in fields:
            value = counters.get(field, "")
            values.append(repr(value).strip("'") if value != "" else "")
        print(f"{figure},{series},{x}," + ",".join(values))


if __name__ == "__main__":
    main(sys.argv[1:] if len(sys.argv) > 1 else ["bench_output.txt"])
