#!/usr/bin/env python3
"""Append one row per workload of a perf-ledger result file to results/ledger/history.csv.

usage: scripts/ledger_history.py LABEL [RUN_JSON]    (default benchmark/out/run.json; run from the repo root)
Columns: label, commit the ledger ran on, seed, workload, the five end-to-end medians, median host slowdown.
(The file has a directory of its own because scripts/golden.sh deletes and byte-compares results/*.csv.)
"""
import json, statistics, sys

label, path = sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else "benchmark/out/run.json"
doc = json.load(open(path))
assert doc["comparable"], f"{path} is a smoke run: its numbers are not comparable and are not recorded"
E2E = ["setup_s", "wall_s", "host_ns_per_msg", "peak_heap_bytes_per_rank", "peak_rss_bytes_per_rank"]
with open("results/ledger/history.csv", "a") as out:
    for w in doc["workloads"]:
        medians = [f'{w["metrics"][m]["median"]:.6g}' for m in E2E]
        slowdown = f'{statistics.median(w["uncalibrated"]["slowdown"]):.3f}'
        out.write(",".join([label, w["git_commit"][:7], str(w["seed"]), w["name"], *medians, slowdown]) + "\n")
