#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workloads bracket,thorough --runs 10 --first-seed 100

Runs the benchmark once per seed, one run at a time, and prints per metric the
median and the quartile spread (Q3 - Q1) / median next to the metric's bound.
A spread at or above a third of the bound is flagged; setup_s is exempt. With
--out, every run's result line is written to that JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=400, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            steady &= res["correct"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        results[workload] = runs
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- not steady"
            steady &= not flag
            print(f"  {workload:<9} {name:<18} median {med:<12.6g} spread {spread:7.4f}"
                  f"  bound {bound}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
