#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 ytbench/steadiness.py [--workloads a,b] [--runs 10]
                                  [--first-seed 1] [--out FILE]

Runs `ytbench/run.py --trace 0` once per seed (seeds first-seed ..
first-seed + runs - 1) on each workload, from the repository root, and
prints per end-to-end metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread
(q3 - q1) / median against the metric's bound, and max/min.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the raw values as JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, "ytbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        raw[workload] = values
        print(f"\n{workload} ({args.runs} seeds from {args.first_seed})")
        print(f"{'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8} {'bound':>6} {'max/min':>8}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"{name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bounds[name]:>6} "
                  f"{max(vals) / min(vals):>8.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
