#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every metric: the median over the runs and the distance between the
first and third quartile as a share of that median, the figure the
benchmark's bounds are set against.

    python3 perfbench/spread.py --workload scan_small --seeds 1-5 [--trace 1]
        [--seconds N] [--bin PATH]

Runs through the command in BENCHMARK.json unless --bin names a built
binary. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds", default=None)
    parser.add_argument("--bin", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = [args.bin] if args.bin else bench["command"]
    seconds = args.seconds or str(bench["run_seconds"])
    values = {}
    for seed in seeds(args.seeds):
        run = subprocess.run(
            command
            + ["--workload", args.workload, "--seed", str(seed), "--seconds", seconds,
               "--trace", args.trace],
            capture_output=True, text=True, check=False)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stdout}\n{run.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect answers\n{run.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
    print(f"{'metric':44} {'median':>12} {'iqr/median':>10}")
    for name, vals in values.items():
        median = statistics.median(vals)
        share = float("nan")
        if len(vals) > 1 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median
        print(f"{name:44} {median:12.5g} {share:10.4f}")


if __name__ == "__main__":
    main()
