#!/usr/bin/env python3
"""Run perfbench on seeds 1..N and report, for every metric, the median,
the quartiles and the spread (q3 - q1) / median: the figures the
benchmark's bounds are checked against.

Run from the repository root:

    python3 perfbench/steadiness.py --workload compile_xs --runs 10

Each run is BENCHMARK.json's command with its run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    values, units, ok = {}, {}, True
    for seed in range(1, args.runs + 1):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)

    print(f"{args.workload}: {args.runs} runs")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:<28} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.3f} {units[name]}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
