#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 bench/spread.py --workload exact-sweep --seeds 1-10 [--seconds 30] [--trace 0]

For every metric: the median of the runs, the distance between the first
and third quartiles (statistics.quantiles, n=4) as a share of the median,
and the range.  This is how the reference figures in README.md were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="an inclusive range such as 1-10")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0")
    p.add_argument("--verbose", action="store_true", help="echo each run's stderr")
    args = p.parse_args()
    runs = []
    for seed in seeds(args.seeds):
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                              capture_output=True, text=True)
        if args.verbose:
            print(proc.stderr, end="", flush=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}, "
              f"attempted {result['attempted']}, failed {result['failed']}", flush=True)
    print(f"{'metric':40s} {'median':>12s} {'iqr/median':>10s}  range")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} {med:12.5g} {share:10.3f}  {min(values):.5g}..{max(values):.5g} {first['unit']}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
