#!/usr/bin/env python3
"""Check that the benchmark is steady: run each workload on N seeds and compare spreads.

    python3 stackbench/steady.py --runs 10 [--workload exact-lp ...] [--first-seed 1]

For every end-to-end metric, prints the median of the runs and the spread,
the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, beside
the metric's bound from BENCHMARK.json. It also prints each run's share of
failed operations. Exits 1 if a spread other than ``setup_s``'s exceeds
its bound, if a run fails, or if the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    ok = True
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            runs.append(result)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {args.runs} runs, failed shares {sorted(shares)}, "
              f"correct {all(r['correct'] for r in runs)}")
        ok = ok and len(shares) == 1
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = spread(values)
            within = s <= metric["bound"] or metric["name"] == "setup_s"
            ok = ok and within
            print(f"  {metric['name']:14s} median {statistics.median(values):12.6g} {metric['unit']:5s} "
                  f"spread {s:7.4f}  bound {metric['bound']:.2f}  {'ok' if within else 'TOO WIDE'}")
            print("    " + " ".join(f"{v:.5g}" for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
