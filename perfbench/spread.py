"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workloads NAME ...]

Runs run.py once per (seed, workload), interleaving the workloads so that
drift on the machine spreads across all of them, with BENCHMARK.json's
run_seconds.  For each workload and metric it prints the median and the
distance between the first and third quartiles as a share of the median
(statistics.quantiles, n=4), beside the metric's bound, and the share of
failed operations, which must be the same in every run.  The raw results
go to perfbench/out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args()

    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in args.workloads:
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append(res)
            shown = ", ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
            print(f"{w} seed {seed}: {shown}, failed {res['failed']}/{res['attempted']}", flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "spread.json"), "w") as f:
        json.dump(results, f, indent=1)
    print(f"\n{'workload':16} {'metric':12} {'median':>10} {'spread':>7} {'bound':>6}")
    for w, runs in results.items():
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"{w:16} {m['name']:12} {med:10.4f} {(q3 - q1) / med:7.2%} {m['bound']:6.0%}")
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        print(f"{w:16} failed share {'same in every run' if len(shares) == 1 else 'VARIES'}: {shares}")


if __name__ == "__main__":
    main()
