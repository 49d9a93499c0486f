"""totecc benchmark: one workload, whole rounds, each in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs worker.py in a new interpreter, so the package's
process-wide caches (the lru_caches on connected_graph_list and the class
table, canon's form cache) start cold, as they do for a CLI user.  After
one discarded set-up-only start (it writes the bytecode caches), rounds
run one at a time until S seconds have passed, set-up probes and checks
included, so a run's length does not grow with the machine's load; each
round's output is checked by checks.py, apart from the program, before
the next starts.

With --trace 0 the last stdout line reports the end-to-end metrics:
setup_s (median over 40 set-up-only starts, spread over the run, and
every round), wall_s and peak_rss_mb (medians over the rounds).  With
--trace 1 rounds alternate untraced and traced, and it reports the
per-layer metrics of the traced rounds plus the tracing overhead on
wall_s.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 40
CHILD_TIMEOUT_S = 120
# Fixed string hashing, so that counts such as gc collections repeat exactly.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {**dict(spans.PER_LAYER), "trace.wall_s": "s", "trace.overhead_s": "s"}


def spawn(workload: str, seed: int, *flags: str) -> tuple[float, dict]:
    """Run one worker to its end; returns its start time and its result."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *flags]
    started = time.perf_counter()
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=CHILD_ENV, cwd=ROOT
    )
    if proc.returncode != 0:
        sys.exit(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return started, json.loads(proc.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload, seed = args.workload, args.seed

    inputs = workloads.make_inputs(workload, seed)
    setups, walls, rss_kb, traced_walls, layers = [], [], [], [], []
    probes = 0

    def probe_setup(target: int) -> None:
        """Set-up-only starts up to ``target`` in all, none in a traced run."""
        nonlocal probes
        while not args.trace and probes < min(target, SETUP_PROBES):
            started, res = spawn(workload, seed, "--setup-only")
            setups.append(res["setup_end"] - started)
            probes += 1

    spawn(workload, seed, "--setup-only")
    attempted = failed = 0
    spent = 0.0
    rounds = 0
    began = time.perf_counter()
    while rounds < 1 + args.trace or spent < args.seconds:
        # Spread the set-up probes over the run, in step with the rounds, so
        # that their median samples the same stretch of machine time.
        probe_setup(math.ceil(SETUP_PROBES * spent / args.seconds))
        traced = bool(args.trace and rounds % 2)
        started, res = spawn(workload, seed, *(["--trace"] if traced else []))
        a, f, problems = checks.check(workload, inputs, res["output"], seed * 1000 + rounds)
        attempted += a
        failed += f
        for p in problems:
            print(f"round {rounds}: FAILED {p}", file=sys.stderr)
        if traced:
            traced_walls.append(res["wall_s"])
            layers.append(res["layers"])
        else:
            setups.append(res["setup_end"] - started)
            walls.append(res["wall_s"])
            rss_kb.append(res["peak_rss_kb"])
        print(
            f"round {rounds}{' traced' if traced else ''}: wall {res['wall_s']:.4f} s, "
            f"{a} ops, {f} failed",
            file=sys.stderr,
        )
        rounds += 1
        spent = time.perf_counter() - began
    probe_setup(SETUP_PROBES)

    med = statistics.median
    if args.trace:
        values = {name: med(lay[name] for lay in layers) for name, _ in spans.PER_LAYER}
        values["trace.wall_s"] = med(traced_walls)
        values["trace.overhead_s"] = med(traced_walls) - med(walls)
        units = TRACE_UNITS
    else:
        values = {"setup_s": med(setups), "wall_s": med(walls), "peak_rss_mb": med(rss_kb) / 1024}
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


if __name__ == "__main__":
    main()
