"""One round of one workload, in the fresh interpreter run.py starts for it.

Set-up (interpreter start, ``import totecc``, seeded input generation)
ends at the first call into the program; ``wall_s`` runs from there until
the program's last output has been consumed.  The program's stdout and
stderr are captured in memory.  The result, one JSON object, goes to this
process's stdout.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_DIR = os.path.join(ROOT, "perfbench", "out")


def peak_rss_kb() -> int:
    """High-water resident set of this process's own memory map.

    getrusage's ru_maxrss is not used: Linux carries it across exec, so a
    child would report its parent's peak when the parent is larger.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import totecc  # noqa: F401  (the import is part of set-up)
    from totecc import cli, families, formulas, graph, transforms

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    setup_end = time.perf_counter()
    result: dict = {"setup_end": setup_end}
    if not args.setup_only:
        api = types.SimpleNamespace(
            cli=cli, families=families, formulas=formulas, graph=graph, transforms=transforms
        )
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        output = workloads.run(args.workload, inputs, api)
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_kb"] = peak_rss_kb()
        if tracer is not None:
            tracer.stop()
            result["layers"] = tracer.metrics()
            os.makedirs(TRACE_DIR, exist_ok=True)
            tracer.write(os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.spans.tsv"))
        result["output"] = output
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
