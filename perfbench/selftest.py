"""Self-test of checks.py: genuine outputs pass, corrupted ones count as failed.

    python3 perfbench/selftest.py

Runs every workload once in this process (about 15 s), then feeds the
checkers copies of the outputs with one fault each: a dropped or
duplicated line, a wrong verdict value or status, a wrong exit code, a
total off by one.  Exits 1 if a check misses a fault or fails a genuine
output.
"""

from __future__ import annotations

import copy
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from totecc import cli, families, formulas, graph, transforms  # noqa: E402

API = types.SimpleNamespace(
    cli=cli, families=families, formulas=formulas, graph=graph, transforms=transforms
)
SEED = 7


def _verdict_index(out: dict, theorem: str, n: int) -> int:
    return next(
        i for i, v in enumerate(out["payload"]["verdicts"]) if (v["theorem"], v["n"]) == (theorem, n)
    )


def _corrupt_verdict(field: str, value, theorem: str = "cut-max", n: int = 7):
    def corrupt(out: dict) -> None:
        v = out["payload"]["verdicts"][_verdict_index(out, theorem, n)]
        v[field] = value(v[field]) if callable(value) else value

    return corrupt


def _set(index: int, col: int, delta: int):
    def corrupt(rows: list) -> None:
        rows[index][col] += delta

    return corrupt


CORRUPTIONS = {
    "enumerate-n8": {
        "dropped line": lambda out: out["lines"].pop(17),
        "duplicated line": lambda out: out["lines"].insert(5, out["lines"][400]),
        "line replaced by a disconnected graph": lambda out: out["lines"].__setitem__(9, "G?????"),
        "exit code 1": lambda out: out.__setitem__("rc", 1),
    },
    "verify-n8": {
        "observed value off by one, n=7": _corrupt_verdict("observed_value", lambda x: x + 1),
        "observed value off by one, n=8": _corrupt_verdict("observed_value", lambda x: x + 1, n=8),
        "class size off by one, n=8": _corrupt_verdict("class_size", lambda x: x + 1, "cut-min", 8),
        "status flipped to fail": _corrupt_verdict("status", "fail"),
        "uniqueness-fail reported as pass": _corrupt_verdict("status", "pass", "pendant-max", 5),
        "dropped verdict": lambda out: out["payload"]["verdicts"].pop(3),
        "duplicated verdict": lambda out: out["payload"]["verdicts"].append(
            out["payload"]["verdicts"][0]
        ),
        "exit code 0": lambda out: out.__setitem__("rc", 0),
    },
    "formula-deep": {
        "BFS total off by one": _set(11, 0, 1),
        "closed form off by one": _set(12, 1, -1),
        "dropped pair": lambda rows: rows.pop(),
    },
    "formula-shallow": {
        "BFS total off by one": _set(3, 0, -1),
        "closed form off by one": _set(4, 1, 1),
    },
    "rewrite-mix": {
        "total after off by one": _set(20, 3, 1),
        "total before off by one": _set(21, 2, -1),
        "error instead of a result": lambda rows: rows.__setitem__(22, "InvalidSiteError: x"),
        "result loses a vertex": lambda rows: rows[23][1].pop(),
    },
}


def main() -> None:
    missed = 0
    for workload, corruptions in CORRUPTIONS.items():
        inputs = workloads.make_inputs(workload, SEED)
        output = workloads.run(workload, inputs, API)
        attempted, failed, problems = checks.check(workload, inputs, output, SEED)
        if failed:
            missed += 1
        print(f"{workload}: genuine output, {failed} of {attempted} failed {problems}")
        for what, corrupt in corruptions.items():
            bad = copy.deepcopy(output)
            corrupt(bad)
            attempted, failed, problems = checks.check(workload, inputs, bad, SEED)
            if not failed:
                missed += 1
            print(f"{workload}: {what}: {failed} of {attempted} failed  {problems[:1]}")
    if missed:
        sys.exit(f"{missed} check(s) gave the wrong answer")
    print("every corruption was counted as failed")


if __name__ == "__main__":
    main()
