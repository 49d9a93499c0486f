"""Command-line interface: one binary, subcommand per capability.

stdout carries machine-parseable payloads (graph6, JSON, CSV, or plain
key=value lines); progress and human-facing summaries go to stderr.  Exit
codes: 0 success, 1 theorem-verification failure, 2 usage, output or
worker-pool error, 141 (128 + SIGPIPE) when the reader of stdout has gone.
Conjecture findings are reported but never affect the exit code.

JSON payloads embed schema_version; the field inventory lives in
docs/cli-json.md.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from . import enumeration, extremal, families, formulas, graph6, transforms
from .extremal import filter_graphs, parse_constraint
from .graph import Graph, cut_vertices, eccentricities, girth, pendant_vertices, wiener_index

SCHEMA_VERSION = 1


def _invariants(g: Graph) -> dict:
    gi = girth(g)
    eccs = eccentricities(g)
    eps = sum(eccs)
    return {
        "n": g.n,
        "edges": g.edge_count,
        "eps": eps,
        "wiener": wiener_index(g),
        "avg_ecc": str(Fraction(eps, g.n)),
        "diameter": max(eccs),
        "radius": min(eccs),
        "girth": gi if gi is not None else "acyclic",
        "pendant_vertices": len(pendant_vertices(g)),
        "cut_vertices": len(cut_vertices(g)),
    }


def _kv_line(d: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in d.items())


def _read_graphs(args: argparse.Namespace) -> list[Graph]:
    """The graphs of the one input that _add_graph_inputs lets through."""
    if args.graph6 is not None:
        return [graph6.decode(args.graph6)]
    if args.family:
        return [families.parse_family(args.family).build()]
    graphs = [graph6.decode(line) for line in sys.stdin if line.strip()]
    if not graphs:
        raise ValueError("--stdin read no graph6 line")
    return graphs


def _emit_json(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_eps(args: argparse.Namespace) -> int:
    records = []
    for g in _read_graphs(args):
        rec = _invariants(g)
        if args.family:
            spec = families.parse_family(args.family)
            formula = formulas.formula_for_family(spec)
            rec["family"] = str(spec)
            rec["formula"] = formula if formula is not None else "none"
            rec["agree"] = (formula == rec["eps"]) if formula is not None else "n/a"
        records.append(rec)
    if args.format == "json":
        _emit_json({"graphs": records})
    else:
        for rec in records:
            print(_kv_line(rec))
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    spec = families.parse_family([args.tag] + [str(p) for p in args.params])
    g = spec.build()
    inv = _invariants(g)
    encoded = graph6.encode(g)
    if args.format == "json":
        _emit_json({"family": str(spec), "graph6": encoded, "invariants": inv})
    else:
        print(encoded)
        print(f"{spec}: {_kv_line(inv)}", file=sys.stderr)
    return 0


_REWRITE_KINDS = {
    "add-edge": (transforms.add_edge_sites, lambda g, s: transforms.add_edge(g, *s)),
    "graft": (transforms.graft_sites, transforms.graft_edge),
    "relocate": (transforms.relocate_sites, transforms.relocate_path),
    "block-to-cycle": (transforms.block_cycle_sites, transforms.block_to_cycle),
    "merge-cycles": (transforms.merge_sites, transforms.merge_cycles),
    "balance-paths": (transforms.balance_sites, transforms.balance_paths),
    "shrink-girth": (transforms.shrink_sites, transforms.shrink_girth_to_3),
}


def _cmd_rewrite(args: argparse.Namespace) -> int:
    list_sites, apply = _REWRITE_KINDS[args.kind]
    graphs = _read_graphs(args)
    if len(graphs) != 1:
        raise ValueError("rewrite expects exactly one input graph")
    g = graphs[0]
    sites = list_sites(g)
    if args.list_sites:
        if args.format == "json":
            _emit_json({"kind": args.kind, "sites": [repr(s) for s in sites]})
        else:
            for i, s in enumerate(sites):
                print(f"{i}: {s!r}")
        return 0
    if not sites:
        raise ValueError(f"no valid {args.kind} site on this graph")
    if not 0 <= args.site_index < len(sites):
        raise ValueError(f"site index out of range (graph has {len(sites)} sites)")
    result = apply(g, sites[args.site_index])
    before, after = _invariants(g), _invariants(result)
    if args.format == "json":
        _emit_json(
            {
                "kind": args.kind,
                "site": repr(sites[args.site_index]),
                "before": {"graph6": graph6.encode(g), **before},
                "after": {"graph6": graph6.encode(result), **after},
                "eps_delta": after["eps"] - before["eps"],
            }
        )
    else:
        print(graph6.encode(result))
        print(f"before: {_kv_line(before)}", file=sys.stderr)
        print(f"after:  {_kv_line(after)}", file=sys.stderr)
        print(f"eps delta: {after['eps'] - before['eps']:+d}", file=sys.stderr)
    return 0


def _subtree_text(root: enumeration.Node, n: int, constraint: extremal.ClassConstraint) -> str:
    """The graph6 lines of the class members in one subtree of the stream, as one string."""
    graphs = (g for g, _ in enumeration.subtree(root, n))
    text = bytearray()  # no per-line list, in the worker or after unpickling
    for g in filter_graphs(graphs, constraint):
        text += graph6.encode(g).encode() + b"\n"
    return text.decode()


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    constraint = parse_constraint(args.constraint or "all")
    constraint.validate_for(args.n)
    enumeration.check_order(args.n, args.allow_large)
    out = open(args.graph6_out, "w") if args.graph6_out else sys.stdout
    try:
        count = 0
        if args.workers > 1:
            from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
            from multiprocessing import get_context

            roots = enumeration.roots(args.n, args.allow_large)
            job = functools.partial(_subtree_text, n=args.n, constraint=constraint)
            pool = ProcessPoolExecutor(min(args.workers, len(roots)), mp_context=get_context("spawn"))
            try:
                for text in pool.map(job, roots):
                    out.write(text)
                    count += text.count("\n")
            except BrokenExecutor as exc:  # a worker died, at start-up say: never wait
                raise ChildProcessError(f"worker pool failed: {exc}") from exc
            finally:  # on an early exit, drop the subtrees no worker has begun
                pool.shutdown(cancel_futures=True)
        else:
            graphs = enumeration.connected_graphs(args.n, allow_large=args.allow_large)
            for g in filter_graphs(graphs, constraint):
                out.write(graph6.encode(g) + "\n")
                count += 1
        print(f"emitted {count} graphs on {args.n} vertices", file=sys.stderr)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    constraint = parse_constraint(args.constraint)
    report = extremal.search(args.n, constraint, args.objective)
    if args.format == "json":
        payload = dataclasses.asdict(report)
        payload["constraint"] = str(report.constraint)
        _emit_json({"report": payload})
    else:
        print(
            f"n={report.n} class={report.constraint} objective={report.objective} "
            f"value={report.value} class_size={report.class_size}"
        )
        for w in report.witnesses:
            print(w)
    return 0


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        orders = list(range(int(lo), int(hi) + 1))
        if not orders:
            raise ValueError(f"empty order range {text!r}")
        return orders
    return [int(text)]


#: The scalar Verdict fields in field order; the witness tuples stay out of CSV.
_CSV_FIELDS = [f.name for f in dataclasses.fields(extremal.Verdict) if "tuple" not in str(f.type)]


def _emit_verdicts(verdicts: list[extremal.Verdict], fmt: str) -> None:
    rows = [dataclasses.asdict(v) for v in verdicts]
    if fmt == "json":
        _emit_json({"verdicts": rows})
        return
    if fmt == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=_CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
        return
    header = f"{'theorem':<14} {'n':>2} {'param':>5} {'predicted':>9} {'observed':>8} {'size':>6} {'status':<18}"
    print(header)
    print("-" * len(header))
    for v in verdicts:
        param = "-" if v.parameter is None else v.parameter
        observed = "-" if v.observed_value is None else v.observed_value
        print(
            f"{v.theorem:<14} {v.n:>2} {param:>5} {v.predicted_value:>9} "
            f"{observed:>8} {v.class_size:>6} {v.status:<18}"
        )


def _cmd_verify(args: argparse.Namespace) -> int:
    names = sorted(extremal.THEOREMS) if args.theorem == "all" else [args.theorem]
    orders = _parse_range(args.n)
    for n in orders:
        enumeration.check_order(n)
    extremal.fold_orders(orders[0], orders[-1])
    verdicts: list[extremal.Verdict] = []
    for n in orders:
        for name in names:
            print(f"verifying {name} at n={n}", file=sys.stderr)
            verdicts.extend(extremal.verify_theorem(name, n))
    if not verdicts:
        raise ValueError(f"no verifiable case for --theorem {args.theorem} at n={args.n}")
    _emit_verdicts(verdicts, args.format)
    failed = [v for v in verdicts if not v.ok]
    if failed:
        print(f"{len(failed)} verdict(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    orders = _parse_range(args.n)
    lo, hi = extremal.CONJECTURE.first, enumeration.MAX_EXHAUSTIVE
    for n in orders:
        if not lo <= n <= hi:
            raise ValueError(f"the conjecture audit covers {lo} <= n <= {hi}, not n={n}")
    extremal.fold_orders(orders[0], orders[-1])
    verdicts: list[extremal.Verdict] = []
    for n in orders:
        print(f"auditing conjecture at n={n}", file=sys.stderr)
        verdicts.extend(extremal.check_conjecture(n))
    if not verdicts:
        raise ValueError(f"no conjecture case at n={args.n}")
    _emit_verdicts(verdicts, args.format)
    violations = [v for v in verdicts if v.status == extremal.CONJECTURE_VIOLATED]
    if violations:
        print(f"{len(violations)} conjecture violation(s) found:", file=sys.stderr)
        for v in violations:
            print(f"  n={v.n} s={v.parameter}: {v.note}", file=sys.stderr)
            for c in v.counterexamples:
                print(f"    {c}", file=sys.stderr)
    else:
        print("no conjecture violations", file=sys.stderr)
    return 0


def _add_graph_inputs(p: argparse.ArgumentParser) -> None:
    """Exactly one input source: a graph6 string, graph6 lines on stdin, or a family."""
    inputs = p.add_mutually_exclusive_group(required=True)
    inputs.add_argument("--graph6", help="input graph as a graph6 string")
    inputs.add_argument("--stdin", action="store_true", help="read graph6 lines from stdin")
    inputs.add_argument(
        "--family",
        nargs="+",
        metavar="SPEC",
        help="family name followed by integer parameters",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totecc",
        description="Total eccentricity index: invariants, families, rewrites, "
        "enumeration, extremal search and theorem verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eps", help="invariants of graphs (and closed-form comparison for families)")
    _add_graph_inputs(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_eps)

    p = sub.add_parser("family", help="construct a named family member")
    p.add_argument("tag", help="family name, e.g. dumbbell")
    p.add_argument("params", nargs="+", type=int, help="integer parameters")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("rewrite", help="apply a rewrite at an enumerated site")
    p.add_argument("kind", choices=sorted(_REWRITE_KINDS))
    _add_graph_inputs(p)
    p.add_argument("--list-sites", action="store_true", help="list valid sites and exit")
    p.add_argument("--site-index", type=int, default=0, help="site number from --list-sites")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("enumerate", help="stream connected graphs, one graph6 line each")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--class", dest="constraint", help="e.g. tree, pendant_count=2, cut_count=3")
    p.add_argument("--graph6-out", help="write graph6 lines to a file instead of stdout")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--allow-large", action="store_true", help="unlock n=10 (slow)")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("search", help="exact extremum over a class with all witnesses")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--class", dest="constraint", required=True)
    p.add_argument("--objective", choices=["min", "max"], required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("verify", help="check extremal theorems exhaustively")
    p.add_argument("--theorem", default="all", choices=["all", *sorted(extremal.THEOREMS)])
    p.add_argument("-n", required=True, help="order or range, e.g. 7 or 3..8")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("conjecture", help="audit the open max-with-cut-vertices conjecture")
    p.add_argument("-n", required=True, help="order or range, e.g. 6 or 5..8")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(fn=_cmd_conjecture)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader left (`| head`): end as quietly as SIGPIPE would, with
        # stdout on devnull so that the flush at exit writes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, transforms.InvalidSiteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
