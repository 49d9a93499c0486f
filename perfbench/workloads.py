"""The five workloads: seeded inputs and the calls into totecc that are timed.

Input generation is pure Python and never calls the program, so it counts
towards set-up time only.  ``run`` makes every call through a module
attribute looked up at call time, so the traced run's wrappers see them.
Outputs are plain JSON-ready values for the independent checks in
``checks.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

WORKLOADS = ("enumerate-n8", "verify-n8", "formula-deep", "formula-shallow", "rewrite-mix")

ENUMERATE_ARGV = ["enumerate", "-n", "8"]
VERIFY_ARGV = ["verify", "--theorem", "all", "-n", "3..8", "--format", "json"]

# formula-deep takes every 4th order, formula-shallow every 2nd: a round
# takes 1.5 to 3 s on the reference machine (README), so a 15 s run
# reports the median of five or more rounds.
DEEP_ORDERS = range(8, 201, 4)
SHALLOW_ORDERS = range(8, 201, 2)

REWRITE_KINDS = ("add-edge", "graft", "relocate", "block-to-cycle", "merge", "balance", "shrink")
REWRITES_PER_KIND = 1200
MAX_REWRITE_ORDER = 12


def make_inputs(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "enumerate-n8":
        return ENUMERATE_ARGV
    if workload == "verify-n8":
        return VERIFY_ARGV
    if workload == "formula-deep":
        return _shuffled(rng, [op for n in DEEP_ORDERS for op in _deep_ops(rng, n)])
    if workload == "formula-shallow":
        return _shuffled(rng, [op for n in SHALLOW_ORDERS for op in _shallow_ops(rng, n)])
    if workload == "rewrite-mix":
        return _shuffled(rng, _rewrite_steps(rng))
    raise ValueError(f"unknown workload {workload!r}")


def _shuffled(rng: random.Random, items: list) -> list:
    rng.shuffle(items)
    return items


# --------------------------------------------------------------------------
# formula-*: one op is (family constructor, its params, closed form, its args).
# Seeded choices only pick among parameters of equal diameter class, so the
# work per round is the same on every seed.


def _deep_ops(rng: random.Random, n: int) -> list:
    k = rng.choice((2, 3))
    l = rng.randrange(1, k)
    m2 = rng.randrange(3, (n + 1) // 2 + 1)
    g = rng.randrange(n // 2, n)
    return [
        ("path", [n], "eps_path", [n]),
        ("cycle", [n], "eps_cycle", [n]),
        ("tadpole_l", [n, 3], "eps_unicyclic_max", [n]),
        ("dumbbell", [3, 3, n], "eps_c33", [n]),
        ("dumbbell", [n + 1 - m2, m2, n], "eps_dumbbell_shared", [n + 1 - m2, m2]),
        ("double_broom", [l, k - l, n - k], "eps_double_broom_max", [n, k]),
        ("tadpole_p", [n, g], "eps_tadpole_p", [n, g]),
    ]


def _shallow_ops(rng: random.Random, n: int) -> list:
    k = rng.randrange(1, 6)
    s = rng.randrange(1, 5)
    l = rng.randrange(1, n - 2)
    return [
        ("complete", [n], "eps_complete", [n]),
        ("star", [n], "eps_star", [n]),
        ("complete_with_pendants", [n, k], "formula_for_family", ["complete_with_pendants", n, k]),
        ("kmn_balanced", [n, s], "eps_kmn_balanced", [n, s]),
        ("double_broom", [l, n - 2 - l, 2], "eps_double_broom_max", [n, n - 2]),
    ]


# --------------------------------------------------------------------------
# rewrite-mix: inputs built as the acceptance suite's rewrite criterion
# builds them; one step is (kind, n, edge list, pick in [0, 1)).  The site
# applied is sites[int(pick * len(sites))] of the program's site list.


def random_connected_edges(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """Random recursive tree on n vertices plus ``extra`` random chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(missing)
    edges.update(missing[:extra])
    return sorted(edges)


def _random_base(rng: random.Random, lo: int = 2, hi: int = 5) -> tuple[int, list]:
    n = rng.randrange(lo, hi)
    return n, random_connected_edges(rng, n, rng.randrange(0, 3))


def _attach_path(edges: list, hub: int, first: int, length: int) -> None:
    prev = hub
    for v in range(first, first + length):
        edges.append((prev, v))
        prev = v


def _attach_ring(edges: list, ring: list[int]) -> None:
    edges.extend((ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring)))


def _rewrite_input(rng: random.Random, kind: str) -> tuple[int, list]:
    """One input graph of ``kind`` with at least one valid site, n <= 12."""
    while True:
        if kind == "add-edge":
            n = rng.randrange(3, 13)
            edges = random_connected_edges(rng, n, rng.randrange(0, 12))
            if len(edges) < n * (n - 1) // 2:
                return n, edges
        elif kind == "graft":
            n0, edges = _random_base(rng)
            k = rng.randrange(1, 4)
            l = rng.randrange(k, 5)
            if n0 + k + l <= MAX_REWRITE_ORDER:
                hub = rng.randrange(n0)
                _attach_path(edges, hub, n0, k)
                _attach_path(edges, hub, n0 + k, l)
                return n0 + k + l, edges
        elif kind == "relocate":
            h1, h2, d = rng.randrange(2, 6), rng.randrange(2, 6), rng.randrange(2, 6)
            if h1 + h2 - 1 + d - 1 <= MAX_REWRITE_ORDER:
                edges = random_connected_edges(rng, h1, rng.randrange(0, 3))
                off = h1 - 1
                for u, v in random_connected_edges(rng, h2, rng.randrange(0, 3)):
                    edges.append((u + off if u else 0, v + off if v else 0))
                n0 = h1 + h2 - 1
                _attach_path(edges, 0, n0, d - 1)
                return n0 + d - 1, edges
        elif kind == "block-to-cycle":
            # A random graph with a random 2-connected leaf block hung at
            # one vertex, so at least one block meets at most one cut vertex.
            n0, edges = _random_base(rng, 1, 8)
            r = rng.randrange(3, 6)
            if n0 + r - 1 <= MAX_REWRITE_ORDER:
                ring = [rng.randrange(n0)] + list(range(n0, n0 + r - 1))
                _attach_ring(edges, ring)
                chords = [(ring[i], ring[j]) for i in range(r) for j in range(i + 2, r)]
                chords = [c for c in chords if c != (ring[0], ring[-1])]
                rng.shuffle(chords)
                edges.extend(chords[: rng.randrange(0, len(chords) + 1)])
                return n0 + r - 1, edges
        elif kind == "merge":
            n0, edges = _random_base(rng)
            m1, m2 = rng.randrange(3, 6), rng.randrange(3, 6)
            if n0 + m1 + m2 - 2 <= MAX_REWRITE_ORDER:
                w = rng.randrange(n0)
                _attach_ring(edges, [w] + list(range(n0, n0 + m1 - 1)))
                _attach_ring(edges, [w] + list(range(n0 + m1 - 1, n0 + m1 + m2 - 2)))
                return n0 + m1 + m2 - 2, edges
        elif kind == "balance":
            m = rng.randrange(2, 6)
            lengths = [rng.randrange(1, 6) for _ in range(m)]
            if sum(lengths) <= MAX_REWRITE_ORDER and max(lengths) - min(lengths) >= 2:
                edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
                nxt = m
                for i, length in enumerate(lengths):
                    _attach_path(edges, i, nxt, length - 1)
                    nxt += length - 1
                return sum(lengths), edges
        elif kind == "shrink":
            n0, edges = _random_base(rng)
            girth = rng.randrange(4, 7)
            r = girth + rng.randrange(1, 4)
            if n0 + r <= MAX_REWRITE_ORDER:
                # tadpole: ring n0..n0+girth-1, path on to the pendant n0+r-1,
                # whose edge to a base vertex is the site's bridge
                _attach_ring(edges, list(range(n0, n0 + girth)))
                _attach_path(edges, n0, n0 + girth, r - girth)
                edges.append((rng.randrange(n0), n0 + r - 1))
                return n0 + r, edges
        else:
            raise ValueError(f"unknown rewrite kind {kind!r}")


def _rewrite_steps(rng: random.Random) -> list:
    steps = []
    for kind in REWRITE_KINDS:
        for _ in range(REWRITES_PER_KIND):
            n, edges = _rewrite_input(rng, kind)
            steps.append((kind, n, edges, rng.random()))
    return steps


# --------------------------------------------------------------------------
# The timed calls.


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _add_edge_sites(g) -> list[tuple[int, int]]:
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]


def _rewrite_api(t):
    """kind -> (site lister, applier), the pairs the CLI's rewrite command uses."""
    return {
        "add-edge": (_add_edge_sites, lambda g, s: t.add_edge(g, *s)),
        "graft": (t.graft_sites, t.graft_edge),
        "relocate": (t.relocate_sites, t.relocate_path),
        "block-to-cycle": (t.block_cycle_sites, t.block_to_cycle),
        "merge": (t.merge_sites, t.merge_cycles),
        "balance": (t.balance_sites, t.balance_paths),
        "shrink": (t.shrink_sites, t.shrink_girth_to_3),
    }


def run(workload: str, inputs, totecc) -> object:
    """Call the program on ``inputs`` and return its consumed output.

    ``totecc`` is a namespace holding the package's modules (cli, graph,
    families, formulas, transforms).
    """
    if workload == "enumerate-n8":
        rc, text = _run_cli(totecc.cli, inputs)
        return {"rc": rc, "lines": text.splitlines()}
    if workload == "verify-n8":
        rc, text = _run_cli(totecc.cli, inputs)
        return {"rc": rc, "payload": json.loads(text)}
    if workload in ("formula-deep", "formula-shallow"):
        fam, form, graph = totecc.families, totecc.formulas, totecc.graph
        rows = []
        for family, params, formula, fargs in inputs:
            g = getattr(fam, family)(*params)
            bfs = graph.total_eccentricity(g)
            if formula == "formula_for_family":
                closed = form.formula_for_family(fam.FamilySpec(fargs[0], tuple(fargs[1:])))
            else:
                closed = getattr(form, formula)(*fargs)
            rows.append([bfs, closed])
        return rows
    if workload == "rewrite-mix":
        graph = totecc.graph
        api = _rewrite_api(totecc.transforms)
        rows = []
        for kind, n, edges, pick in inputs:
            list_sites, apply = api[kind]
            try:
                g = graph.Graph.from_edges(n, edges)
                sites = list_sites(g)
                out = apply(g, sites[int(pick * len(sites))])
                before, after = graph.total_eccentricity(g), graph.total_eccentricity(out)
                rows.append([len(sites), list(out.adj), before, after])
            except (ValueError, IndexError) as exc:
                rows.append(f"{type(exc).__name__}: {exc}")
        return rows
    raise ValueError(f"unknown workload {workload!r}")
