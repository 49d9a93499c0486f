"""Independent checks of every workload's outputs.

Nothing here imports totecc.  The oracles are networkx (eccentricity,
articulation points, isomorphism, the graph atlas of all graphs up to
7 vertices), a bit-set BFS and family constructors written here, and the
published counts of connected graphs from the OEIS.

Each ``check_*`` returns ``(attempted, failed, problems)``: one operation
per emitted line, verdict, (formula, construction) pair or rewrite
application, and a few sample problem descriptions for the log.
"""

from __future__ import annotations

import json
import random
import warnings
from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations

import networkx as nx

# networkx 3.5 changed the WL hash of unlabeled graphs and warns about it;
# the hash is only used to bucket graphs here.
warnings.filterwarnings("ignore", category=UserWarning, module="networkx")

MAX_PROBLEMS = 5

# OEIS A001349: connected graphs on n unlabeled vertices, n = 1..8.
A001349 = (1, 1, 2, 6, 21, 112, 853, 11117)
# OEIS A000055 (trees) and A001429 (connected unicyclic graphs) at n = 8.
A000055_8 = 23
A001429_8 = 89
# OEIS A002905, row n = 8: connected graphs on 8 unlabeled vertices with
# m = 7..28 edges.  It sums to A001349(8); its 7- and 8-edge entries are
# the trees and the unicyclic graphs.
A002905_8 = dict(enumerate(
    (23, 89, 236, 486, 814, 1169, 1454, 1579, 1515, 1290, 970,
     658, 400, 220, 114, 56, 24, 11, 5, 2, 1, 1),
    start=7,
))
assert sum(A002905_8.values()) == A001349[7]
assert (A002905_8[7], A002905_8[8]) == (A000055_8, A001429_8)


class _Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(what)

    def result(self) -> tuple[int, int, list[str]]:
        return self.attempted, self.failed, self.problems


# --------------------------------------------------------------------------
# Bit-set graphs built here from edge lists, and their eccentricities.


def masks_from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def eccentricities(adj: list[int]) -> list[int] | None:
    """Per-vertex eccentricity by counting BFS levels; None if disconnected."""
    n = len(adj)
    full = (1 << n) - 1
    out = []
    for s in range(n):
        seen = frontier = 1 << s
        depth = 0
        while seen != full:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            if not frontier:
                return None
            seen |= frontier
            depth += 1
        out.append(depth)
    return out


# Every round of a run checks the same inputs, so oracle results are kept
# by the content they were computed from.


@lru_cache(maxsize=None)
def total_eccentricity(adj: tuple[int, ...]) -> int | None:
    ecc = eccentricities(list(adj))
    return None if ecc is None else sum(ecc)


def _nx_from_masks(adj: list[int]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((u, v) for u in range(len(adj)) for v in range(u) if adj[u] >> v & 1)
    return g


def _ring(vs: list[int]) -> list[tuple[int, int]]:
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def _chain(vs: list[int]) -> list[tuple[int, int]]:
    return list(zip(vs, vs[1:]))


def _clique(m: int) -> list[tuple[int, int]]:
    return list(combinations(range(m), 2))


def family_edges(family: str, params: list[int]) -> tuple[int, list]:
    """The named family member as (n, edges), up to relabelling."""
    p = params
    if family == "path":
        return p[0], _chain(list(range(p[0])))
    if family == "cycle":
        return p[0], _ring(list(range(p[0])))
    if family == "complete":
        return p[0], _clique(p[0])
    if family == "star":
        return p[0], [(0, v) for v in range(1, p[0])]
    if family == "double_broom":  # l pendants, m pendants, spine of d vertices
        l, m, d = p
        spine = list(range(d))
        edges = _chain(spine) + [(0, d + i) for i in range(l)]
        return l + m + d, edges + [(d - 1, d + l + i) for i in range(m)]
    if family == "tadpole_l":  # g-cycle with a path to n vertices
        n, g = p
        return n, _ring(list(range(g))) + _chain([0] + list(range(g, n)))
    if family == "tadpole_p":  # g-cycle with n-g pendants on one vertex
        n, g = p
        return n, _ring(list(range(g))) + [(0, v) for v in range(g, n)]
    if family == "dumbbell":  # m1- and m2-cycles joined at a vertex or by a path
        m1, m2, n = p
        if n == m1 + m2 - 1:
            return n, _ring(list(range(m1))) + _ring([0] + list(range(m1, n)))
        ring2 = list(range(m1, m1 + m2))
        bridge = [0] + list(range(m1 + m2, n)) + [m1]
        return n, _ring(list(range(m1))) + _ring(ring2) + _chain(bridge)
    if family == "complete_with_pendants":
        n, k = p
        return n, _clique(n - k) + [(0, v) for v in range(n - k, n)]
    if family == "kmn_balanced":  # clique on n-s vertices, balanced paths
        n, s = p
        m = n - s
        q, r = divmod(n, m)
        edges, nxt = _clique(m), m
        for root in range(m):
            extra = q if root < r else q - 1
            edges += _chain([root] + list(range(nxt, nxt + extra)))
            nxt += extra
        return n, edges
    raise ValueError(f"no independent constructor for {family!r}")


# --------------------------------------------------------------------------
# enumerate-n8: one operation per emitted line.


def check_enumerate(out: dict) -> tuple[int, int, list[str]]:
    n = 8
    t = _Tally()
    if out["rc"] != 0:
        t.fail(f"exit code {out['rc']}")
    buckets: dict[str, list[nx.Graph]] = defaultdict(list)
    by_edges: Counter = Counter()
    for line in out["lines"]:
        g, wl_hash = _decoded_with_hash(line, n)
        if g is None:
            t.record(False, f"{line!r} is not a connected {n}-vertex graph")
            continue
        bucket = buckets[wl_hash]
        if any(nx.is_isomorphic(g, h) for h in bucket):
            t.record(False, f"{line!r} repeats an earlier class")
            continue
        bucket.append(g)
        by_edges[g.number_of_edges()] += 1
        t.record(True)
    for m, want in A002905_8.items():
        if by_edges[m] > want:
            t.fail(f"{by_edges[m]} classes with {m} edges, only {want} exist")
        for _ in range(want - by_edges[m]):
            t.record(False, f"missing a class with {m} edges")
    return t.result()


@lru_cache(maxsize=None)
def _decoded_with_hash(line: str, n: int) -> tuple[nx.Graph | None, str]:
    g = _decode(line, n)
    return g, "" if g is None else nx.weisfeiler_lehman_graph_hash(g)


# --------------------------------------------------------------------------
# verify-n8: one operation per verdict.

PASS, FAIL, UNIQUENESS_FAIL = "pass", "fail", "uniqueness-fail"


def expected_verdicts(orders: range) -> list[tuple[str, int, int | None]]:
    """(theorem, n, parameter) of every instance the theorems state."""
    keys = []
    for n in orders:
        keys += [("pendant-max", n, k) for k in range(n - 2)]
        keys += [("pendant-min", n, k) for k in range(n - 2)]
        if n >= 5:
            keys += [("unicyclic-min", n, None), ("unicyclic-max", n, None)]
        keys += [("cut-min", n, s) for s in range(n - 1)]
        keys += [("cut-max", n, s) for s in sorted({0, 1, n - 3, n - 2} & set(range(n - 1)))]
        if n >= 4:
            for k in range(2, n):
                keys += [("tree-max", n, k), ("tree-min", n, k)]
    return keys


def _profile(g: nx.Graph) -> dict:
    n, m = g.number_of_nodes(), g.number_of_edges()
    return {
        "graph": g,
        "eps": sum(nx.eccentricity(g).values()),
        "pendants": sum(1 for _, d in g.degree() if d == 1),
        "cuts": len(set(nx.articulation_points(g))),
        "edges": m,
        "n": n,
    }


def _in_class(theorem: str, param: int | None, p: dict) -> bool:
    family = theorem.rsplit("-", 1)[0]
    if family == "pendant":
        return p["pendants"] == param
    if family == "cut":
        return p["cuts"] == param
    if family == "unicyclic":
        return p["edges"] == p["n"]
    if family == "tree":
        return p["edges"] == p["n"] - 1 and p["pendants"] == param
    raise ValueError(f"unknown theorem {theorem!r}")


@lru_cache(maxsize=None)
def _atlas(n: int) -> tuple[dict, ...]:
    """Profiles of every connected graph on n <= 7 vertices (networkx atlas)."""
    return tuple(
        _profile(g)
        for g in nx.graph_atlas_g()
        if g.number_of_nodes() == n and nx.is_connected(g)
    )


def _iso_match(graphs: list[nx.Graph], pool: list[nx.Graph]) -> bool:
    """True when every graph is isomorphic to a distinct member of pool."""
    free = list(pool)
    for g in graphs:
        hit = next((h for h in free if nx.is_isomorphic(g, h)), None)
        if hit is None:
            return False
        free.remove(hit)
    return True


def _decode(text: str, n: int) -> nx.Graph | None:
    try:
        g = nx.from_graph6_bytes(text.encode())
    except (ValueError, nx.NetworkXError):
        return None
    return g if g.number_of_nodes() == n and nx.is_connected(g) else None


def _pairwise_distinct(graphs: list[nx.Graph]) -> bool:
    return not any(nx.is_isomorphic(g, h) for g, h in combinations(graphs, 2))


def _check_verdict(v: dict) -> str | None:
    return _check_verdict_json(json.dumps(v, sort_keys=True))


@lru_cache(maxsize=None)
def _check_verdict_json(text: str) -> str | None:
    """None if the verdict agrees with the oracle, else what is wrong."""
    v = json.loads(text)
    theorem, n, param = v["theorem"], v["n"], v["parameter"]
    objective = max if theorem.endswith("-max") else min
    observed = [_decode(w, n) for w in v["observed_witnesses"]]
    predicted = [_decode(w, n) for w in v["predicted_witnesses"]]
    if None in observed or None in predicted:
        return "a witness is not a connected graph of the right order"
    if n <= 7:
        members = [p for p in _atlas(n) if _in_class(theorem, param, p)]
        if v["class_size"] != len(members):
            return f"class size {v['class_size']}, oracle {len(members)}"
        best = objective(p["eps"] for p in members)
        extremal = [p["graph"] for p in members if p["eps"] == best]
        if v["observed_value"] != best:
            return f"observed value {v['observed_value']}, oracle {best}"
        if len(observed) != len(extremal) or not _iso_match(observed, extremal):
            return "observed witnesses differ from the oracle's extremal set"
    else:
        # No oracle enumerates n = 8: check what the verdict claims of
        # each witness, and the class totals in check_verify.
        for g in observed:
            p = _profile(g)
            if not _in_class(theorem, param, p) or p["eps"] != v["observed_value"]:
                return "an observed witness is outside the class or off the extremum"
        if not _pairwise_distinct(observed):
            return "observed witnesses repeat a class"
        best, extremal = v["observed_value"], observed
    # The stated rule: the predicted value and witnesses must be extremal,
    # and with uniqueness claimed they must be all of the extremal graphs.
    if v["predicted_value"] != best or not _iso_match(predicted, extremal):
        status = FAIL
    elif v["uniqueness_checked"] and len(predicted) != len(extremal):
        status = UNIQUENESS_FAIL
    else:
        status = PASS
    if v["status"] != status:
        return f"status {v['status']}, rule gives {status}"
    return None


# Published class totals at n = 8, summed over a theorem's verdicts: cut
# counts 0..6 partition all connected graphs, pendant counts 2..7 the trees.
CLASS_TOTALS_8 = {
    "cut-min": A001349[7],
    "tree-max": A000055_8,
    "tree-min": A000055_8,
    "unicyclic-min": A001429_8,
    "unicyclic-max": A001429_8,
}


def check_verify(out: dict, orders: range = range(3, 9)) -> tuple[int, int, list[str]]:
    t = _Tally()
    payload = out["payload"]
    rows = payload.get("verdicts", []) if payload.get("schema_version") == 1 else []
    by_key: dict = defaultdict(list)
    for v in rows:
        by_key[(v["theorem"], v["n"], v["parameter"])].append(v)
    expected = expected_verdicts(orders)
    for key in set(by_key) - set(expected):
        for _ in by_key[key]:
            t.record(False, f"unexpected verdict {key}")
    wrong_totals = set()
    if 8 in orders:
        for theorem, want in CLASS_TOTALS_8.items():
            got = sum(v["class_size"] for v in rows if (v["theorem"], v["n"]) == (theorem, 8))
            if got != want:
                wrong_totals.add(theorem)
    # Exit code 1 iff some verdict fails (docs/cli-json.md).
    failing = any(v["status"] in (FAIL, UNIQUENESS_FAIL) for v in rows)
    rc_ok = out["rc"] == (1 if failing else 0)
    for key in expected:
        found = by_key.get(key, [])
        if len(found) != 1:
            problem = f"{len(found)} verdicts"
        elif key[1] == 8 and key[0] in wrong_totals:
            problem = f"n=8 {key[0]} class sizes miss the published total"
        elif not rc_ok:
            problem = f"exit code {out['rc']} disagrees with the statuses"
        else:
            problem = _check_verdict(found[0])
        t.record(problem is None, f"{key}: {problem}")
    return t.result()


# --------------------------------------------------------------------------
# formula-*: one operation per (formula, construction) pair.


def check_formulas(ops: list, rows: list, seed: int) -> tuple[int, int, list[str]]:
    t = _Tally()
    if len(rows) != len(ops):
        t.fail(f"{len(rows)} results for {len(ops)} pairs")
    sample = set(random.Random(seed).sample(range(len(ops)), 3))
    for i, (family, params, _formula, _args) in enumerate(ops):
        n, edges = family_edges(family, params)
        want = total_eccentricity(tuple(masks_from_edges(n, edges)))
        got = rows[i] if i < len(rows) else None
        ok = got is not None and got[0] == want and got[1] == want
        if ok and i in sample:
            ok = _nx_ecc_agrees(nx.Graph(edges), random.Random(seed + i))
        t.record(ok, f"{family}{tuple(params)}: BFS/closed form {got}, oracle total {want}")
    return t.result()


def _nx_ecc_agrees(g: nx.Graph, rng: random.Random) -> bool:
    """networkx agrees with the bit-set BFS on a few sampled vertices."""
    vs = rng.sample(sorted(g), min(4, len(g)))
    ecc = eccentricities(masks_from_edges(len(g), g.edges()))
    got = nx.eccentricity(g, v=vs)
    return all(got[v] == ecc[v] for v in vs)


# --------------------------------------------------------------------------
# rewrite-mix: one operation per application.

# The contract of each rewrite on the total: after (op) before.
CONTRACTS = {
    "add-edge": lambda a, b: a <= b,
    "graft": lambda a, b: a > b,
    "relocate": lambda a, b: a > b,
    "block-to-cycle": lambda a, b: a >= b,
    "merge": lambda a, b: a >= b,
    "balance": lambda a, b: a <= b,
    "shrink": lambda a, b: a > b,
}


def check_rewrites(steps: list, rows: list, seed: int) -> tuple[int, int, list[str]]:
    t = _Tally()
    if len(rows) != len(steps):
        t.fail(f"{len(rows)} results for {len(steps)} applications")
    sample = set(random.Random(seed).sample(range(len(steps)), 20))
    for i, (kind, n, edges, _pick) in enumerate(steps):
        row = rows[i] if i < len(rows) else "missing"
        if isinstance(row, str):
            t.record(False, f"{kind} on n={n}: {row}")
            continue
        n_sites, out_adj, eps_before, eps_after = row
        before = total_eccentricity(tuple(masks_from_edges(n, edges)))
        simple = len(out_adj) == n and _is_simple(out_adj)
        # A disconnected result has no total, which fails the comparison.
        after = total_eccentricity(tuple(out_adj)) if simple else None
        ok = (
            n_sites >= 1
            and (before, after) == (eps_before, eps_after)
            and CONTRACTS[kind](eps_after, eps_before)
        )
        if ok and i in sample:
            ok = (
                sum(nx.eccentricity(nx.Graph(edges)).values()) == before
                and sum(nx.eccentricity(_nx_from_masks(out_adj)).values()) == eps_after
            )
        t.record(ok, f"{kind} on n={n}: totals {eps_before}->{eps_after}, oracle {before}")
    return t.result()


def _is_simple(adj: list[int]) -> bool:
    n = len(adj)
    return all(
        not row >> v & 1 and row < 1 << n and all(adj[u] >> v & 1 for u in range(n) if row >> u & 1)
        for v, row in enumerate(adj)
    )


def check(workload: str, inputs, output, seed: int) -> tuple[int, int, list[str]]:
    if workload == "enumerate-n8":
        return check_enumerate(output)
    if workload == "verify-n8":
        return check_verify(output)
    if workload in ("formula-deep", "formula-shallow"):
        return check_formulas(inputs, output, seed)
    if workload == "rewrite-mix":
        return check_rewrites(inputs, output, seed)
    raise ValueError(f"unknown workload {workload!r}")
