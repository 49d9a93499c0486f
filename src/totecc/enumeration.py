"""Isomorph-free streams of connected graphs with class predicates.

The primary stream grows graphs one vertex at a time (orderly / canonical
construction path): a child made by attaching vertex k to a neighbor
subset survives only if k lies in the automorphism orbit of the child's
canonical deletion vertex (the non-cut vertex holding the highest
canonical label), and parents only try one neighbor subset per orbit of
their own automorphism group.  This emits exactly one representative per
isomorphism class without keeping a global seen-set, so the stream is
memory-flat, restartable, deterministic in order, and shardable on the
level-6 subtree roots.

connected_graphs_dedup() is the independent fallback (extend everything,
dedup by canonical form); the test suite checks both agree for n <= 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .canon import canon
from .graph import Graph, cut_vertices, girth, is_connected, pendant_vertices

#: Exhaustive enumeration cap; n = 10 (~11.7M classes) needs the explicit
#: opt-in and realistically also sharded workers.
MAX_EXHAUSTIVE = 9
MAX_OPTIN = 10

_SHARD_LEVEL = 6

_K1 = Graph(1, (0,))


def _extend(g: Graph, mask: int) -> Graph:
    """Attach a new vertex adjacent to the ``mask`` subset of g."""
    rows = list(g.adj)
    new = g.n
    for v in range(g.n):
        if mask >> v & 1:
            rows[v] |= 1 << new
    rows.append(mask)
    return Graph(g.n + 1, tuple(rows))


def _apply_to_mask(gamma: tuple[int, ...], mask: int) -> int:
    out = 0
    v = mask
    while v:
        low = v & -v
        out |= 1 << gamma[low.bit_length() - 1]
        v ^= low
    return out


def _subset_orbit_reps(k: int, gens: tuple[tuple[int, ...], ...]) -> Iterator[int]:
    """One nonempty neighbor subset per orbit of the parent's automorphisms."""
    if not gens:
        yield from range(1, 1 << k)
        return
    seen = bytearray(1 << k)
    for mask in range(1, 1 << k):
        if seen[mask]:
            continue
        yield mask
        stack = [mask]
        seen[mask] = 1
        while stack:
            m = stack.pop()
            for gamma in gens:
                im = _apply_to_mask(gamma, m)
                if not seen[im]:
                    seen[im] = 1
                    stack.append(im)


def _accepted_children(
    g: Graph, gens: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[Graph, tuple[tuple[int, ...], ...]]]:
    """One-vertex extensions passing the canonical-deletion test."""
    k = g.n
    for mask in _subset_orbit_reps(k, gens):
        child = _extend(g, mask)
        res = canon(child)
        cuts = cut_vertices(child)
        pos = [0] * child.n
        for i, v in enumerate(res.labeling):
            pos[v] = i
        deletion = max(
            (v for v in range(child.n) if v not in cuts), key=pos.__getitem__
        )
        if res.orbits[k] == res.orbits[deletion]:
            yield child, res.generators


def _grow(
    g: Graph, gens: tuple[tuple[int, ...], ...], n: int
) -> Iterator[tuple[Graph, tuple[tuple[int, ...], ...]]]:
    if g.n == n:
        yield g, gens
        return
    for child, child_gens in _accepted_children(g, gens):
        yield from _grow(child, child_gens, n)


def connected_graphs(
    n: int, *, shard: tuple[int, int] | None = None, allow_large: bool = False
) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class, streamed.

    ``shard=(i, w)`` keeps only every w-th level-6 subtree starting at the
    i-th; the union over all shards is the full stream and aggregations
    over it must not depend on order.
    """
    for subtree in _subtrees(n, shard, allow_large):
        yield from subtree


def _subtrees(
    n: int, shard: tuple[int, int] | None, allow_large: bool
) -> Iterator[Iterator[Graph]]:
    """The stream of connected_graphs, one iterator per level-6 subtree in the shard.

    Shard (i, w) gets subtrees i, i + w, ...; taking one subtree from each
    shard in turn restores the unsharded order.
    """
    cap = MAX_OPTIN if allow_large else MAX_EXHAUSTIVE
    if not 1 <= n <= cap:
        raise ValueError(
            f"exhaustive enumeration supports 1 <= n <= {cap}"
            + ("" if allow_large else " (allow_large=True unlocks 10)")
        )
    if shard is None:
        shard = (0, 1)
    idx, total = shard
    if total < 1 or not 0 <= idx < total:
        raise ValueError(f"invalid shard {shard}")
    base_level = min(n, _SHARD_LEVEL)
    for count, (base, gens) in enumerate(_grow(_K1, (), base_level)):
        if count % total == idx:
            yield (g for g, _ in _grow(base, gens, n))


@lru_cache(maxsize=None)
def connected_graph_list(n: int) -> tuple[Graph, ...]:
    """Cached full list of class representatives (reused by searches)."""
    return tuple(connected_graphs(n))


def connected_graphs_dedup(n: int) -> list[Graph]:
    """Fallback generator: extend every subset, dedup by canonical form."""
    if not 1 <= n <= MAX_EXHAUSTIVE:
        raise ValueError(f"dedup enumeration supports 1 <= n <= {MAX_EXHAUSTIVE}")
    level = [_K1]
    for k in range(2, n + 1):
        seen: set[bytes] = set()
        nxt: list[Graph] = []
        for parent in level:
            for mask in range(1, 1 << (k - 1)):
                child = _extend(parent, mask)
                form = canon(child).form
                if form not in seen:
                    seen.add(form)
                    nxt.append(child)
        level = nxt
    return level


_KINDS = {
    "all",
    "pendant_count",
    "cut_count",
    "tree",
    "tree_with_pendants",
    "unicyclic",
    "unicyclic_girth",
}


@dataclass(frozen=True)
class ClassConstraint:
    """Predicate picking one of the graph classes under study."""

    kind: str
    param: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown class kind {self.kind!r}")
        needs_param = self.kind in {
            "pendant_count",
            "cut_count",
            "tree_with_pendants",
            "unicyclic_girth",
        }
        if needs_param:
            if self.param is None or self.param < 0:
                raise ValueError(f"class {self.kind} needs a parameter >= 0")
            if self.kind == "unicyclic_girth" and self.param < 3:
                raise ValueError("girth parameter must be >= 3")
        elif self.param is not None:
            raise ValueError(f"class {self.kind} takes no parameter")

    def validate_for(self, n: int) -> None:
        """Range checks that depend on the order under enumeration."""
        k = self.param
        if self.kind in ("pendant_count", "tree_with_pendants") and not 0 <= k <= n:
            raise ValueError(f"pendant count must be in 0..{n}")
        if self.kind == "cut_count" and not 0 <= k <= max(n - 2, 0):
            raise ValueError(f"cut count must be in 0..{max(n - 2, 0)}")
        if self.kind == "unicyclic_girth" and not 3 <= k <= n:
            raise ValueError(f"girth must be in 3..{n}")

    def matches(self, g: Graph) -> bool:
        kind, k = self.kind, self.param
        if kind == "all":
            return True
        if kind == "pendant_count":
            return len(pendant_vertices(g)) == k
        if kind == "cut_count":
            return len(cut_vertices(g)) == k
        if kind == "tree":
            return g.edge_count == g.n - 1
        if kind == "tree_with_pendants":
            return g.edge_count == g.n - 1 and len(pendant_vertices(g)) == k
        if kind == "unicyclic":
            return g.edge_count == g.n
        if kind == "unicyclic_girth":
            return g.edge_count == g.n and girth(g) == k
        raise AssertionError(kind)

    def __str__(self) -> str:
        return self.kind if self.param is None else f"{self.kind}={self.param}"


def parse_constraint(text: str) -> ClassConstraint:
    """Parse CLI spellings like 'all', 'tree', 'pendant_count=2', 'cut_count=3'."""
    t = text.strip().lower().replace("-", "_")
    if "=" in t:
        kind, _, value = t.partition("=")
        return ClassConstraint(kind, int(value))
    return ClassConstraint(t)


def filter_graphs(stream: Iterable[Graph], constraint: ClassConstraint) -> Iterator[Graph]:
    """Members of the stream satisfying the class predicate."""
    for g in stream:
        if constraint.matches(g):
            yield g


def count_class(n: int, constraint: ClassConstraint) -> int:
    """Cardinality of the constrained class among order-n representatives."""
    constraint.validate_for(n)
    return sum(1 for _ in filter_graphs(connected_graph_list(n), constraint))


def labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices (2^(n choose 2) of them)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        m = mask
        for u, v in pairs:
            if m & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            m >>= 1
        yield Graph(n, tuple(rows))


def labeled_connected_count(n: int) -> int:
    """Count of connected labeled graphs by direct enumeration (oracle)."""
    return sum(1 for g in labeled_graphs(n) if is_connected(g))
