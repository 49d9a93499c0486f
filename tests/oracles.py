"""Slow reference computations that only the tests use."""

from typing import Iterator

from totecc.canon import canon
from totecc.enumeration import _extend
from totecc.graph import DisconnectedGraphError, Graph, _is_cut_vertex, bfs_distances, is_connected


def distance_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All-pairs distances via one BFS per vertex."""
    return tuple(bfs_distances(g, v).dist for v in range(g.n))


def cut_vertices_by_deletion(g: Graph) -> frozenset[int]:
    """Articulation points by n deletion/connectivity checks."""
    if not is_connected(g):
        raise DisconnectedGraphError("invariant requires a connected graph")
    if g.n == 1:
        return frozenset()
    return frozenset(v for v in range(g.n) if _is_cut_vertex(g.adj, v))


def connected_graphs_dedup(n: int) -> list[Graph]:
    """Extend every graph by every neighbor subset, dedup by canonical form."""
    if not 1 <= n <= 9:
        raise ValueError("dedup enumeration supports 1 <= n <= 9")
    level = [Graph(1, (0,))]
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
    """Count of connected labeled graphs by direct enumeration."""
    return sum(1 for g in labeled_graphs(n) if is_connected(g))
