"""Slow reference computations that only the tests use."""

from typing import Iterator, Sequence

from totecc.canon import canon
from totecc.enumeration import Gens, _extend
from totecc.graph import DisconnectedGraphError, Graph, _reach, bfs_distances, bits, is_connected


def distance_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All-pairs distances via one BFS per vertex."""
    return tuple(bfs_distances(g, v).dist for v in range(g.n))


def _is_cut_vertex(adj: Sequence[int], v: int) -> bool:
    """Whether deleting ``v`` disconnects the connected graph with rows ``adj``.

    Needs at least two vertices: the search starts at a vertex other than v.
    """
    return _reach(adj, 1 if v == 0 else 0, 1 << v).bit_count() != len(adj) - 1


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


def refine_by_buckets(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """canon._refine as it was before it passed over cells far from the splitter."""
    queue = list(splitters)
    qi = 0
    while qi < len(queue):
        splitter = queue[qi]
        qi += 1
        out: list[int] = []
        for cell in cells:
            if cell.bit_count() == 1:
                out.append(cell)
                continue
            buckets: dict[int, int] = {}
            for v in bits(cell):
                key = (adj[v] & splitter).bit_count()
                buckets[key] = buckets.get(key, 0) | (1 << v)
            if len(buckets) == 1:
                out.append(cell)
            else:
                parts = [buckets[k] for k in sorted(buckets)]
                out.extend(parts)
                queue.extend(parts)
        cells = out
    return cells


def _apply_to_mask(gamma: tuple[int, ...], mask: int) -> int:
    out = 0
    v = mask
    while v:
        low = v & -v
        out |= 1 << gamma[low.bit_length() - 1]
        v ^= low
    return out


def subset_orbit_reps_by_mask(k: int, gens: Gens) -> Iterator[int]:
    """enumeration._subset_orbit_reps as it was, mapping each mask bit by bit."""
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
