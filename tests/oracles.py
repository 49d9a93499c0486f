"""Slow reference computations that only the tests use."""

from itertools import combinations
from typing import Iterator, Sequence

from totecc.canon import canon
from totecc.enumeration import Gens, Parts, _extend, _is_cut, roots, subtree
from totecc.extremal import Fold, _classes, _Extrema
from totecc.graph import (
    BlockDecomposition,
    DisconnectedGraphError,
    Graph,
    _reach,
    bfs_distances,
    bits,
    is_connected,
    total_eccentricity,
    without_edge,
)
from totecc.transforms import RelocateSite, ShrinkSite, _require


def distance_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All-pairs distances via one BFS per vertex."""
    return tuple(bfs_distances(g, v).dist for v in range(g.n))


def _is_cut_vertex(adj: Sequence[int], v: int) -> bool:
    """Whether deleting ``v`` disconnects the connected graph with rows ``adj``.

    Needs at least two vertices: the search starts at a vertex other than v.
    """
    return _reach(adj, 1 if v == 0 else 0, 1 << v).bit_count() != len(adj) - 1


def block_graph(decomp: BlockDecomposition) -> Graph | None:
    """Blocks joined when they share a vertex; None when there are no blocks (one vertex)."""
    b = decomp.blocks
    if not b:
        return None
    # Two blocks share at most one vertex, and a shared vertex is a cut vertex.
    return Graph.from_edges(len(b), [(i, j) for i, j in combinations(range(len(b)), 2) if b[i] & b[j]])


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


def fold_per_order(n: int) -> Fold:
    """extremal's fold of one order as it was: the order-n stream alone,
    root by root, with no cache."""
    fold: Fold = {}
    for root in roots(n):
        for g, cuts in subtree(root, n):
            eps = total_eccentricity(g)
            for key in _classes(g, cuts=cuts):
                record = fold.get(key)
                if record is None:
                    fold[key] = _Extrema(1, eps, [g], eps, [g])
                else:
                    record.add(g, eps)
    return fold


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


def refine_reference(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """canon._refine without its shortcuts: every pass buckets every multi-vertex cell."""
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


def leaf_code(n: int, adj: tuple[int, ...], perm: tuple[int, ...], nbytes: int) -> bytes:
    """canon's leaf code as it was: the relabeled rows, each packed in ``nbytes`` big-endian bytes."""
    pos = [0] * n
    for i, v in enumerate(perm):
        pos[v] = i
    chunks = []
    for v in perm:
        row = 0
        m = adj[v]
        while m:
            low = m & -m
            row |= 1 << pos[low.bit_length() - 1]
            m ^= low
        chunks.append(row.to_bytes(nbytes, "big"))
    return b"".join(chunks)


def relabel_by_positions(g: Graph, perm: tuple[int, ...]) -> Graph:
    """Graph.relabel as it was: vertex ``perm[i]`` renamed to ``i``, with no permutation check."""
    pos = [0] * g.n
    for i, v in enumerate(perm):
        pos[v] = i
    rows = [0] * g.n
    for i, v in enumerate(perm):
        row = 0
        for u in bits(g.adj[v]):
            row |= 1 << pos[u]
        rows[i] = row
    return Graph(g.n, tuple(rows))


def swaps_with_last(child: Graph, vs: int) -> bool:
    """Whether swapping the child's last vertex with each vertex of ``vs``
    maps the child onto itself, checked by relabelling."""
    k = child.n - 1
    for v in bits(vs):
        perm = list(range(child.n))
        perm[v], perm[k] = k, v
        if child.relabel(tuple(perm)) != child:
            return False
    return True


def degree_step_by_vertex(g: Graph, parts: Parts, mask: int) -> int:
    """enumeration._noncut as one loop over every vertex of the parent g.

    Vertex v has degree deg(v) + [v in mask] in the child joined to
    ``mask``, and its cut test reads ``parts[v]``.  Returns 0 if some
    non-cut vertex of the child has a degree above |M|, else the child's
    non-cut vertices of degree |M|, the new vertex g.n among them.
    """
    k = g.n
    dk = mask.bit_count()
    noncut = 1 << k
    for v in range(k):
        dv = g.degree(v) + (mask >> v & 1)
        if dv >= dk and not _is_cut(parts[v], mask):
            if dv > dk:
                return 0
            noncut |= 1 << v
    return noncut


def accept_reference(child: Graph, last: bool, parts: Parts) -> tuple[bool, Gens | None]:
    """enumeration._accept with the degree step read from the built child.

    ``parts`` is ``enumeration._parts`` of the parent, the child less its
    new vertex, which is the child's last.  Returns whether the child is
    accepted, and the generators canon found for it, or None where canon
    did not run: at the last level, when every other vertex of ``cand``
    swaps with the new vertex by an automorphism.
    """
    n = child.n
    k = n - 1
    adj = child.adj
    mask = adj[k]
    deg = [row.bit_count() for row in adj]
    dk = deg[k]
    noncut = 1 << k
    for v in range(k):
        if deg[v] >= dk and not _is_cut(parts[v], mask):
            if deg[v] > dk:
                return False, None
            noncut |= 1 << v
    cand = noncut
    initial = None
    if noncut != 1 << k:
        full = (1 << n) - 1
        initial = refine_reference(adj, [full], [full])
        for cell in reversed(initial):
            cand = cell & noncut
            if cand:
                break
        if not cand >> k & 1:
            return False, None
    if last and swaps_with_last(child, cand ^ 1 << k):
        return True, None
    res = canon(child, initial)
    pos = [0] * n
    for i, v in enumerate(res.labeling):
        pos[v] = i
    deletion = max(bits(cand), key=pos.__getitem__)
    return res.orbits[k] == res.orbits[deletion], res.generators


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


def _mask(vs) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def _dangling_path(g: Graph, hub: int, first: int) -> tuple[int, ...] | None:
    """The dangling path starting hub -> first, or None if it branches/cycles."""
    chain = [first]
    prev, cur = hub, first
    while g.degree(cur) == 2:
        nxt = next(u for u in bits(g.adj[cur]) if u != prev)
        if nxt == hub:
            return None
        prev, cur = cur, nxt
        chain.append(cur)
    if g.degree(cur) != 1:
        return None
    return tuple(chain)


def _cycle_walk(g: Graph, block: frozenset[int], start: int) -> list[int]:
    """Vertices of a cycle block in ring order from start, smaller neighbor first."""
    inside = _mask(block)
    first = min(bits(g.adj[start] & inside))
    order = [start, first]
    prev, cur = start, first
    while True:
        nxt = next(u for u in bits(g.adj[cur] & inside) if u != prev)
        if nxt == start:
            return order
        order.append(nxt)
        prev, cur = cur, nxt


def relocate_sites_by_sets(g: Graph) -> list[RelocateSite]:
    """transforms.relocate_sites as it was, over set-valued components."""
    sites: list[RelocateSite] = []
    if not is_connected(g):
        return sites
    for c in range(g.n):
        comps = _components_without(g, c)
        if len(comps) < 3:
            continue
        for pi, comp in enumerate(comps):
            nbrs_in = sorted(set(bits(g.adj[c])) & comp)
            if len(nbrs_in) != 1:
                continue
            p = _dangling_path(g, c, nbrs_in[0])
            if p is None or set(p) != comp:
                continue
            others = [cc for ci, cc in enumerate(comps) if ci != pi]
            # Unordered bipartitions of the other components into two
            # nonempty groups; pinning others[0] to the side avoids
            # emitting each split twice.
            for extra_count in range(len(others) - 1):
                for extra in combinations(range(1, len(others)), extra_count):
                    side = frozenset(others[0]).union(*(others[i] for i in extra))
                    sites.append(RelocateSite(c, p, side))
    return sites


def _components_without(g: Graph, v: int) -> list[set[int]]:
    """Connected components of g - v, ordered by smallest member."""
    banned = 1 << v
    todo = ((1 << g.n) - 1) & ~banned
    comps = []
    while todo:
        # each search starts at the lowest vertex not yet placed
        seen = _reach(g.adj, (todo & -todo).bit_length() - 1, banned)
        comps.append(set(bits(seen)))
        todo &= ~seen
    return comps


def shrink_girth_to_3_by_edge(g: Graph, site: ShrinkSite) -> Graph:
    """transforms.shrink_girth_to_3 as it was, splitting g on the edge."""
    _require(is_connected(g), "shrink site requires a connected graph")
    u, p = site.attach, site.pendant
    _require(g.has_edge(u, p), "attach vertex and pendant must be adjacent")
    comps = _split_on_edge(g, u, p)
    _require(comps is not None, "edge between host and tadpole must be a bridge")
    host, tad = comps
    _require(len(host) >= 2, "host side must keep at least 2 vertices")
    order = _tadpole_order_by_sets(g, tad, p)
    _require(order is not None, "component is not a path-form tadpole")
    walk, girth_len = order
    _require(girth_len >= 4, "tadpole girth must be at least 4")
    r = len(walk)
    keep = [(a, b) for a, b in g.edges() if not (a in tad and b in tad)]
    new = [(walk[i], walk[i + 1]) for i in range(r - 3)]
    new += [(walk[r - 3], walk[r - 2]), (walk[r - 2], walk[r - 1]), (walk[r - 1], walk[r - 3])]
    return Graph.from_edges(g.n, keep + new)


def _split_on_edge(g: Graph, u: int, p: int) -> tuple[set[int], set[int]] | None:
    """Components (host side of u, tadpole side of p) of g minus edge up."""
    seen = _reach(without_edge(g.adj, u, p), p)
    if seen >> u & 1:
        return None
    tad = set(bits(seen))
    return set(range(g.n)) - tad, tad


def _tadpole_order_by_sets(g: Graph, tad: set[int], p: int) -> tuple[list[int], int] | None:
    """Path-then-cycle vertex order of a tadpole component, or None."""
    inside = _mask(tad)
    deg = {v: (g.adj[v] & inside).bit_count() for v in tad}
    edges_in = sum(deg.values()) // 2
    if edges_in != len(tad) or deg[p] != 1:
        return None
    walk = [p]
    prev, cur = None, p
    while deg[cur] <= 2:
        nbrs = [x for x in bits(g.adj[cur] & inside) if x != prev]
        if len(nbrs) != 1:
            return None
        prev, cur = cur, nbrs[0]
        walk.append(cur)
    if deg[cur] != 3:
        return None
    ring = set(tad) - set(walk[:-1])
    if not all(deg[v] == 2 for v in ring - {cur}):
        return None
    ring_order = _cycle_walk(g, frozenset(ring), cur)
    if len(ring_order) != len(ring):
        return None
    return walk[:-1] + ring_order, len(ring)


def shrink_sites_by_edge(g: Graph) -> list[ShrinkSite]:
    """transforms.shrink_sites as it was: both ends of every edge, one bridge test each."""
    if not is_connected(g):
        return []
    sites = []
    for u, v in g.edges():
        for attach, pend in ((u, v), (v, u)):
            comps = _split_on_edge(g, attach, pend)
            if comps is None or len(comps[0]) < 2:
                continue
            order = _tadpole_order_by_sets(g, comps[1], pend)
            if order is not None and order[1] >= 4:
                sites.append(ShrinkSite(attach, pend))
    return sorted(sites, key=lambda s: (s.attach, s.pendant))
