"""Graph rewrites with inequality contracts on the total eccentricity.

Each operation takes an explicit, strictly validated site; an invalid
site raises InvalidSiteError rather than degrading to a no-op.  Rewrites
return new graphs (inputs are never mutated) and preserve vertex count
and connectivity.  Companion ``*_sites`` helpers enumerate every valid
site of a graph deterministically (sorted by anchor ids) for harness use.
Every rewrite and every lister raises DisconnectedGraphError on a
disconnected graph, as the connectivity-bound invariants of ``graph`` do.
Every path and cycle is read by one walker, ``_walk``, and every output
graph is built by one rewiring step, ``_rewire``.

Contracts (checked by the randomized property suite):
  add_edge            eps never increases (per vertex, hence in total)
  graft_edge          eps strictly increases
  relocate_path       eps strictly increases
  block_to_cycle      eps does not decrease
  merge_cycles        eps does not decrease
  balance_paths       eps does not increase
  shrink_girth_to_3   eps strictly increases
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .graph import Graph, bits, blocks, components_without, cycle_edges, path_edges
from .graph import _require_connected


class InvalidSiteError(ValueError):
    """The site does not match the rewrite's structural precondition."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidSiteError(msg)


def _require_vertices(g: Graph, vs: Iterable[int]) -> None:
    _require(all(0 <= v < g.n for v in vs), f"site names a vertex outside 0..{g.n - 1}")


def _rewire(g: Graph, drop: Iterable[tuple[int, int]], add: Iterable[tuple[int, int]]) -> Graph:
    """g with the ``drop`` edges removed and then the ``add`` edges joined."""
    rows = list(g.adj)
    for u, v in drop:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    for u, v in add:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(g.n, tuple(rows))


def _walk(adj: tuple[int, ...], inside: int, prev: int, cur: int) -> list[int]:
    """Vertices from cur, away from its neighbour prev, through degree-2 vertices of ``inside``.

    Degrees count neighbours in the mask ``inside``.  The walk ends at the
    first vertex whose degree is not 2, or just before it would come back
    to its first ``prev``.
    """
    first, chain = prev, [cur]
    while (adj[cur] & inside).bit_count() == 2:
        # prev is a neighbour of cur, so the other neighbour is what is left.
        prev, cur = cur, ((adj[cur] & inside) ^ 1 << prev).bit_length() - 1
        if cur == first:
            break
        chain.append(cur)
    return chain


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Join two non-adjacent vertices; total eccentricity can only drop."""
    _require_connected(g)
    _require_vertices(g, (u, v))
    _require(u != v, "cannot add a self-loop")
    _require(not g.has_edge(u, v), f"vertices {u} and {v} are already adjacent")
    return _rewire(g, (), ((u, v),))


def add_edge_sites(g: Graph) -> list[tuple[int, int]]:
    """All non-adjacent pairs (u, v) with u < v, sorted."""
    _require_connected(g)
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]


def _dangling_path(g: Graph, hub: int, first: int) -> tuple[int, ...] | None:
    """The dangling path starting hub -> first, or None if it branches/cycles."""
    chain = _walk(g.adj, (1 << g.n) - 1, hub, first)
    return tuple(chain) if g.degree(chain[-1]) == 1 else None


@dataclass(frozen=True)
class GraftSite:
    """Hub with two dangling paths, listed hub-outward, shorter first."""

    hub: int
    short_path: tuple[int, ...]
    long_path: tuple[int, ...]


def graft_edge(g: Graph, site: GraftSite) -> Graph:
    """Move the shorter path's end vertex to extend the longer path.

    With path lengths 1 <= k <= l this removes the last edge of the short
    path and re-attaches its end to the long path's end, producing the
    (k-1, l+1) configuration; the total eccentricity strictly increases.
    """
    _require_connected(g)
    h, short, long_ = site.hub, site.short_path, site.long_path
    _require_vertices(g, (h, *short, *long_))
    k, l = len(short), len(long_)
    _require(k >= 1, "short path must have length >= 1")
    _require(k <= l, "short path must not be longer than the long path")
    verts = {h, *short, *long_}
    _require(len(verts) == 1 + k + l, "site paths overlap")
    _require(
        g.has_edge(h, short[0]) and _dangling_path(g, h, short[0]) == short,
        "short path is not a dangling path at the hub",
    )
    _require(
        g.has_edge(h, long_[0]) and _dangling_path(g, h, long_[0]) == long_,
        "long path is not a dangling path at the hub",
    )
    _require(g.n - k - l >= 2, "base graph must keep at least 2 vertices")
    tail = short[-1]
    before = short[-2] if k >= 2 else h
    return _rewire(g, ((before, tail),), ((long_[-1], tail),))


def graft_sites(g: Graph) -> list[GraftSite]:
    """All valid graft sites, sorted by (hub, path anchors)."""
    _require_connected(g)
    sites = []
    for h in range(g.n):
        paths = []
        for a in sorted(bits(g.adj[h])):
            p = _dangling_path(g, h, a)
            if p is not None:
                paths.append(p)
        for p, q in combinations(paths, 2):
            if (len(p), p) > (len(q), q):
                p, q = q, p
            if g.n - len(p) - len(q) >= 2:
                sites.append(GraftSite(h, p, q))
    return sites


@dataclass(frozen=True)
class RelocateSite:
    """Decomposition of g into H1, H2 and a dangling path glued at one vertex.

    ``path`` lists the pendant path from the center outward (the lemma's
    v_2..v_d); ``side`` holds the H1 vertices other than the center.
    """

    center: int
    path: tuple[int, ...]
    side: frozenset[int]


def relocate_path(g: Graph, site: RelocateSite) -> Graph:
    """Re-glue the path between H1 and H2 so the three parts run in series.

    The total eccentricity strictly increases, and no vertex of H1 or H2
    loses eccentricity.  Relocated path vertices CAN lose eccentricity
    (their far side may flip), so only the aggregate is contracted.
    """
    _require_connected(g)
    c, p, side = site.center, site.path, site.side
    _require_vertices(g, (c, *p, *side))
    _require(len(p) >= 1, "path must contribute at least one vertex")
    _require(
        g.has_edge(c, p[0]) and _dangling_path(g, c, p[0]) == p,
        "path is not a dangling path at the center",
    )
    # The components of g - c but the path's: disjoint masks, so a sum is a union.
    others = [comp for comp in components_without(g.adj, c) if not comp >> p[0] & 1]
    side_mask = _mask(side)
    chosen = [comp for comp in others if comp & side_mask]
    _require(
        0 < len(chosen) < len(others) and sum(chosen) == side_mask,
        "side must be some, but not all, of the other components at the center",
    )
    moved = list(bits(g.adj[c] & (sum(others) ^ side_mask)))
    return _rewire(g, [(c, h) for h in moved], [(p[-1], h) for h in moved])


def _mask(vs) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def relocate_sites(g: Graph) -> list[RelocateSite]:
    """All valid relocations, sorted by (center, path, side)."""
    _require_connected(g)
    sites: list[RelocateSite] = []
    for c in range(g.n):
        comps = components_without(g.adj, c)
        if len(comps) < 3:
            continue
        for pi, comp in enumerate(comps):
            meet = g.adj[c] & comp
            if meet & (meet - 1):
                continue
            p = _dangling_path(g, c, meet.bit_length() - 1)
            if p is None or _mask(p) != comp:
                continue
            # Built from sets: the order a side iterates in, which
            # --list-sites prints, depends on how its frozenset was built.
            others = [set(bits(cc)) for ci, cc in enumerate(comps) if ci != pi]
            # Unordered bipartitions of the other components into two
            # nonempty groups; pinning others[0] to the side avoids
            # emitting each split twice.
            for extra_count in range(len(others) - 1):
                for extra in combinations(range(1, len(others)), extra_count):
                    side = frozenset(others[0]).union(*(others[i] for i in extra))
                    sites.append(RelocateSite(c, p, side))
    return sites


def block_to_cycle(g: Graph, block_index: int) -> Graph:
    """Replace one block by a cycle on the same vertices.

    The block must have r >= 3 vertices and contain at most one of g's cut
    vertices; that cut vertex (the block's attachment) is preserved, so
    the rest of the graph is untouched.  Total eccentricity cannot drop.
    """
    decomp = blocks(g)
    _require(0 <= block_index < len(decomp.blocks), f"block index {block_index} out of range")
    block = decomp.blocks[block_index]
    _require(len(block) >= 3, "block must have at least 3 vertices")
    cuts_in = sorted(block & decomp.cut_vertices)
    _require(len(cuts_in) <= 1, "block touches more than one cut vertex")
    ring = cuts_in + sorted(block.difference(cuts_in))
    inner = [(u, v) for u, v in g.edges() if u in block and v in block]
    return _rewire(g, inner, cycle_edges(ring))


def block_cycle_sites(g: Graph) -> list[int]:
    """Indices of blocks eligible for block_to_cycle."""
    decomp = blocks(g)
    return [
        i
        for i, b in enumerate(decomp.blocks)
        if len(b) >= 3 and len(b & decomp.cut_vertices) <= 1
    ]


@dataclass(frozen=True)
class MergeCyclesSite:
    """Two cycle blocks meeting at one shared vertex."""

    shared: int
    cycle_a: frozenset[int]
    cycle_b: frozenset[int]


def _cycle_walk(g: Graph, inside: int, start: int) -> list[int]:
    """Vertices of the cycle with mask ``inside`` in ring order from start, smaller neighbor first."""
    nbrs = g.adj[start] & inside
    return [start, *_walk(g.adj, inside, start, (nbrs & -nbrs).bit_length() - 1)]


def _is_cycle_block(g: Graph, block: frozenset[int]) -> bool:
    inside = _mask(block)
    return len(block) >= 3 and all((g.adj[v] & inside).bit_count() == 2 for v in block)


def merge_cycles(g: Graph, site: MergeCyclesSite) -> Graph:
    """Fuse two cycles sharing a vertex into one longer cycle through it.

    C_{m1} and C_{m2} at w become C_{m1+m2-1}; the vertex set is unchanged
    and the total eccentricity cannot drop (the rest of the graph needs at
    least one vertex besides w).
    """
    decomp = blocks(g)
    w, ca, cb = site.shared, site.cycle_a, site.cycle_b
    _require_vertices(g, (w, *ca, *cb))
    _require(ca in decomp.blocks and cb in decomp.blocks, "anchors are not blocks of the graph")
    _require(ca != cb, "the two cycles must be distinct blocks")
    _require(w in ca and w in cb, "shared vertex must lie in both cycles")
    _require(_is_cycle_block(g, ca) and _is_cycle_block(g, cb), "blocks are not cycles")
    rest = g.n - (len(ca) - 1) - (len(cb) - 1)
    _require(rest >= 2, "remainder graph must keep at least 2 vertices")
    a = _cycle_walk(g, _mask(ca), w)[-1]
    b = _cycle_walk(g, _mask(cb), w)[-1]
    return _rewire(g, ((a, w), (b, w)), ((a, b),))


def merge_sites(g: Graph) -> list[MergeCyclesSite]:
    """All pairs of cycle blocks meeting at a vertex, sorted by anchors."""
    decomp = blocks(g)
    sites = []
    for i, j in combinations(range(len(decomp.blocks)), 2):
        bi, bj = decomp.blocks[i], decomp.blocks[j]
        shared = bi & bj
        if len(shared) != 1:
            continue
        if not (_is_cycle_block(g, bi) and _is_cycle_block(g, bj)):
            continue
        if g.n - (len(bi) - 1) - (len(bj) - 1) >= 2:
            sites.append(MergeCyclesSite(min(shared), bi, bj))
    return sites


@dataclass(frozen=True)
class BalanceSite:
    """Clique of a clique-with-paths graph plus donor/receiver path indices."""

    clique: tuple[int, ...]
    donor: int
    receiver: int


def _kmn_profile(g: Graph, clique: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Decompose g as clique-with-paths; returns per-root outward paths.

    Raises InvalidSiteError when g is not of that form for this clique.
    """
    m = len(clique)
    _require(m >= 2 and len(set(clique)) == m, "clique must list distinct vertices")
    for u, v in combinations(clique, 2):
        _require(g.has_edge(u, v), "clique vertices must be pairwise adjacent")
    cmask = _mask(clique)
    paths = []
    covered = set(clique)
    for v in clique:
        out = g.adj[v] & ~cmask
        _require(out.bit_count() <= 1, "clique vertex roots more than one path")
        if out == 0:
            paths.append((v,))
            continue
        p = _dangling_path(g, v, out.bit_length() - 1)
        _require(p is not None, "attachment at a clique vertex is not a dangling path")
        paths.append((v, *p))
        covered.update(p)
    _require(len(covered) == g.n, "graph has vertices outside the clique-with-paths form")
    return paths


def balance_paths(g: Graph, site: BalanceSite) -> Graph:
    """Move one vertex from the longest path to a path shorter by >= 2.

    Applies only to clique-with-paths graphs; the donor must carry a
    maximum-length path.  Total eccentricity does not increase (and is
    unchanged when the clique is a single edge, where both sides are
    paths).
    """
    _require_connected(g)
    _require_vertices(g, site.clique)
    paths = _kmn_profile(g, site.clique)
    m = len(paths)
    _require(0 <= site.donor < m and 0 <= site.receiver < m, "path index out of range")
    _require(site.donor != site.receiver, "donor and receiver must differ")
    lengths = [len(p) for p in paths]
    _require(lengths[site.donor] == max(lengths), "donor must carry a maximum-length path")
    _require(
        lengths[site.receiver] <= lengths[site.donor] - 2,
        "receiver path must be shorter by at least 2",
    )
    before, tail = paths[site.donor][-2:]
    return _rewire(g, ((before, tail),), ((paths[site.receiver][-1], tail),))


def balance_sites(g: Graph) -> list[BalanceSite]:
    """All valid balance sites over recognizable cliques, sorted by anchors."""
    decomp = blocks(g)
    candidates: list[tuple[int, ...]] = []
    big = [b for b in decomp.blocks if len(b) >= 3]
    if len(big) == 1:
        b = big[0]
        if all(g.has_edge(u, v) for u, v in combinations(sorted(b), 2)):
            candidates.append(tuple(sorted(b)))
    elif not big:
        candidates.extend((u, v) for u, v in g.edges())
    sites = []
    for clique in candidates:
        try:
            paths = _kmn_profile(g, clique)
        except InvalidSiteError:
            continue
        lengths = [len(p) for p in paths]
        top = max(lengths)
        for k, lk in enumerate(lengths):
            if lk != top:
                continue
            for j, lj in enumerate(lengths):
                if j != k and lj <= top - 2:
                    sites.append(BalanceSite(clique, k, j))
    return sites


@dataclass(frozen=True)
class ShrinkSite:
    """Edge from a host vertex to the pendant of an attached tadpole."""

    attach: int
    pendant: int


def shrink_girth_to_3(g: Graph, site: ShrinkSite) -> Graph:
    """Shrink an attached tadpole's cycle from g >= 4 down to a triangle.

    The tadpole's vertices are renumbered along its path-then-cycle walk
    and rebuilt as a maximal path ending in a triangle, exactly mirroring
    the comparison that proves the strict increase in total eccentricity.
    """
    _require_connected(g)
    u, p = site.attach, site.pendant
    _require_vertices(g, (u, p))
    _require(g.has_edge(u, p), "attach vertex and pendant must be adjacent")
    tad = next(comp for comp in components_without(g.adj, u) if comp >> p & 1)
    _require(g.adj[u] & tad == 1 << p, "edge between host and tadpole must be a bridge")
    _require(g.n - tad.bit_count() >= 2, "host side must keep at least 2 vertices")
    order = _tadpole_order(g, tad, p)
    _require(order is not None, "component is not a path-form tadpole")
    walk, girth_len = order
    _require(girth_len >= 4, "tadpole girth must be at least 4")
    inner = [(a, b) for a, b in g.edges() if tad >> a & 1 and tad >> b & 1]
    return _rewire(g, inner, path_edges(walk[:-2]) + cycle_edges(walk[-3:]))


def _tadpole_order(g: Graph, tad: int, p: int) -> tuple[list[int], int] | None:
    """Path-then-cycle vertex order of the tadpole component with mask ``tad``, or None."""
    deg = [(row & tad).bit_count() for row in g.adj]
    if sum(deg[v] for v in bits(tad)) != 2 * tad.bit_count() or deg[p] != 1:
        return None
    path = [p, *_walk(g.adj, tad, p, (g.adj[p] & tad).bit_length() - 1)]
    cur = path.pop()
    if deg[cur] != 3:
        return None
    ring = tad & ~_mask(path)
    if not all(deg[v] == 2 for v in bits(ring ^ 1 << cur)):
        return None
    # tad is connected with as many edges as vertices, so the ring is one cycle
    ring_order = _cycle_walk(g, ring, cur)
    return path + ring_order, len(ring_order)


def shrink_sites(g: Graph) -> list[ShrinkSite]:
    """All valid tadpole-shrinking sites, sorted by (attach, pendant)."""
    _require_connected(g)
    sites = []
    # The tadpole is a component of g - attach that attach meets in one
    # neighbour, the pendant: the edge between them is then a bridge.
    for attach in range(g.n):
        for tad in components_without(g.adj, attach):
            meet = g.adj[attach] & tad
            if meet & (meet - 1) or g.n - tad.bit_count() < 2:
                continue
            pend = meet.bit_length() - 1
            order = _tadpole_order(g, tad, pend)
            if order is not None and order[1] >= 4:
                sites.append(ShrinkSite(attach, pend))
    return sorted(sites, key=lambda s: (s.attach, s.pendant))
