"""Exact canonical labeling by partition refinement and backtracking.

canonical_form(g) returns equal bytes for two graphs iff they are
isomorphic.  The search individualizes vertices of a refined ordered
partition, keeps the lexicographically largest relabeled adjacency code
over all explored leaves, and records every automorphism discovered when
two leaves tie.  Siblings lying in one orbit of the already-discovered,
path-fixing automorphisms are pruned, which keeps vertex-transitive
graphs (cycles, complete graphs) at polynomially many leaves.

one_orbit is a cheaper test for a caller that needs only to know that a
set of vertices shares one orbit: it dives to a few leaves and compares
them, and a false answer proves nothing.

Exactness is required downstream (witness counting), so this is a full
canonicalizer, not a hash.  Performance is tuned for n <= 9 enumeration;
the hard cap is n <= 64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .graph import Graph, _relabel_rows, bits

MAX_CANON_VERTICES = 64


@dataclass(frozen=True)
class CanonResult:
    """Canonical form plus the labeling, orbits and generators behind it.

    labeling[i] is the original vertex placed at canonical position i.
    orbits[v] is the smallest vertex in v's automorphism orbit.
    """

    form: bytes
    labeling: tuple[int, ...]
    orbits: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def absorb(self, gamma: Sequence[int]) -> None:
        """Union every vertex that the permutation ``gamma`` moves with its image."""
        for v, w in enumerate(gamma):
            if v != w:
                self.union(v, w)


def _refine(
    adj: tuple[int, ...],
    cells: list[int],
    splitters: list[int],
    stop: Callable[[list[int]], bool] | None = None,
) -> list[int]:
    """Equitable refinement of an ordered partition (1-dim WL).

    Splits every multi-vertex cell by neighbor counts into the splitter
    masks (nonempty vertex sets), new sub-cells ordered by ascending
    count and queued as splitters in turn.  The procedure is
    label-equivariant, which is all canonicity requires.

    Two shortcuts leave the output as it would be without them.  A
    discrete partition cannot split, so refinement stops once every cell
    is a singleton.  A singleton splitter {w} counts 0 or 1 into each
    vertex, so it splits a cell into its non-neighbors and neighbors of
    w, in that order, with no loop over the cell's vertices.

    With ``stop``, ``stop(cells)`` is asked after every pass that splits
    a cell.  If it returns true the refinement ends there and the
    partition so far is returned.
    """
    n = len(adj)
    queue = list(splitters)
    qi = 0
    while qi < len(queue) and len(cells) < n:
        splitter = queue[qi]
        qi += 1
        out: list[int] = []
        if splitter & (splitter - 1) == 0:
            near = adj[splitter.bit_length() - 1]
            for cell in cells:
                hit = cell & near
                if hit and hit != cell:
                    out += (cell ^ hit, hit)
                    queue += (cell ^ hit, hit)
                else:
                    out.append(cell)
        else:
            for cell in cells:
                if cell.bit_count() == 1:
                    out.append(cell)
                    continue
                buckets: dict[int, int] = {}
                m = cell
                while m:
                    low = m & -m
                    key = (adj[low.bit_length() - 1] & splitter).bit_count()
                    buckets[key] = buckets.get(key, 0) | low
                    m ^= low
                if len(buckets) == 1:
                    out.append(cell)
                else:
                    parts = [buckets[k] for k in sorted(buckets)]
                    out.extend(parts)
                    queue.extend(parts)
        if stop is not None and len(out) > len(cells) and stop(out):
            return out
        cells = out
    return cells


def _target(cells: list[int], n: int) -> int:
    """The index of the cell to individualise in next, or -1 if ``cells`` is discrete.

    That is the smallest cell with more than one vertex, the earliest on ties.
    """
    target_idx = -1
    target_size = n + 1
    for i, cell in enumerate(cells):
        c = cell.bit_count()
        if 1 < c < target_size:
            target_idx = i
            target_size = c
    return target_idx


def _dive(adj: tuple[int, ...], cells: list[int], i: int, v: int) -> list[int]:
    """The labeling of one leaf below the equitable ``cells``.

    v, a vertex of cell i, is individualised first, then the least vertex
    of each target cell, as canon picks it, until the partition is discrete.
    """
    n = len(adj)
    while True:
        vbit = 1 << v
        cells = _refine(adj, cells[:i] + [vbit, cells[i] ^ vbit] + cells[i + 1 :], [vbit])
        i = _target(cells, n)
        if i < 0:
            break
        v = (cells[i] & -cells[i]).bit_length() - 1
    return [cell.bit_length() - 1 for cell in cells]


def one_orbit(adj: tuple[int, ...], cells: list[int], k: int, cand: int) -> bool:
    """A sufficient test that every vertex of ``cand`` is in k's automorphism orbit.

    ``cells`` is an equitable partition from _refine run to the end, and
    ``cand`` lies inside the cell holding k.  The test dives once below k
    (see _dive) and once below each vertex v of ``cand`` not yet joined to
    k, and maps each vertex of k's leaf to the vertex at its position in
    v's leaf.  If that map takes every edge to an edge, it is an
    automorphism (the two leaves relabel the graph alike).  Cells split
    only in place, so k and v sit at one position and the automorphism
    maps k to v.  True is a proof; false proves nothing, as the least
    vertices picked below k and below v need not correspond.
    """
    n = len(adj)
    i = next(j for j, cell in enumerate(cells) if cell >> k & 1)
    leaf = _dive(adj, cells, i, k)
    uf = _UnionFind(n)
    for v in bits(cand):
        if uf.find(v) == uf.find(k):
            continue
        gamma = [0] * n
        for a, b in zip(leaf, _dive(adj, cells, i, v)):
            gamma[a] = b
        for a in range(n):
            # each edge once, from its lower end
            m = adj[a] >> a + 1 << a + 1
            image = adj[gamma[a]]
            while m:
                low = m & -m
                if not image >> gamma[low.bit_length() - 1] & 1:
                    return False
                m ^= low
        uf.absorb(gamma)
    return True


def canon(g: Graph, initial: list[int] | None = None) -> CanonResult:
    """Run the full canonical search on ``g``.

    ``initial``, if given, is ``_refine(g.adj, [full], [full])`` with full
    the mask of all of g's vertices, already computed by the caller.
    """
    n = g.n
    if n > MAX_CANON_VERTICES:
        raise ValueError(f"canonical labeling supports n <= {MAX_CANON_VERTICES}, got {n}")
    adj = g.adj
    full = (1 << n) - 1
    # The greatest leaf so far: its relabeled rows and the labeling behind them.
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    gens: list[tuple[int, ...]] = []
    uf = _UnionFind(n)

    def search(cells: list[int], path: list[int]) -> None:
        nonlocal best
        # Leaf: partition discrete.
        if len(cells) == n:
            perm = tuple(cell.bit_length() - 1 for cell in cells)
            rows = _relabel_rows(adj, perm)
            if best is None or rows > best[0]:
                best = rows, perm
            elif rows == best[0]:
                # Not the identity: the paths first pick different vertices of
                # one cell, and cells split only in place, so both sit at one position.
                gamma = [0] * n
                for bp, p in zip(best[1], perm):
                    gamma[bp] = p
                gens.append(tuple(gamma))
                uf.absorb(gamma)
            return

        target_idx = _target(cells, n)
        target = cells[target_idx]

        tried: list[int] = []
        # Orbits under discovered automorphisms fixing the current path
        # pointwise; a sibling equivalent to a tried one leads to a mirrored
        # subtree and can be skipped.  The node's one union-find is made at
        # the first such generator and takes in each generator once, as the
        # subtrees of earlier siblings append them.
        puf: _UnionFind | None = None
        merged = 0
        for v in bits(target):
            if tried:
                for gamma in gens[merged:]:
                    if all(gamma[x] == x for x in path):
                        if puf is None:
                            puf = _UnionFind(n)
                        puf.absorb(gamma)
                merged = len(gens)
                if puf is not None and any(puf.find(v) == puf.find(u) for u in tried):
                    continue
            tried.append(v)
            vbit = 1 << v
            child = cells[:target_idx] + [vbit, target ^ vbit] + cells[target_idx + 1 :]
            # {v} is the only splitter.  ``cells`` came out of _refine, so
            # it is equitable: every cell counts constantly into target,
            # and after the {v} pass into target - v as well, so the
            # splitter target - v would split nothing.
            refined = _refine(adj, child, [vbit])
            path.append(v)
            search(refined, path)
            path.pop()

    if initial is None:
        initial = _refine(adj, [full], [full])
    search(initial, [])
    if best is None:
        raise RuntimeError("canon: the search reached no leaf")

    # Each row packed in fixed width, so bytes order is the rows' tuple order.
    nbytes = (n + 7) // 8
    form = n.to_bytes(2, "big") + b"".join(row.to_bytes(nbytes, "big") for row in best[0])
    orbit = tuple(uf.find(v) for v in range(n))
    return CanonResult(form, best[1], orbit, tuple(gens))


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: equal iff isomorphic."""
    return canon(g).form


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of ``g``."""
    return g.relabel(canon(g).labeling)


def automorphism_orbits(g: Graph) -> tuple[int, ...]:
    """Orbit representative (smallest member) per vertex under Aut(g)."""
    return canon(g).orbits
