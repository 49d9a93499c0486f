"""The isomorph-free stream of connected graphs.

The primary stream grows graphs one vertex at a time (orderly / canonical
construction path): a child made by attaching vertex k to a neighbor
subset survives only if k lies in the automorphism orbit of the child's
canonical deletion vertex (the non-cut vertex holding the highest
canonical label), and parents only try one neighbor subset per orbit of
their own automorphism group.  This emits exactly one representative per
isomorphism class without keeping a global seen-set, so the stream is
memory-flat, restartable and deterministic in order.

The stream splits at one level: roots(n) lists its graphs of order
min(n, 6) in stream order, subtree(root, n) yields the order-n graphs
below one root, and connected_graphs(n) chains the subtrees in root
order.  Subtrees processed apart and joined in root order give the
stream exactly.  Roots and subtrees hand out each graph with its number
of cut vertices, found where the graph is accepted (see _grow), so a
consumer that needs the count runs no cut-vertex search.

Most children are decided without the canon search tree (McKay, J.
Algorithms 26, 1998), and most before they are built.  The deletion
vertex and its whole orbit lie in the non-cut part of the last cell of
the child's initial equitable partition that holds a non-cut vertex, and
a child whose new vertex lies outside it is rejected.  That partition is
ordered by ascending degree, so the cell lies in the highest degree
class holding a non-cut vertex: most children are decided from degrees
alone, which the parent's degrees and the neighbor mask M give, and the
child is built and refined only when another non-cut vertex shares the
new vertex's degree |M|; canon then starts from that refinement.  No cut
test searches a child: each parent lists once the components of itself
less each vertex, and a parent vertex is a cut vertex of a child iff M
misses one of its components.  So with |M| >= 2 a non-cut vertex of the
parent stays non-cut in the child, and its degree does not drop: a mask
with 1 < |M| < D, where D is the largest degree of a non-cut parent
vertex, is never tried.  When that part is the new vertex alone the
child is accepted outright, and canon runs only if the child's
automorphism generators are still needed to extend it: a child of the
requested final order is emitted without them.  _accept holds the
argument in full.

The independent oracles (extend everything and dedup by canonical form,
brute force over labeled graphs) live with the tests.  Class predicates
live in extremal.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .canon import _refine, canon
from .graph import Graph, bits, components_without

#: Exhaustive enumeration cap; n = 10 (~11.7M classes) needs the explicit
#: opt-in and realistically also parallel workers.
MAX_EXHAUSTIVE = 9
MAX_OPTIN = 10

_ROOT_LEVEL = 6

_K1 = Graph(1, (0,))

#: Automorphism generators as canon returns them, one image tuple each.
Gens = tuple[tuple[int, ...], ...]
#: A graph of the stream with its generators (None where canon was
#: skipped) and its number of cut vertices.
Root = tuple[Graph, Gens | None, int]
#: For each vertex v of a graph, the components of the graph less v.
Parts = tuple[tuple[int, ...], ...]


def _extend(g: Graph, mask: int) -> Graph:
    """Attach a new vertex adjacent to the ``mask`` subset of g."""
    rows = list(g.adj)
    new = g.n
    for v in range(g.n):
        if mask >> v & 1:
            rows[v] |= 1 << new
    rows.append(mask)
    return Graph._unchecked(g.n + 1, tuple(rows))


def _parts(g: Graph) -> Parts:
    """For each vertex v of g, the vertex masks of the components of g - v."""
    return tuple(components_without(g.adj, v) for v in range(g.n))


def _is_cut(comps: tuple[int, ...], mask: int) -> bool:
    """Whether a parent vertex v is a cut vertex of the child joined to ``mask``.

    ``comps`` are the components of the parent less v; _accept holds the
    argument.
    """
    return not all(comp & mask for comp in comps)


def _subset_orbit_reps(k: int, gens: Gens, low: int) -> Iterator[int]:
    """One nonempty neighbor subset per orbit of the parent's automorphisms.

    Masks M with 1 < |M| < ``low`` are skipped.  Automorphisms keep |M|,
    so whole orbits drop out and the masks left come in the same order.
    """
    if not gens:
        for mask in range(1, 1 << k):
            if not 1 < mask.bit_count() < low:
                yield mask
        return
    # images[i][m] is the image of mask m under gens[i]; the masks with
    # highest bit j are those below 1 << j with j's image added.
    images = []
    for gamma in gens:
        img = [0]
        for j in range(k):
            b = 1 << gamma[j]
            img += [m | b for m in img]
        images.append(img)
    seen = bytearray(1 << k)
    for mask in range(1, 1 << k):
        if seen[mask] or 1 < mask.bit_count() < low:
            continue
        yield mask
        stack = [mask]
        seen[mask] = 1
        while stack:
            m = stack.pop()
            for img in images:
                im = img[m]
                if not seen[im]:
                    seen[im] = 1
                    stack.append(im)


def _accept(
    g: Graph, deg: list[int], parts: Parts, mask: int, last: bool
) -> tuple[Graph | None, Gens | None]:
    """The canonical-deletion test for the child of g joined to ``mask``.

    ``deg`` and ``parts`` are g's degrees and ``_parts(g)``; the child's
    new vertex k = g.n is its last.  Returns the child, or None if it is
    rejected, and the automorphism generators canon found for it, or None
    where canon did not run.  The child is built only once the degree
    step below has passed it.

    The pre-test is sound because canon starts from the partition
    ``_refine(adj, [full], [full])`` and only ever splits cells in place:
    every vertex's canonical position lies inside the position range of
    its initial cell.  So the deletion vertex, the non-cut vertex with the
    highest canonical position, lies in ``cand``, the non-cut vertices of
    the last initial cell that has any.  Automorphisms map each initial
    cell onto itself and cut vertices onto cut vertices, so the deletion
    vertex's whole orbit lies in ``cand`` too: a new vertex outside
    ``cand`` is rejected with no canon call.  When ``cand`` is the new
    vertex alone it is the deletion vertex and the child is accepted; if
    ``last`` (the child has the order the caller asked for, so it is
    never extended) its generators are not needed and canon is skipped.

    Most of ``cand`` is found from degrees alone.  The first splitter of
    that refinement is the whole vertex set, so it first splits by degree
    in ascending order, and every later split happens in place: each
    initial cell has one degree, and degrees never decrease along the
    cells.  The last cell holding a non-cut vertex therefore lies in the
    highest degree class holding one.  The new vertex k is never a cut
    vertex, since its parent is connected, so that class has degree at
    least deg(k) = |M|.  A non-cut vertex of higher degree puts ``cand``
    above k's class, and the child is rejected.  Otherwise, if k is the
    only non-cut vertex of its degree, ``cand`` is k alone; only when it
    is not does the refinement run, to find the last cell of that class
    with a non-cut vertex, and canon starts from that same refinement.
    A parent vertex v has degree deg[v] in the child, plus one if v is in
    M, so this whole step reads the parent.

    No cut test searches the child.  The child less a parent vertex v is
    g - v plus k, and k is joined to the components of g - v that meet M.
    So v is a cut vertex of the child iff some component of g - v misses
    M; when every one meets M, M holds more than v and k is joined too.
    With M == {v} every component misses M and k is cut off, except below
    the parent K1: K1 - v has no component, and the child K2 has no cut
    vertex.

    This bounds |M| before any test (``_grow`` passes the bound to
    ``_subset_orbit_reps``).  Let v be a non-cut vertex of g, so g - v has
    at most one component.  If |M| >= 2, M meets g - v, so v is not cut
    in the child either, and its degree there is at least deg[v].  A mask
    with 1 < |M| < deg[v] is therefore always rejected.  If |M| == 1, the
    one vertex u in M becomes a cut vertex of the child (k hangs from it)
    unless g is K1, so the bound does not hold for u, and size-1 masks all
    reach the degree step.
    """
    k = g.n
    dk = mask.bit_count()
    noncut = 1 << k
    for v in range(k):
        dv = deg[v] + (mask >> v & 1)
        if dv >= dk and not _is_cut(parts[v], mask):
            if dv > dk:
                return None, None
            noncut |= 1 << v
    child = _extend(g, mask)
    cand = noncut
    initial = None
    if noncut != 1 << k:
        full = (1 << k + 1) - 1
        initial = _refine(child.adj, [full], [full])
        for cell in reversed(initial):
            cand = cell & noncut
            if cand:
                break
        if not cand >> k & 1:
            return None, None
    if last and cand == 1 << k:
        return child, None
    res = canon(child, initial)
    deletion = max(bits(cand), key=res.labeling.index)
    return (child if res.orbits[k] == res.orbits[deletion] else None), res.generators


def _grow(g: Graph, gens: Gens | None, cuts: int, level: int, n: int) -> Iterator[Root]:
    """The stream's graphs of order ``level`` below ``g``, with their generators.

    ``cuts`` is g's number of cut vertices.  ``n`` is the final order the
    caller asked for, which may exceed ``level``: graphs of order n come
    with None generators where _accept skipped canon, and no other graph
    does.
    """
    if g.n == level:
        yield g, gens, cuts
        return
    parts = _parts(g)
    deg = [row.bit_count() for row in g.adj]
    # the largest degree of a non-cut vertex bounds |M| (see _accept)
    low = max(d for d, comps in zip(deg, parts) if len(comps) <= 1)
    last = g.n + 1 == n
    for mask in _subset_orbit_reps(g.n, gens, low):
        child, child_gens = _accept(g, deg, parts, mask, last)
        if child is not None:
            # the new vertex is never a cut vertex of the child (see _accept)
            child_cuts = sum(_is_cut(comps, mask) for comps in parts)
            yield from _grow(child, child_gens, child_cuts, level, n)


def check_order(n: int, allow_large: bool = False) -> None:
    """Raise ValueError unless the stream supports order n."""
    cap = MAX_OPTIN if allow_large else MAX_EXHAUSTIVE
    if not 1 <= n <= cap:
        raise ValueError(f"exhaustive enumeration supports 1 <= n <= {cap}")


def roots(n: int, allow_large: bool = False) -> list[Root]:
    """The stream's graphs of order min(n, 6) with their generators, in stream order."""
    check_order(n, allow_large)
    # Pass n, not the root level, as the final order: roots below n are
    # extended further and need their generators.
    return list(_grow(_K1, (), 0, min(n, _ROOT_LEVEL), n))


def subtree(root: Root, n: int) -> Iterator[tuple[Graph, int]]:
    """The order-n graphs of the stream below one of roots(n), in stream order.

    Each comes with its number of cut vertices.
    """
    g, gens, cuts = root
    # A root below order n must carry the generators roots(n) gives it.
    if g.n != min(n, _ROOT_LEVEL) or gens is None and g.n < n:
        raise ValueError(f"not one of roots({n})")
    return ((child, c) for child, _, c in _grow(g, gens, cuts, n, n))


def connected_graphs(n: int, *, allow_large: bool = False) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class: roots(n)'s subtrees in order."""
    for root in roots(n, allow_large):
        for g, _ in subtree(root, n):
            yield g


@lru_cache(maxsize=None)
def connected_graph_list(n: int) -> tuple[Graph, ...]:
    """Cached full list of class representatives, for callers that reuse it.

    It holds every class of order n at once; the extremal search folds
    the stream instead and never fills this cache.
    """
    return tuple(connected_graphs(n))
