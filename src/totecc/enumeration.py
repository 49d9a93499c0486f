"""The isomorph-free stream of connected graphs.

The primary stream grows graphs one vertex at a time (orderly / canonical
construction path): a child made by attaching vertex k to a neighbor
subset survives only if k lies in the automorphism orbit of the child's
canonical deletion vertex (the non-cut vertex holding the highest
canonical label), and parents only try one neighbor subset per orbit of
their own automorphism group.  This emits exactly one representative per
isomorphism class without keeping a global seen-set, so the stream is
memory-flat, restartable and deterministic in order.

One walk of the growth tree from K1 drives the stream:
connected_graphs(n) is the order-n graphs of the walk to n.  The graphs
of every order below n are inner nodes of that tree, so walk(lo, hi)
hands out every graph of order lo..hi from one walk to hi, those of each
order m being connected_graphs(m) in order: a range of orders is grown
once, not once per order.  For parallel workers the walk splits at one
level: roots(n) lists its graphs of order min(n, 6) in stream order and
subtree(root, n) yields the order-n graphs below one root, so subtrees
processed apart and joined in root order give the stream exactly.  All
of them hand out each graph with its number of cut vertices, found where
the graph is accepted (see _walk), so a consumer that needs the count
runs no cut-vertex search.  check_order holds the one cap on n.

Most children are decided without the canon search tree (McKay, J.
Algorithms 26, 1998), and most before they are built.  The deletion
vertex and its whole orbit lie in the non-cut part of the last cell of
the child's initial equitable partition that holds a non-cut vertex, and
a child whose new vertex lies outside it is rejected.  That partition is
ordered by ascending degree, so the cell lies in the highest degree
class holding a non-cut vertex: most children are decided from degrees
alone, which the parent's degrees and the neighbor mask M give, and the
child is built and refined only when another non-cut vertex shares the
new vertex's degree |M|, and the refinement stops at the first pass
after which its partial cells settle the outcome; canon then starts
from that refinement, finished.  No cut
test searches a child: each parent lists once the components of itself
less each vertex, and a parent vertex is a cut vertex of a child iff M
misses one of its components.  So with |M| >= 2 a non-cut vertex of the
parent stays non-cut in the child, and its degree does not drop: a mask
with 1 < |M| < D, where D is the largest degree of a non-cut parent
vertex, is never tried.  When that part is the new vertex alone the
child is accepted outright, and canon runs only if the child's
automorphism generators are still needed to extend it: a child of the
requested final order is emitted without them.  Such a child is also
accepted without canon when every other vertex of that part is a twin of
the new vertex (the two have the same neighbors apart from each other),
since swapping twins is an automorphism; the twin test runs first on
the non-cut vertices of the new vertex's degree, before any refinement.
_accept holds the argument in full.

The independent oracles (extend everything and dedup by canonical form,
brute force over labeled graphs) live with the tests.  Class predicates
live in extremal.
"""

from __future__ import annotations

from typing import Iterator

from .canon import _refine, canon
from .graph import Graph, bits, components_without

#: The stream's cap on n, applied by check_order alone; n = 10 (~11.7M
#: classes, about 7 minutes in one process) needs the explicit opt-in.
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


def _twins(g: Graph, mask: int, vs: int) -> bool:
    """Whether every parent vertex in ``vs`` is a twin of the new vertex.

    v is a twin of the new vertex k of the child joined to ``mask`` iff
    their neighborhoods agree apart from each other: g.adj[v] == M - v.
    The transposition (v k) is then an automorphism of the child.
    """
    return all(g.adj[v] == mask & ~(1 << v) for v in bits(vs))


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
    cell onto itself and cut vertices onto cut vertices, so ``cand`` is a
    union of orbits and the deletion vertex's whole orbit lies in it: a
    new vertex outside ``cand`` is rejected with no canon call.  When
    ``cand`` is the new vertex alone it is the deletion vertex and the
    child is accepted; if ``last`` (the child has the order the caller
    asked for, so it is never extended) its generators are not needed
    and canon is skipped.

    With ``last``, canon is also skipped when every other vertex of
    ``cand`` is a twin of k (see _twins): the swap of such a vertex v and
    k fixes every other vertex and maps N(v) - k onto N(k) - v, so it is
    an automorphism and v is in k's orbit.  The deletion vertex lies in
    ``cand``, hence in k's orbit, and the child is accepted.  The test
    runs once before the refinement, on ``noncut`` (the non-cut vertices
    of degree |M|, k among them): if all of them but k are twins of k
    they form one orbit, so one initial cell, and ``cand == noncut``.
    Below the final order canon still runs on every accepted child,
    because its generators choose the child's own masks.

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

    The refinement often settles the outcome before it ends.  It splits
    cells only in place, so after any pass the final ``cand`` lies in the
    non-cut part of the last cell so far that has a non-cut vertex, and
    is not empty.  The refinement stops after the first pass that splits
    a cell and leaves that part without k (reject), equal to {k} (then
    ``cand`` is {k}), or, with ``last``, with every other vertex a twin
    of k (accept; the twins share k's orbit, so ``cand`` is that part).
    If no pass settles it, the refinement runs to the end, and its
    ``cand`` holds k and some vertex that canon must place.  A child
    stopped at {k} below the final order still needs its generators, so
    the refinement is resumed from the cells and splitters it stopped
    with (see _refine), and canon starts from the same partition as after
    one uninterrupted refinement.

    No cut test searches the child.  The child less a parent vertex v is
    g - v plus k, and k is joined to the components of g - v that meet M.
    So v is a cut vertex of the child iff some component of g - v misses
    M; when every one meets M, M holds more than v and k is joined too.
    With M == {v} every component misses M and k is cut off, except below
    the parent K1: K1 - v has no component, and the child K2 has no cut
    vertex.

    This bounds |M| before any test (``_walk`` passes the bound to
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
    if last and _twins(g, mask, noncut ^ 1 << k):
        return child, None
    cand = noncut
    initial = None
    if noncut != 1 << k:

        def settled(cells: list[int]) -> bool:
            nonlocal cand
            for cell in reversed(cells):
                cand = cell & noncut
                if cand:
                    break
            return cand == 1 << k or not cand >> k & 1 or last and _twins(g, mask, cand ^ 1 << k)

        full = (1 << k + 1) - 1
        rest = [full]
        initial = _refine(child.adj, [full], rest, settled)
        if not cand >> k & 1:
            return None, None
        if last and _twins(g, mask, cand ^ 1 << k):
            return child, None
        if cand == 1 << k:
            # stopped early, and canon starts from the finished refinement
            initial = _refine(child.adj, initial, rest)
    res = canon(child, initial)
    deletion = max(bits(cand), key=res.labeling.index)
    return (child if res.orbits[k] == res.orbits[deletion] else None), res.generators


def _walk(g: Graph, gens: Gens | None, cuts: int, lo: int, hi: int, n: int) -> Iterator[Root]:
    """The stream's graphs of orders lo..hi at and below ``g``, in stream order.

    Each comes with its generators and its number of cut vertices;
    ``cuts`` is g's.  A graph comes before the graphs below it, and
    siblings come in mask order.  ``n`` >= hi is the final order the
    caller asked for: graphs of order n come with None generators where
    _accept skipped canon, and no other graph does.  _accept skips canon
    at order n when the new vertex is the only candidate for the
    deletion vertex, or every other candidate is its twin.
    """
    if g.n >= lo:
        yield g, gens, cuts
    if g.n == hi:
        return
    parts = _parts(g)
    deg = [row.bit_count() for row in g.adj]
    # the largest degree of a non-cut vertex bounds |M| (see _accept)
    low = max(d for d, comps in zip(deg, parts) if len(comps) <= 1)
    last = g.n + 1 == n
    leaf = g.n + 1 == hi
    for mask in _subset_orbit_reps(g.n, gens, low):
        child, child_gens = _accept(g, deg, parts, mask, last)
        if child is not None:
            # the new vertex is never a cut vertex of the child (see _accept)
            child_cuts = sum(_is_cut(comps, mask) for comps in parts)
            if leaf:
                yield child, child_gens, child_cuts
            else:
                yield from _walk(child, child_gens, child_cuts, lo, hi, n)


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
    top = min(n, _ROOT_LEVEL)
    return list(_walk(_K1, (), 0, top, top, n))


def subtree(root: Root, n: int) -> Iterator[tuple[Graph, int]]:
    """The order-n graphs of the stream below one of roots(n), in stream order.

    Each comes with its number of cut vertices.
    """
    g, gens, cuts = root
    # A root below order n must carry the generators roots(n) gives it.
    if g.n != min(n, _ROOT_LEVEL) or gens is None and g.n < n:
        raise ValueError(f"not one of roots({n})")
    return ((child, c) for child, _, c in _walk(g, gens, cuts, n, n, n))


def walk(lo: int, hi: int) -> Iterator[Root]:
    """Every graph of the stream of order lo..hi, from one walk of the growth tree to order hi.

    Each comes with its generators and its number of cut vertices, a
    graph before the graphs grown from it.  The graphs of one order m are
    connected_graphs(m) in order: the tree to order m is the top of the
    tree to order hi.  Only graphs of order hi may lack generators.
    """
    check_order(hi)
    if not 1 <= lo <= hi:
        raise ValueError(f"walk needs 1 <= lo <= hi, got lo={lo}, hi={hi}")
    return _walk(_K1, (), 0, lo, hi, hi)


def connected_graphs(n: int, *, allow_large: bool = False) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class of order n, in stream order."""
    check_order(n, allow_large)
    return (g for g, _, _ in _walk(_K1, (), 0, n, n, n))


def connected_graph_list(n: int) -> tuple[Graph, ...]:
    """Every class representative of order n at once: tuple(connected_graphs(n)).

    The package never calls it and keeps no copy; it stays as a public
    name, and extremal binds it for perfbench's traced runs.
    """
    return tuple(connected_graphs(n))
