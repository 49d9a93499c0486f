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
runs no cut-vertex search; the generators stay in the walk.  check_order
holds the one cap on n.

Most children are decided without the canon search tree (McKay, J.
Algorithms 26, 1998), and most before they are built.  The deletion
vertex and its whole orbit lie in the non-cut part of the last cell of
the child's initial equitable partition that holds a non-cut vertex, and
a child whose new vertex lies outside it is rejected.  That partition is
ordered by ascending degree, so the cell lies in the highest degree
class holding a non-cut vertex: most children are decided from degrees
alone, which the parent's degrees and the neighbor mask M give.

No cut test searches a child: each parent lists once the components of
itself less each vertex, and a parent vertex is a cut vertex of a child
iff M misses one of its components.  So a non-cut vertex of the parent
stays non-cut in the child unless M is that vertex alone.  Each parent
therefore keeps, once, masks of its non-cut vertices by degree
(DegreeMasks), and the degree step is a few ANDs on them plus one cut
test per cut vertex of the parent; the child's cut count is read the
same way.  With |M| >= 2 a non-cut vertex of the parent keeps its
degree or gains one, so a mask with 1 < |M| < D, where D is the largest
degree of a non-cut parent vertex, is never tried.

The child is built and refined only when another non-cut vertex shares
the new vertex's degree |M|.  The refinement starts from the child's
degree cells, which the parent's vertices by degree and M give, and
stops at the first pass whose cells settle the outcome, so each child
is decided once.  When the non-cut part of the last cell is the new
vertex alone the child is accepted outright, and canon runs only if the
child's automorphism generators are still needed to extend it: a child
of the requested final order is emitted without them.  Such a child is
also accepted without canon when every other vertex of that part is a
twin of the new vertex (the two have the same neighbors apart from each
other), since swapping twins is an automorphism; the twin test runs
first on the non-cut vertices of the new vertex's degree, before any
refinement.  Canon starts from the refinement only where it ran to the
end.  There, a child of the final order is accepted without canon when
refinement dives prove every vertex of that part to share the new
vertex's orbit (canon.one_orbit): each dive runs from the refined cells
to a leaf, one below the new vertex and one below each other vertex,
and two leaves that relabel the child alike give an automorphism.  Canon
runs only where that proof fails.  _accept holds the argument in full.

The independent oracles (extend everything and dedup by canonical form,
brute force over labeled graphs) live with the tests.  Class predicates
live in extremal.
"""

from __future__ import annotations

from typing import Iterator

from .canon import _refine, canon, one_orbit
from .graph import Graph, bits, components_without

#: The stream's cap on n, applied by check_order alone; n = 10 (~11.7M
#: classes, about 7 minutes in one process) needs the explicit opt-in.
MAX_EXHAUSTIVE = 9
MAX_OPTIN = 10

_ROOT_LEVEL = 6

_K1 = Graph(1, (0,))

#: Automorphism generators as canon returns them, one image tuple each.
Gens = tuple[tuple[int, ...], ...]
#: A graph of the stream with its number of cut vertices.
Node = tuple[Graph, int]
#: For each vertex v of a graph, the components of the graph less v.
Parts = tuple[tuple[int, ...], ...]
#: What the accept step reads of a parent g, found once per parent:
#: (by_deg, eq, gt, lone, cuts).  by_deg[d] holds g's vertices of degree
#: d, and eq[d] and gt[d] its non-cut vertices of degree d and of degree
#: above d (each list indexed 0..g.n).  lone holds the non-cut vertices
#: whose removal leaves one component: all of them but K1's.  cuts lists
#: each cut vertex of g as (v, deg(v), components of g - v).
DegreeMasks = tuple[
    list[int], list[int], list[int], int, tuple[tuple[int, int, tuple[int, ...]], ...]
]


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


def _degree_masks(g: Graph, parts: Parts) -> DegreeMasks:
    """The DegreeMasks of g, whose ``_parts`` are ``parts``."""
    k = g.n
    by_deg = [0] * (k + 1)
    eq = [0] * (k + 1)
    lone = 0
    cuts = []
    for v, (row, comps) in enumerate(zip(g.adj, parts)):
        d = row.bit_count()
        by_deg[d] |= 1 << v
        if len(comps) > 1:
            cuts.append((v, d, comps))
        else:
            eq[d] |= 1 << v
            if comps:
                lone |= 1 << v
    gt = [0] * (k + 1)
    for d in range(k - 1, -1, -1):
        gt[d] = gt[d + 1] | eq[d + 1]
    return by_deg, eq, gt, lone, tuple(cuts)


def _noncut(masks: DegreeMasks, k: int, mask: int) -> int:
    """The degree step: the child's non-cut vertices of degree |M|, or 0.

    The child of the parent with DegreeMasks ``masks`` and order k is
    joined to ``mask``.  Returns 0 if some non-cut vertex of the child has
    a degree above |M|; otherwise the non-cut vertices of degree |M|, the
    new vertex k among them.  _accept holds the argument.
    """
    _, eq, gt, lone, cuts = masks
    dk = mask.bit_count()
    # the lone vertex of a size-1 mask is cut off in the child
    keep = ~(mask & lone) if dk == 1 else -1
    if (gt[dk] | eq[dk] & mask) & keep:
        return 0
    noncut = 1 << k | (eq[dk] & ~mask | eq[dk - 1] & mask) & keep
    for v, dv, comps in cuts:
        dv += mask >> v & 1
        if dv >= dk and not _is_cut(comps, mask):
            if dv > dk:
                return 0
            noncut |= 1 << v
    return noncut


def _cut_count(masks: DegreeMasks, mask: int) -> int:
    """The number of cut vertices of the child joined to ``mask`` (see _accept)."""
    _, _, _, lone, cuts = masks
    dropped = mask & (mask - 1) == 0 and mask & lone != 0
    return dropped + sum(_is_cut(comps, mask) for _, _, comps in cuts)


def _degree_cells(masks: DegreeMasks, k: int, mask: int) -> list[int]:
    """The child's vertices by degree, ascending, empty classes left out.

    A parent vertex v has degree deg(v) in the child, plus one if v is in
    ``mask``, and the new vertex k has degree |M|.  Every child vertex has
    degree 1 or more.
    """
    by_deg = masks[0]
    dk = mask.bit_count()
    cells = []
    for d in range(1, k + 1):
        cell = by_deg[d] & ~mask | by_deg[d - 1] & mask | (d == dk) << k
        if cell:
            cells.append(cell)
    return cells


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
    g: Graph, masks: DegreeMasks, mask: int, last: bool
) -> tuple[Graph | None, Gens | None]:
    """The canonical-deletion test for the child of g joined to ``mask``.

    ``masks`` is ``_degree_masks(g, _parts(g))``; the child's new vertex
    k = g.n is its last.  Returns the child, or None if it is
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
    with a non-cut vertex.
    A parent vertex v has degree deg(v) in the child, plus one if v is in
    M, so this whole step reads the parent: _noncut runs it on masks the
    parent keeps, as the cut argument below shows.

    The refinement starts after its first pass.  That pass splits the
    child's vertices into its degree cells, in ascending order, and queues
    them as splitters (one cell, nothing queued, for a regular child).
    _degree_cells builds the same cells from the parent's vertices by
    degree and M, so _refine starts from them with them as splitters.
    The pass could not have settled the outcome (see below): its ``cand``
    is ``noncut``, which holds k and some other vertex, and with ``last``
    they are not all twins of k, or the child was accepted before.

    The refinement often settles the outcome before it ends.  It splits
    cells only in place, so after any pass the final ``cand`` lies in the
    non-cut part of the last cell so far that has a non-cut vertex, and
    is not empty.  The refinement stops after the first pass that splits
    a cell and leaves that part without k (reject), equal to {k} (then
    ``cand`` is {k}), or, with ``last``, with every other vertex a twin
    of k (accept; the twins share k's orbit, so ``cand`` is that part).
    If no pass settles it, the refinement runs to the end, and canon
    starts from its cells to place k and the rest of ``cand``.
    ``settled`` records whether it stopped, so each child is decided
    once.  A child stopped at {k} below the final order still needs its
    generators: canon refines it from the unit partition, to the same cells.

    With ``last``, a refinement run to the end is first handed to
    canon.one_orbit, a sufficient test that every vertex of ``cand`` is in
    k's orbit.  The refined cells are equitable and ``cand`` lies in k's
    cell.  The test individualises k in that cell and dives to a leaf,
    then does the same for each vertex v of ``cand`` not yet joined to k.
    Where the two leaves relabel the child alike, the map between them is
    an automorphism taking k to v, since cells split only in place.  If
    every v joins k, the deletion vertex, which lies in ``cand``, is in
    k's orbit, and the child is accepted with no canon call: the decision
    canon would give.  At the first v the dives do not join, canon runs as
    before and decides; so the test changes who decides, never what.

    No cut test searches the child.  The child less a parent vertex v is
    g - v plus k, and k is joined to the components of g - v that meet M.
    So v is a cut vertex of the child iff some component of g - v misses
    M; when every one meets M, M holds more than v and k is joined too.
    With M == {v} every component misses M and k is cut off, except below
    the parent K1: K1 - v has no component, and the child K2 has no cut
    vertex.

    So a non-cut vertex v of g, whose g - v has one component (every
    non-cut vertex but K1's: ``lone`` in DegreeMasks), is a cut vertex of
    the child iff M == {v}; let ``drop`` be M's vertex if so, and empty
    otherwise.  The child's non-cut vertices that g has as non-cut are
    then, by child degree, those of g's degree d less M plus those of g's
    degree d - 1 in M, less ``drop``.  _noncut rejects the child when
    those of child degree above |M|, ``gt[|M|]`` and ``eq[|M|] & M`` less
    ``drop``, are not empty, and otherwise starts ``noncut`` from those of
    child degree |M|.  Only g's cut vertices need a cut test each, and
    the child's cut count (_cut_count) is one for a non-empty ``drop``
    plus the cut vertices of g that stay cut.

    This bounds |M| before any test (``_walk`` passes the bound to
    ``_subset_orbit_reps``).  Let v be a non-cut vertex of g, so g - v has
    at most one component.  If |M| >= 2, M meets g - v, so v is not cut
    in the child either, and its degree there is at least deg(v).  A mask
    with 1 < |M| < deg(v) is therefore always rejected.  If |M| == 1, the
    one vertex u in M becomes a cut vertex of the child (k hangs from it)
    unless g is K1, so the bound does not hold for u, and size-1 masks all
    reach the degree step.
    """
    k = g.n
    noncut = _noncut(masks, k, mask)
    if not noncut:
        return None, None
    child = _extend(g, mask)
    if last and _twins(g, mask, noncut ^ 1 << k):
        return child, None
    cand = noncut
    initial = None
    if noncut != 1 << k:
        stopped = False

        def settled(cells: list[int]) -> bool:
            nonlocal cand, stopped
            for cell in reversed(cells):
                cand = cell & noncut
                if cand:
                    break
            stopped = cand == 1 << k or not cand >> k & 1 or last and _twins(g, mask, cand ^ 1 << k)
            return stopped

        cells = _degree_cells(masks, k, mask)
        initial = _refine(child.adj, cells, cells, settled)
        if not cand >> k & 1:
            return None, None
        if stopped:
            if last:
                return child, None
            # cand == {k}: canon refines the child from the unit partition
            initial = None
        elif last and one_orbit(child.adj, initial, k, cand):
            return child, None
    res = canon(child, initial)
    deletion = max(bits(cand), key=res.labeling.index)
    return (child if res.orbits[k] == res.orbits[deletion] else None), res.generators


def _walk(g: Graph, gens: Gens, cuts: int, lo: int, hi: int) -> Iterator[Node]:
    """The stream's graphs of orders lo..hi at and below ``g``, in stream order.

    Each comes with its number of cut vertices; ``gens`` and ``cuts`` are
    g's.  A graph comes before the graphs below it, and siblings come in
    mask order.  A child's generators go only to the walk below it, so
    none is needed where _accept skipped canon: at order hi.
    """
    if g.n >= lo:
        yield g, cuts
    if g.n == hi:
        return
    masks = _degree_masks(g, _parts(g))
    # the largest degree of a non-cut vertex (eq's last non-empty entry)
    # bounds |M| (see _accept)
    low = max(d for d, vs in enumerate(masks[1]) if vs)
    last = g.n + 1 == hi
    for mask in _subset_orbit_reps(g.n, gens, low):
        child, child_gens = _accept(g, masks, mask, last)
        if child is not None:
            child_cuts = _cut_count(masks, mask)
            if last:
                yield child, child_cuts
            else:
                yield from _walk(child, child_gens, child_cuts, lo, hi)


def check_order(n: int, allow_large: bool = False) -> None:
    """Raise ValueError unless the stream supports order n."""
    cap = MAX_OPTIN if allow_large else MAX_EXHAUSTIVE
    if not 1 <= n <= cap:
        raise ValueError(f"exhaustive enumeration supports 1 <= n <= {cap}")


def roots(n: int, allow_large: bool = False) -> list[Node]:
    """The stream's graphs of order min(n, 6), in stream order: walk(top, top) as a list."""
    check_order(n, allow_large)
    top = min(n, _ROOT_LEVEL)
    return list(_walk(_K1, (), 0, top, top))


def subtree(root: Node, n: int) -> Iterator[Node]:
    """The order-n graphs of the stream below one of roots(n), in stream order.

    A root below order n is extended with canon's generators for it: any
    set generating its automorphism group gives the least mask of each
    orbit, so the masks tried are those of the walk from K1.
    """
    g, cuts = root
    if g.n != min(n, _ROOT_LEVEL):
        raise ValueError(f"not one of roots({n})")
    gens = canon(g).generators if g.n < n else ()
    return _walk(g, gens, cuts, n, n)


def walk(lo: int, hi: int) -> Iterator[Node]:
    """Every graph of the stream of order lo..hi, from one walk of the growth tree to order hi.

    Each comes with its number of cut vertices, a graph before the graphs
    grown from it.  The graphs of one order m are connected_graphs(m) in
    order: the tree to order m is the top of the tree to order hi.
    """
    check_order(hi)
    if not 1 <= lo <= hi:
        raise ValueError(f"walk needs 1 <= lo <= hi, got lo={lo}, hi={hi}")
    return _walk(_K1, (), 0, lo, hi)


def connected_graphs(n: int, *, allow_large: bool = False) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class of order n, in stream order."""
    check_order(n, allow_large)
    return (g for g, _ in _walk(_K1, (), 0, n, n))


def connected_graph_list(n: int) -> tuple[Graph, ...]:
    """Every class representative of order n at once: tuple(connected_graphs(n)).

    The package never calls it and keeps no copy; it stays as a public
    name, and extremal binds it for perfbench's traced runs.
    """
    return tuple(connected_graphs(n))
