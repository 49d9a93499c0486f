"""Immutable simple graphs and their exact invariants.

Vertices are dense ids 0..n-1.  Adjacency is stored as one Python int
bitmask per vertex, which covers both the small-graph fast path and the
n <= 200 formula-check path with a single representation (Python ints are
arbitrary precision).  All distance-based quantities are exact integers;
the average eccentricity is an exact Fraction.

Invariants that presuppose connectivity (eccentricity, Wiener index,
blocks, ...) raise DisconnectedGraphError on disconnected input rather
than returning partial answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, pairwise
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 200

#: Sentinel distance for vertices unreachable from the BFS source.
UNREACHABLE = -1


class DisconnectedGraphError(ValueError):
    """Raised when an invariant requiring connectivity gets a disconnected graph."""


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _require_order(n: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency.

    ``adj[v]`` is the neighbor set of ``v`` encoded as an int bitmask.
    Instances are immutable, hashable and safe to share across threads.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_order(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"neighbor mask of vertex {v} references vertices >= n")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list (duplicates collapse, loops rejected).

        Each edge is checked as it is read, and the vertex count after the
        last one.  The rows are then symmetric, loop-free and inside 0..n-1
        by construction, so ``__post_init__`` would find nothing more.
        """
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        _require_order(n)
        return cls._unchecked(n, tuple(rows))

    @classmethod
    def _unchecked(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """Build without ``__post_init__``'s checks, for rows valid by construction.

        ``from_edges`` calls this once its edges and vertex count are
        checked, and enumeration._extend for a valid parent plus a vertex
        joined symmetrically to some of 0..n-2, which is valid again.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def relabel(self, perm: tuple[int, ...]) -> "Graph":
        """The graph with vertex ``perm[i]`` renamed to ``i``; ValueError unless a permutation."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"relabel needs a permutation of 0..{self.n - 1}, got {tuple(perm)}")
        return Graph(self.n, _relabel_rows(self.adj, perm))


def _relabel_rows(adj: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """The rows with vertex ``perm[i]`` renamed to ``i``, in new order; ``perm`` is unchecked."""
    pos = [0] * len(adj)
    for i, v in enumerate(perm):
        pos[v] = i
    rows = []
    for v in perm:
        row = 0
        m = adj[v]
        while m:  # bits() inlined: canon runs this at every leaf
            low = m & -m
            row |= 1 << pos[low.bit_length() - 1]
            m ^= low
        rows.append(row)
    return tuple(rows)


def path_edges(vs: Sequence[int]) -> list[tuple[int, int]]:
    """The edges of the path through ``vs``, in order."""
    return list(pairwise(vs))


def cycle_edges(vs: Sequence[int]) -> list[tuple[int, int]]:
    """The edges of the path through ``vs`` plus the closing edge back to ``vs[0]``."""
    return [*pairwise(vs), (vs[-1], vs[0])]


@dataclass(frozen=True)
class DistanceRow:
    """Hop distances from one source; UNREACHABLE marks other components."""

    source: int
    dist: tuple[int, ...]


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs) and cut vertices; one vertex has no blocks."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]


def bfs_levels(adj: Sequence[int], start: int, banned: int = 0) -> Iterator[int]:
    """Yield the BFS frontiers from ``start`` as bitmasks, level 0 first.

    ``adj`` holds one neighbor mask per vertex (``Graph.adj``, or rows from
    ``without_edge``); no vertex in the ``banned`` mask is ever entered.
    Level d holds exactly the vertices at distance d from ``start``.
    """
    frontier = 1 << start
    seen = frontier | banned
    while frontier:
        yield frontier
        nxt = 0
        # bits() inlined: this is the hot loop of every per-source search.
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        seen |= frontier


def without_edge(adj: Sequence[int], u: int, v: int) -> list[int]:
    """Adjacency rows with the edge uv removed."""
    rows = list(adj)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return rows


def _reach(adj: Sequence[int], start: int, banned: int = 0) -> int:
    """Mask of the vertices reachable from ``start`` avoiding ``banned``."""
    seen = 0
    for level in bfs_levels(adj, start, banned):
        seen |= level
    return seen


def components_without(adj: Sequence[int], v: int) -> tuple[int, ...]:
    """Vertex masks of the components of the graph less ``v``, ordered by least vertex."""
    rest = ((1 << len(adj)) - 1) ^ 1 << v
    comps = []
    while rest:
        comp = _reach(adj, (rest & -rest).bit_length() - 1, 1 << v)
        comps.append(comp)
        rest ^= comp
    return tuple(comps)


def is_connected(g: Graph) -> bool:
    return _reach(g.adj, 0) == (1 << g.n) - 1


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("invariant requires a connected graph")


def _require_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")


def bfs_distances(g: Graph, v: int) -> DistanceRow:
    """Exact hop distances from ``v``; disconnected vertices get UNREACHABLE."""
    _require_vertex(g, v)
    dist = [UNREACHABLE] * g.n
    for d, level in enumerate(bfs_levels(g.adj, v)):
        for u in bits(level):
            dist[u] = d
    return DistanceRow(v, tuple(dist))


def _levels(adj: Sequence[int], v: int, what: str) -> list[int]:
    """The BFS levels from ``v``, the last being the first that completes every vertex.

    Raises DisconnectedGraphError, naming ``what``, if the levels end before that.
    """
    full = (1 << len(adj)) - 1
    levels = []
    seen = 0
    for level in bfs_levels(adj, v):
        levels.append(level)
        seen |= level
        if seen == full:
            return levels
    raise DisconnectedGraphError(f"{what} requires a connected graph")


def eccentricity(g: Graph, v: int) -> int:
    """Number of BFS levels from ``v`` minus one (raises on disconnected input)."""
    _require_vertex(g, v)
    return len(_levels(g.adj, v, "eccentricity")) - 1


#: Every graph up to this order goes to the sweep before its degrees are
#: read.  That covers every graph of the exhaustive runs (n <= 10), where
#: per-call overhead dominates, and the only graphs this small that pass
#: the chain test are C12 and C13, whose sweeps take five rounds.
_SWEEP_ONLY = 13


def _degrees(adj: Sequence[int]) -> bytes:
    """Every vertex's degree, one byte each: degrees stay below MAX_VERTICES <= 256."""
    return bytes(map(int.bit_count, adj))


#: The chain kernel pays one O(n) pass per chain between hubs, where the
#: sweep pays one round per level of depth, so its route asks for this many
#: vertices of degree 2 per such chain, and this many at least.  On
#: subdivided skeletons with n <= 200, 8 sent some graphs there at 1.3 to
#: 1.5 times what bounding or the sweep took on them.
_CHAIN_LENGTH = 12


def eccentricities(g: Graph) -> tuple[int, ...]:
    """Per-vertex eccentricities (raises on disconnected input).

    Two exact kernels.  The all-sources sweep (``_sweep``) grows every
    vertex's ball by one level a round, at 2m ORs a round after a free
    first one, so about 2m * (diameter - 1) in all, and nothing on a
    complete graph.  The chain kernel (``_chains``) runs one BFS per hub, a
    vertex of degree >= 3, and reads every other eccentricity along the
    chains of degree-2 vertices between hubs, with one O(n) pass per such
    chain.

    The route has three exits.  Every graph with n <= 13 (_SWEEP_ONLY) goes
    to the sweep before its degrees are read.  A larger graph goes to the
    chain kernel when it has at least _CHAIN_LENGTH vertices of degree 2
    per chain between hubs, and at least _CHAIN_LENGTH in all.  Each vertex
    of degree 1 or 2 owns the edge by which a walk from its chain's first
    hub reaches it, and each edge left over closes one chain between hubs
    (an edge between two hubs is one), so there are s = m - n_1 - n_2 of
    them, and the test is n_2 >= _CHAIN_LENGTH * max(s, 1).  Paths,
    cycles, spiders, tadpoles, dumbbells and long brooms go there.  Every
    other graph goes to the sweep, with the degrees already read.

    The known cost: a graph that is dense and deep at once and fails the
    chain test pays the sweep's many rounds of many ORs.  A clique of 100
    with a path of 101 takes about 40 ms (CPython 3.11), where bounding
    each eccentricity by BFS (Takes and Kosters, Algorithms 6, 2013) would
    take about 0.4 ms.  No family of the paper is of this kind.
    """
    if g.n <= _SWEEP_ONLY:
        return _sweep(g.adj)
    deg = _degrees(g.adj)
    n_2 = deg.count(2)
    if n_2 >= _CHAIN_LENGTH and n_2 >= _CHAIN_LENGTH * (sum(deg) // 2 - n_2 - deg.count(1)):
        return _chains(g.adj, deg)
    return _sweep(g.adj, deg)


#: Rows with more neighbours than this are listed by _sweep from their
#: binary digits, which costs 2 to 5 us a row at n = 200 whatever the
#: density, against about 0.15 us a neighbour for bits() (CPython 3.11;
#: the two meet near 6 neighbours at n = 40 and near 20 at n = 200).
_DENSE_ROW = 16
_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
#: The set bits of every byte, and the same shifted to the high byte: _sweep
#: lists a row of a graph with n <= 16 by one read from each, in place of
#: bits().  Constants built at import.
_BYTE_BITS = tuple(tuple(bits(r)) for r in range(256))
_HIGH_BYTE_BITS = tuple(tuple(v + 8 for v in r) for r in _BYTE_BITS)


def _sweep(adj: Sequence[int], deg: bytes | None = None) -> tuple[int, ...]:
    """Eccentricities from growing the ball around every vertex at once.

    ``reach[v]`` holds the ball of radius d around v: the closed
    neighbourhood at d = 1, then ``R_d[v] = R_{d-1}[v] | OR of R_{d-1}[u]``
    over the neighbours u of v, read from a copy of the previous round.
    ecc(v) is the first d whose ball is every vertex, and v then leaves
    the active list.  In a connected graph every ball short of full grows
    each round, so a round that grows none means the graph is disconnected.
    Past n = 16 each row's degree picks how its neighbours are listed; the
    degrees (``_degrees``) are read once, unless the caller passes them.
    """
    n = len(adj)
    if n == 1:
        return (0,)
    full = (1 << n) - 1
    reach = [row | 1 << v for v, row in enumerate(adj)]
    ecc = [1] * n
    active = [v for v in range(n) if reach[v] != full]
    if not active:
        return tuple(ecc)
    # Built once per call: iterating bits() inside the rounds loses most of the gain.
    if n <= 8:  # every row is one byte
        nbrs = [_BYTE_BITS[row] for row in adj]
    elif n <= 16:  # every row is two bytes, and none has over _DENSE_ROW bits
        nbrs = [_BYTE_BITS[row & 255] + _HIGH_BYTE_BITS[row >> 8] for row in adj]
    else:
        vertices = range(n)
        nbrs = [
            list(bits(row))
            if degree <= _DENSE_ROW
            else list(compress(vertices, bin(row)[:1:-1].encode().translate(_BINARY_DIGITS)))
            for row, degree in zip(adj, _degrees(adj) if deg is None else deg)
        ]
    d = 1
    while active:
        d += 1
        prev = reach.copy()
        still = []
        for v in active:
            ball = prev[v]
            for u in nbrs[v]:
                ball |= prev[u]
            reach[v] = ball
            if ball == full:
                ecc[v] = d
            else:
                still.append(v)
        active = still
        if reach == prev:
            raise DisconnectedGraphError("eccentricity requires a connected graph")
    return tuple(ecc)


def _chains(adj: Sequence[int], deg: bytes) -> tuple[int, ...]:
    """Eccentricities from one BFS per hub, read along the chains between hubs.

    The hubs are the vertices of degree >= 3, or, where there are none,
    those of degree other than 2 (a path's ends, K1, K2); a graph with
    neither is a cycle, whose every eccentricity is n // 2 once one BFS
    finds it connected.  Every other vertex lies on a chain, a maximal run
    of degree-2 vertices, which leaves hub a and ends at a hub b (maybe a
    itself) or at a leaf.  Each hub's BFS gives its eccentricity, and all
    of them run, each checking that the graph is connected, before any
    chain is walked.

    On a chain of c edges from a to b, with D = d(a, b), every path from
    its vertex x_i to a vertex w off the chain leaves through a or b, so
    d(x_i, w) = min(i + d(a, w), c - i + d(b, w)): the first term wins
    when kappa = d(b, w) - d(a, w), which lies in [-D, D], is at least
    2i - c.  So the suffix maxima over kappa of the greatest d(a, w) give
    the far vertex through a, and the prefix maxima of d(b, w) the far one
    through b.  Two vertices t apart on the chain are min(t, c + D - t)
    apart, at most (c + D) // 2.  A chain of c vertices hanging from a to a
    leaf gives ecc(x_i) = max(i + f, c - i), f being the deepest level of
    a's BFS that holds a vertex off the chain.

    That is O(n) per chain between hubs and O(c) per hanging one, after
    the hubs' BFS.  ``deg`` holds the degrees as ``_degrees`` reads them.
    """
    n = len(adj)
    hubs = [v for v, d in enumerate(deg) if d > 2] or [v for v, d in enumerate(deg) if d != 2]
    if not hubs:
        _levels(adj, 0, "eccentricity")  # raises unless connected
        return (n // 2,) * n
    ecc = [0] * n
    levels_of = {}
    for a in hubs:
        levels_of[a] = _levels(adj, a, "eccentricity")
        ecc[a] = len(levels_of[a]) - 1
    # Walk every chain from its first hub.  A chain between hubs marks its
    # vertices with its number, so that b's walk skips it and its own
    # vertices can be told from the rest.
    owner = [0] * n
    between = []
    for a in hubs:
        for u in bits(adj[a]):
            if u in levels_of or owner[u]:
                continue
            chain = []
            prev, cur = a, u
            while deg[cur] == 2:
                chain.append(cur)
                prev, cur = cur, (adj[cur] ^ 1 << prev).bit_length() - 1
            if cur in levels_of:
                between.append((a, cur, chain))
                for x in chain:
                    owner[x] = len(between)
                continue
            # Hanging from a to the leaf cur; x_i sits at level i of a's BFS.
            chain.append(cur)
            levels = levels_of[a]
            c = len(chain)
            f = len(levels) - 1
            while 0 < f <= c and levels[f] == 1 << chain[f - 1]:
                f -= 1
            for i, x in enumerate(chain, 1):
                ecc[x] = i + f if i + f > c - i else c - i
    rows = {}
    for number, (a, b, chain) in enumerate(between, 1):
        c = len(chain) + 1
        for h in (a, b):
            if h not in rows:
                row = rows[h] = [0] * n
                for d, level in enumerate(levels_of[h]):
                    while level:  # bits() inlined, as in bfs_levels
                        low = level & -level
                        row[low.bit_length() - 1] = d
                        level ^= low
        ra, rb = rows[a], rows[b]
        span = ra[b]
        width = 2 * span + 1
        # top[k]: the greatest d(a, w) off the chain with kappa = k - span,
        # then, after the suffix pass, with kappa >= k - span; through_b[k]:
        # the greatest d(b, w) off it with kappa <= k - span.
        top = [-2 * n] * width
        for x, y, on in zip(ra, rb, owner):
            if on != number:
                k = y - x + span
                if x > top[k]:
                    top[k] = x
        through_b = []
        best = -2 * n
        for k, x in enumerate(top):
            if x + k > best:
                best = x + k
            through_b.append(best - span)
        for k in range(width - 2, -1, -1):
            if top[k] < top[k + 1]:
                top[k] = top[k + 1]
        half = (c + span) // 2
        for i, x in enumerate(chain, 1):
            far = max(i - 1, c - 1 - i)
            e = far if far < half else half
            k = 2 * i - c + span
            if k < width:
                far = i + top[k if k > 0 else 0]
                if far > e:
                    e = far
            if k >= 0:
                far = c - i + through_b[k if k < width else width - 1]
                if far > e:
                    e = far
            ecc[x] = e
    return tuple(ecc)


def total_eccentricity(g: Graph) -> int:
    """Sum of all vertex eccentricities."""
    return sum(eccentricities(g))


def wiener_index(g: Graph) -> int:
    """Sum of distances over unordered vertex pairs: sum of d * |level d|."""
    total = 0
    for v in range(g.n):
        for d, level in enumerate(_levels(g.adj, v, "Wiener index")):
            total += d * level.bit_count()
    return total // 2


def average_eccentricity(g: Graph) -> Fraction:
    """Exact rational total_eccentricity(g) / n."""
    return Fraction(total_eccentricity(g), g.n)


def pendant_vertices(g: Graph) -> frozenset[int]:
    """Degree-1 vertices."""
    return frozenset(v for v in range(g.n) if g.degree(v) == 1)


def _tarjan(g: Graph) -> tuple[frozenset[int], list[frozenset[int]]]:
    """Cut vertices and blocks (in closing order) by one iterative DFS.

    Tarjan's low-point search with an edge stack: when a child v of p has
    low[v] >= disc[p], the edges down to (p, v) form one block and p is a
    cut vertex unless it is the root with a single child.  The stack's order
    sets each block frozenset's iteration order, printed in merge-cycles sites.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    timer = 0
    edge_stack: list[tuple[int, int]] = []
    raw_blocks: list[frozenset[int]] = []
    cuts = set()

    # Each stack frame tracks the neighbor iterator of its vertex.
    stack = [(0, iter(bits(g.adj[0])))]
    disc[0] = low[0] = timer
    timer += 1
    root_children = 0
    while stack:
        v, it = stack[-1]
        advanced = False
        for u in it:
            if disc[u] == -1:
                parent[u] = v
                disc[u] = low[u] = timer
                timer += 1
                if v == 0:
                    root_children += 1
                edge_stack.append((v, u))
                stack.append((u, iter(bits(g.adj[u]))))
                advanced = True
                break
            elif u != parent[v] and disc[u] < disc[v]:
                edge_stack.append((v, u))
                if disc[u] < low[v]:
                    low[v] = disc[u]
        if not advanced:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    # p closes a block; pop edges down to (p, v)
                    members = set()
                    while True:
                        e = edge_stack.pop()
                        members.add(e[0])
                        members.add(e[1])
                        if e == (p, v):
                            break
                    raw_blocks.append(frozenset(members))
                    if p != 0:
                        cuts.add(p)
    if timer != n:
        raise DisconnectedGraphError("invariant requires a connected graph")
    if root_children > 1:
        cuts.add(0)
    return frozenset(cuts), raw_blocks


def cut_vertices(g: Graph) -> frozenset[int]:
    """Articulation points via iterative DFS low-points."""
    return _tarjan(g)[0]


def blocks(g: Graph) -> BlockDecomposition:
    """Biconnected components, sorted by their sorted members, and cut vertices."""
    cut_set, raw_blocks = _tarjan(g)
    return BlockDecomposition(tuple(sorted(raw_blocks, key=sorted)), cut_set)


def diameter(g: Graph) -> int:
    return max(eccentricities(g))


def radius(g: Graph) -> int:
    return min(eccentricities(g))


def center(g: Graph) -> frozenset[int]:
    """Vertices of minimum eccentricity."""
    eccs = eccentricities(g)
    r = min(eccs)
    return frozenset(v for v in range(g.n) if eccs[v] == r)


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for acyclic graphs.

    Every shortest cycle contains each of its edges, so
    min over edges (u,v) of d_{G-uv}(u,v) + 1 is exact.
    """
    _require_connected(g)
    if g.edge_count == g.n - 1:
        return None
    # A connected graph that is not a tree has a cycle of length <= n.
    best = g.n + 1
    for u, v in g.edges():
        for d, level in enumerate(bfs_levels(without_edge(g.adj, u, v), u)):
            if d + 1 >= best:
                break
            if level >> v & 1:
                best = d + 1
                break
    return best
