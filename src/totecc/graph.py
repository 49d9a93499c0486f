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


def eccentricity(g: Graph, v: int) -> int:
    """Number of BFS levels from ``v`` minus one (raises on disconnected input)."""
    _require_vertex(g, v)
    reached = 0
    ecc = -1
    for level in bfs_levels(g.adj, v):
        reached |= level
        ecc += 1
    if reached != (1 << g.n) - 1:
        raise DisconnectedGraphError("eccentricity requires a connected graph")
    return ecc


#: One per-source BFS expansion costs about as much as this many sweep ORs
#: (CPython 3.11, n = 200 cliques with paths: about 110 ns against 22 ns).
_EXPANSION_ORS = 5

#: Share of the sweep's estimated ORs that bounding's first BFS may cost:
#: 1 / (2 * _EXPANSION_ORS).  A bounding BFS also updates two bounds per
#: unresolved vertex, about a second expansion, so three BFS that resolve
#: nothing cost about a tenth of the sweep they then hand over to.
_BOUND_SHARE = 1 / (2 * _EXPANSION_ORS)


def _budget(n: int, twice_m: int, ecc0: int) -> float:
    """BFS that bounding may run on a graph whose sweep costs 2m * (ecc0 - 1) ORs."""
    return _BOUND_SHARE * twice_m * (ecc0 - 1) / (n * _EXPANSION_ORS)


#: The budget grows with m, so up to the largest order at which even K_n's
#: cannot buy three BFS (13) every graph goes to the sweep uncounted.
_SWEEP_ONLY = max(n for n in range(1, MAX_VERTICES + 1) if _budget(n, n * (n - 1), n - 1) < 3)


def eccentricities(g: Graph) -> tuple[int, ...]:
    """Per-vertex eccentricities (raises on disconnected input).

    Two exact kernels.  The all-sources sweep (``_sweep``) spends 2m ORs a
    round after a free first one, about 2m * (ecc(0) - 1) in all, and
    nothing on a complete graph.  Bounding (``_bounded``) runs BFS: one
    from w puts every ecc(v) between max(d(v, w), ecc(w) - d(v, w)) and
    ecc(w) + d(v, w), and v is done when the two meet.  Paths, spiders,
    brooms and dumbbells take about five BFS where the sweep takes about
    n / 2 rounds; a central vertex, such as every vertex of a cycle or
    a clique, is resolved only by its own BFS.

    Shallow graphs go to the sweep.  One whose estimate cannot buy three
    BFS at _BOUND_SHARE (``_budget``) even at depth n - 1 goes there with
    no BFS at all; that covers every graph with n <= 13 before its edges
    are counted.  Otherwise the BFS from vertex 0 gives ecc(0), and the
    sweep takes over if the estimate at that depth cannot buy three.
    Deeper graphs are bounded while bounding progresses: after BFS 3, 5,
    7, ... it has stalled if that pair resolved fewer than a quarter of the
    vertices unresolved before it.  What is left is then mostly central,
    so bounding would need about one BFS per unresolved vertex, and the
    sweep takes over if those BFS would cost more than its estimate,
    1 / _BOUND_SHARE times the budget.  A long cycle hands over after three
    BFS, and a path is bounded to the end in five.  Graphs that are dense
    and deep at once, where the sweep runs many rounds of many ORs, are
    bounded to the end at one BFS per central vertex.
    """
    n = g.n
    if n <= _SWEEP_ONLY:
        return _sweep(g.adj)
    twice_m = 2 * g.edge_count
    if _budget(n, twice_m, n - 1) < 3:
        return _sweep(g.adj)
    eccs = _bounded(g.adj, twice_m)
    return _sweep(g.adj) if eccs is None else eccs


def _bounded(adj: Sequence[int], twice_m: int | None = None) -> tuple[int, ...] | None:
    """Exact eccentricities by bounding (Takes and Kosters, Algorithms 6, 2013).

    The first source is vertex 0; after it the sources alternate between
    the unresolved vertex with the largest upper bound and the one with
    the smallest lower bound, the higher degree first on a tie.  Each BFS
    resolves at least its own source, so at most n run.  Given
    ``twice_m`` (the degree sum), the run is routed as ``eccentricities``
    describes and returns None where the sweep takes over: after the first
    BFS if ``_budget`` cannot buy three BFS, and after BFS 3, 5, 7, ... if
    that pair resolved fewer than a quarter of the vertices unresolved
    before it while one BFS per vertex still unresolved would cost more
    than the sweep.  Without ``twice_m`` the kernel runs to the end.
    """
    n = len(adj)
    full = (1 << n) - 1
    lo = [0] * n
    hi = [2 * n] * n
    todo = full
    w = 0
    spent = 0
    sweep_bfs = n  # left < n: no hand-over unless twice_m lowers it
    take_high = True
    while True:
        # Stop at the level that fills the graph: expanding it finds nothing.
        levels = []
        seen = 0
        for level in bfs_levels(adj, w):
            levels.append(level)
            seen |= level
            if seen == full:
                break
        else:
            raise DisconnectedGraphError("eccentricity requires a connected graph")
        ecc = len(levels) - 1
        spent += 1
        if spent == 1:
            if twice_m is not None:
                budget = _budget(n, twice_m, ecc)
                if budget < 3:
                    return None
                sweep_bfs = budget / _BOUND_SHARE
            deg = [row.bit_count() for row in adj]
        # Update the unresolved vertices and pick the next source among
        # those left: the largest upper bound or the smallest lower bound
        # (as a largest negated one), the higher degree first on a tie.
        left = 0
        best = best_deg = -2 * n
        for d, level in enumerate(levels):
            low_d = d if d + d >= ecc else ecc - d
            high_d = ecc + d
            level &= todo
            while level:
                bit = level & -level
                level ^= bit
                v = bit.bit_length() - 1
                low = lo[v]
                high = hi[v]
                if low < low_d:
                    lo[v] = low = low_d
                if high > high_d:
                    hi[v] = high = high_d
                if low == high:
                    todo ^= bit
                    continue
                left += 1
                key = high if take_high else -low
                if key > best or key == best and deg[v] > best_deg:
                    best, best_deg, w = key, deg[v], v
        if not left:
            return tuple(lo)
        if spent & 1:
            # A pair that resolved under a quarter of what it found has
            # stalled on vertices that only their own BFS resolves.
            if spent > 1 and 4 * (before - left) < before and left > sweep_bfs:
                return None
            before = left
        take_high = not take_high


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


def _sweep(adj: Sequence[int]) -> tuple[int, ...]:
    """Eccentricities from growing the ball around every vertex at once.

    ``reach[v]`` holds the ball of radius d around v: the closed
    neighbourhood at d = 1, then ``R_d[v] = R_{d-1}[v] | OR of R_{d-1}[u]``
    over the neighbours u of v, read from a copy of the previous round.
    ecc(v) is the first d whose ball is every vertex, and v then leaves
    the active list.  In a connected graph every ball short of full grows
    each round, so a round that grows none means the graph is disconnected.

    Past n = 16 a degree-2 vertex v with neighbours a and b takes
    ``R_{d-1}[a] | R_{d-1}[b]``, with no inner loop: for d >= 2 that ball
    already holds R_{d-1}[v], since v lies in both.
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
    pairs = ()
    split = 0
    if n <= 8:  # every row is one byte
        nbrs = [_BYTE_BITS[row] for row in adj]
    elif n <= 16:  # every row is two bytes, and none has over _DENSE_ROW bits
        nbrs = [_BYTE_BITS[row & 255] + _HIGH_BYTE_BITS[row >> 8] for row in adj]
    else:
        vertices = range(n)
        nbrs = [
            list(bits(row))
            if row.bit_count() <= _DENSE_ROW
            else list(compress(vertices, bin(row)[:1:-1].encode().translate(_BINARY_DIGITS)))
            for row in adj
        ]
        split = 3
    d = 1
    while active or pairs:
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
        if pairs:
            still = []
            for pair in pairs:
                v, a, b = pair
                ball = prev[a] | prev[b]
                reach[v] = ball
                if ball == full:
                    ecc[v] = d
                else:
                    still.append(pair)
            pairs = still
        if reach == prev:
            raise DisconnectedGraphError("eccentricity requires a connected graph")
        if d == split and active:
            # After two rounds, so that shallow graphs never pay for the split.
            pairs = [(v, *nbrs[v]) for v in active if len(nbrs[v]) == 2]
            if pairs:
                active = [v for v in active if len(nbrs[v]) != 2]
    return tuple(ecc)


def total_eccentricity(g: Graph) -> int:
    """Sum of all vertex eccentricities."""
    return sum(eccentricities(g))


def wiener_index(g: Graph) -> int:
    """Sum of distances over unordered vertex pairs: sum of d * |level d|."""
    full = (1 << g.n) - 1
    total = 0
    for v in range(g.n):
        reached = 0
        for d, level in enumerate(bfs_levels(g.adj, v)):
            reached |= level
            total += d * level.bit_count()
        if reached != full:
            raise DisconnectedGraphError("Wiener index requires a connected graph")
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
