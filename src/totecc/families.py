"""Deterministic constructors for the named extremal graph families.

Every constructor fixes an explicit labeling (cycle vertices first, then
path/pendant vertices in attachment order) so that identical parameters
always produce bit-identical Graph values, which golden tests rely on.
Parameter validation raises ValueError; the constructors never normalize
arguments silently.  Paths and rings are built by ``graph.path_edges`` and
``graph.cycle_edges``, cliques by ``itertools.combinations``.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .graph import Graph, cycle_edges, path_edges


def path(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, path_edges(range(n)))


def cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, cycle_edges(range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.from_edges(n, combinations(range(n), 2))


def star(n: int) -> Graph:
    """Star with center 0 and leaves 1..n-1."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def double_broom(l: int, m: int, d: int) -> Graph:
    """Path on d vertices with l pendants on one end, m on the other.

    Path vertices are 0..d-1; the l pendants d..d+l-1 hang on vertex 0 and
    the m pendants d+l..d+l+m-1 on vertex d-1.  The degenerate d=1 reading
    puts both pendant bundles on the single path vertex (a star); it is
    excluded from the theorem suites.
    """
    if l < 1 or m < 1 or d < 1:
        raise ValueError("double broom needs l, m, d >= 1")
    n = l + m + d
    edges = path_edges(range(d))
    edges += [(0, d + i) for i in range(l)]
    edges += [(d - 1, d + l + i) for i in range(m)]
    return Graph.from_edges(n, edges)


def spider_balanced(n: int, k: int) -> Graph:
    """Tree with one hub (vertex 0) of degree k and near-equal path legs.

    With q = (n-1)//k and r = n-1-k*q, the first r legs have q+1 vertices
    and the remaining k-r legs have q; legs are numbered consecutively.
    """
    if not 2 <= k <= n - 1:
        raise ValueError("balanced spider needs 2 <= k <= n-1")
    q, r = divmod(n - 1, k)
    edges, first = [], 1
    for leg in range(k):
        length = q + 1 if leg < r else q
        edges += path_edges([0, *range(first, first + length)])
        first += length
    return Graph.from_edges(n, edges)


def double_spider(n: int, k: int, t: int) -> Graph:
    """Two adjacent hubs u=0 (degree t+1) and v=1 (degree k-t+1).

    Removing both hubs leaves k paths of (n-2)/k vertices each: t of them
    hang on u, the rest on v.  Requires k | n-2 and 1 <= t <= k-1.
    """
    if k < 2 or (n - 2) % k != 0 or (n - 2) // k < 1:
        raise ValueError("double spider needs k >= 2 and k | n-2 with n >= k+2")
    if not 1 <= t <= k - 1:
        raise ValueError("double spider needs 1 <= t <= k-1")
    leg = (n - 2) // k
    edges = [(0, 1)]
    for i in range(k):
        first = 2 + i * leg
        edges += path_edges([0 if i < t else 1, *range(first, first + leg)])
    return Graph.from_edges(n, edges)


def tadpole_l(n: int, g: int) -> Graph:
    """Cycle 0..g-1 plus the path g..n-1 joined to cycle vertex 0 by an edge.

    Unicyclic with girth g, exactly one pendant vertex (n-1) and n-g cut
    vertices.  n = g is rejected: the family always carries a path part.
    """
    if not 3 <= g <= n - 1:
        raise ValueError("tadpole (path form) needs 3 <= g <= n-1")
    return Graph.from_edges(n, cycle_edges(range(g)) + path_edges([0, *range(g, n)]))


def tadpole_p(n: int, g: int) -> Graph:
    """Cycle 0..g-1 with n-g pendant vertices g..n-1 attached to vertex 0."""
    if not 3 <= g <= n - 1:
        raise ValueError("tadpole (pendant form) needs 3 <= g <= n-1")
    return Graph.from_edges(n, cycle_edges(range(g)) + [(0, v) for v in range(g, n)])


def dumbbell(m1: int, m2: int, n: int) -> Graph:
    """Two cycles joined at a vertex (n = m1+m2-1) or by a path.

    Shared-vertex case: both cycles pass through vertex 0, the first on
    0..m1-1 and the second on 0, m1..m1+m2-2.  Otherwise the cycles are
    0..m1-1 and m1..m1+m2-1, connected by a path through the remaining
    vertices from cycle vertex 0 to cycle vertex m1.
    """
    if m1 < 3 or m2 < 3:
        raise ValueError("dumbbell needs m1, m2 >= 3")
    if n < m1 + m2 - 1:
        raise ValueError("dumbbell needs n >= m1 + m2 - 1")
    edges = cycle_edges(range(m1))
    if n == m1 + m2 - 1:
        return Graph.from_edges(n, edges + cycle_edges([0, *range(m1, n)]))
    edges += cycle_edges(range(m1, m1 + m2)) + path_edges([0, *range(m1 + m2, n), m1])
    return Graph.from_edges(n, edges)


def complete_with_paths(m: int, lengths: tuple[int, ...]) -> Graph:
    """Clique 0..m-1 with a path of lengths[i] vertices rooted at vertex i.

    lengths[i] counts the clique vertex itself, so lengths[i] = 1 adds
    nothing.  The result has sum(lengths) vertices and n-m cut vertices
    (for m = 2 it degenerates to the path P_n).
    """
    if m < 2:
        raise ValueError("complete-with-paths needs m >= 2")
    if len(lengths) != m:
        raise ValueError(f"expected {m} path lengths, got {len(lengths)}")
    if any(l < 1 for l in lengths):
        raise ValueError("path lengths must be >= 1")
    n = sum(lengths)
    edges, first = list(combinations(range(m), 2)), m
    for i, l in enumerate(lengths):
        edges += path_edges([i, *range(first, first + l - 1)])
        first += l - 1
    return Graph.from_edges(n, edges)


def kmn_balanced(n: int, s: int) -> Graph:
    """The balanced complete-with-paths graph on n vertices with s cut vertices.

    m = n-s clique vertices; path profiles differ by at most one, the
    longer paths first.
    """
    if not 0 <= s <= n - 2:
        raise ValueError("balanced complete-with-paths needs 0 <= s <= n-2")
    m = n - s
    q, r = divmod(n, m)
    lengths = tuple([q + 1] * r + [q] * (m - r))
    return complete_with_paths(m, lengths)


def complete_with_pendants(n: int, k: int) -> Graph:
    """Clique on n-k vertices with k pendants on clique vertex 0."""
    if not 0 <= k <= n - 3:
        raise ValueError("complete-with-pendants needs 0 <= k <= n-3")
    m = n - k
    return Graph.from_edges(n, list(combinations(range(m), 2)) + [(0, v) for v in range(m, n)])


# tag -> (parameter count, builder over the parameter tuple); complete_with_paths
# takes m followed by m path lengths.  The builders look each constructor up by
# name when called, so wrappers installed on the module's names (the traced
# benchmark run) also see FamilySpec.build.
_FAMILIES = {
    "path": (1, lambda p: path(*p)),
    "cycle": (1, lambda p: cycle(*p)),
    "complete": (1, lambda p: complete(*p)),
    "star": (1, lambda p: star(*p)),
    "double_broom": (3, lambda p: double_broom(*p)),
    "spider_balanced": (2, lambda p: spider_balanced(*p)),
    "double_spider": (3, lambda p: double_spider(*p)),
    "tadpole_l": (2, lambda p: tadpole_l(*p)),
    "tadpole_p": (2, lambda p: tadpole_p(*p)),
    "dumbbell": (3, lambda p: dumbbell(*p)),
    "complete_with_paths": (None, lambda p: complete_with_paths(p[0], tuple(p[1:]))),
    "complete_with_pendants": (2, lambda p: complete_with_pendants(*p)),
}


class _FamilyFields(NamedTuple):
    tag: str
    params: tuple[int, ...]


class FamilySpec(_FamilyFields):
    """Tagged parameter record naming one family instance."""

    __slots__ = ()

    def __new__(cls, tag: str, params: tuple[int, ...]) -> FamilySpec:
        if tag not in _FAMILIES:
            raise ValueError(f"unknown family tag {tag!r}")
        arity = _FAMILIES[tag][0]
        if arity is None:
            if len(params) < 3 or params[0] != len(params) - 1:
                raise ValueError(
                    "complete_with_paths takes m followed by m path lengths"
                )
        elif len(params) != arity:
            raise ValueError(f"{tag} takes {arity} parameters, got {len(params)}")
        return super().__new__(cls, tag, params)

    def build(self) -> Graph:
        return _FAMILIES[self.tag][1](self.params)

    def __str__(self) -> str:
        return f"{self.tag}({','.join(map(str, self.params))})"


def parse_family(tokens: list[str]) -> FamilySpec:
    """Parse CLI-style tokens like ['dumbbell', '3', '3', '7']."""
    if not tokens:
        raise ValueError("missing family name")
    tag = tokens[0].replace("-", "_")
    try:
        params = tuple(int(t) for t in tokens[1:])
    except ValueError as exc:
        raise ValueError(f"family parameters must be integers: {exc}") from None
    return FamilySpec(tag, params)
