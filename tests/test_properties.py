"""Property tests on random graphs drawn by hypothesis, connected or not."""

import operator
import random
from itertools import combinations

import pytest

from conftest import attach_cycles, attach_paths, attach_tadpole, glue_relocate, random_connected_graph
from oracles import refine_reference
from totecc import graph as graph_module
from totecc import graph6, transforms
from totecc.canon import _refine, canonical_form
from totecc.graph import (
    DisconnectedGraphError,
    Graph,
    MAX_VERTICES,
    _chains,
    _degrees,
    _sweep,
    eccentricities,
    eccentricity,
    is_connected,
    total_eccentricity,
)

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def graphs(draw):
    """n <= 40 vertices: a random spanning tree or none, plus up to 2n random edges."""
    n = draw(st.integers(1, 40))
    edges = set()
    if draw(st.booleans()):
        edges.update((draw(st.integers(0, v - 1)), v) for v in range(1, n))
    vertex = st.integers(0, n - 1)
    edges.update(
        (u, v) for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)) if u != v
    )
    return Graph.from_edges(n, edges)


def _or_disconnected(compute):
    try:
        return compute()
    except (DisconnectedGraphError, nx.NetworkXError):
        return "disconnected"


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(graphs())
def test_eccentricities_match_per_source_and_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    sweep = _or_disconnected(lambda: _sweep(g.adj))
    chains = _or_disconnected(lambda: _chains(g.adj, _degrees(g.adj)))
    chosen = _or_disconnected(lambda: eccentricities(g))
    per_source = _or_disconnected(lambda: tuple(eccentricity(g, v) for v in range(g.n)))
    by_nx = _or_disconnected(lambda: tuple(e for _, e in sorted(nx.eccentricity(h).items())))
    hypothesis.event("disconnected" if sweep == "disconnected" else "connected")
    assert sweep == chains == chosen == per_source == by_nx


@st.composite
def long_graphs(draw):
    """80 <= n <= 200: a path, with or without its closing edge, plus up to 4 random chords.

    ``eccentricities`` sends most of these to the chain kernel, and the
    rest, whose chords cut the path into short chains, to the sweep.
    """
    n = draw(st.integers(80, 200))
    edges = {(v, v + 1) for v in range(n - 1)}
    if draw(st.booleans()):
        edges.add((0, n - 1))
    vertex = st.integers(0, n - 1)
    edges.update((u, v) for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=4)) if u != v)
    return Graph.from_edges(n, edges)


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(long_graphs())
def test_eccentricities_of_long_graphs_match_per_source(g):
    per_source = tuple(eccentricity(g, v) for v in range(g.n))
    hypothesis.event(_route_exit(g))
    assert eccentricities(g) == _sweep(g.adj) == _chains(g.adj, _degrees(g.adj)) == per_source


def _hub_cycle_paths(n, hub, cycle, paths):
    """Edges of a clique on 0..hub-1, a cycle of ``cycle`` vertices through
    vertex 0 (none below 3), and each (at, length) path hung on vertex ``at``;
    the cycle and the paths take new vertices in order, up to n - 1."""
    edges = set(combinations(range(hub), 2))
    placed = hub
    if cycle >= 3:
        ring = [0, *range(placed, placed + cycle - 1)]
        edges.update(zip(ring, ring[1:] + ring[:1]))
        placed += cycle - 1
    for at, length in paths:
        path = [at, *range(placed, placed + length)]
        edges.update(zip(path, path[1:]))
        placed += length
    if placed != n:
        raise ValueError(f"pieces place {placed} vertices, not {n}")
    return edges


@st.composite
def mid_graphs(draw):
    """13 <= n < 80: a hub clique, a cycle through it, pendant paths and chords, relabelled.

    ``eccentricities`` sends a long cycle or path with few hubs on it to the
    chain kernel and the rest to the sweep.  One edge in four draws is
    dropped, which may disconnect the graph.
    """
    n = draw(st.integers(13, 79))
    hub = draw(st.integers(1, n // 2 + 1))
    cycle = draw(st.one_of(st.just(0), st.integers(3, n - hub + 1)))
    placed = hub + max(cycle - 1, 0)
    paths = []
    while placed < n:
        length = draw(st.integers(1, min(12, n - placed)))
        paths.append((draw(st.integers(0, placed - 1)), length))
        placed += length
    edges = _hub_cycle_paths(n, hub, cycle, paths)
    vertex = st.integers(0, n - 1)
    edges.update((u, v) for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3)) if u != v)
    if draw(st.integers(0, 3)) == 0:
        edges.discard(draw(st.sampled_from(sorted(edges))))
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _route_exit(g):
    """Where ``eccentricities``' route leaves the connected graph g: the chain
    kernel or the sweep."""
    chained = []
    real_chains = graph_module._chains
    graph_module._chains = lambda adj, deg: chained.append(adj) or real_chains(adj, deg)
    try:
        eccentricities(g)
    finally:
        graph_module._chains = real_chains
    return "chains" if chained else "sweep"


# One graph per exit, in the strategy's unrelabelled form, so that every run reaches each.
MID_EXITS = {
    "sweep": Graph.from_edges(63, _hub_cycle_paths(63, 31, 33, [])),
    "chains": Graph.from_edges(40, _hub_cycle_paths(40, 1, 30, [(0, 10)])),
}


@pytest.mark.parametrize("exit_", MID_EXITS, ids=MID_EXITS)
def test_mid_graph_examples_take_their_exit(exit_):
    assert _route_exit(MID_EXITS[exit_]) == exit_


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(mid_graphs())
@hypothesis.example(MID_EXITS["sweep"])
@hypothesis.example(MID_EXITS["chains"])
def test_eccentricities_of_mid_graphs_match_per_source_and_networkx(g):
    per_source = _or_disconnected(lambda: tuple(eccentricity(g, v) for v in range(g.n)))
    by_nx = _or_disconnected(lambda: tuple(e for _, e in sorted(nx.eccentricity(_nx(g)).items())))
    hypothesis.event("disconnected" if per_source == "disconnected" else _route_exit(g))
    assert _or_disconnected(lambda: eccentricities(g)) == per_source == by_nx
    assert _or_disconnected(lambda: _sweep(g.adj)) == per_source
    assert _or_disconnected(lambda: _chains(g.adj, _degrees(g.adj))) == per_source


@st.composite
def chain_graphs(draw):
    """A skeleton on at most 8 hubs whose edges are chains of 0 to 40 vertices, relabelled.

    The skeleton is a random tree on the hubs plus up to four more links: a
    link from a hub to itself is a ring, and a repeated pair gives parallel
    chains.  Up to three dangling paths hang from any vertex, and n stays
    within MAX_VERTICES.  One draw in four drops an edge, which may
    disconnect the graph.
    """
    hubs = draw(st.integers(1, 8))
    hub = st.integers(0, hubs - 1)
    links = [(draw(st.integers(0, v - 1)), v) for v in range(1, hubs)]
    links += draw(st.lists(st.tuples(hub, hub), max_size=4))
    edges = set()
    placed = hubs
    for a, b in links:
        low, top = (2 if a == b else 0), min(40, MAX_VERTICES - placed)
        if top < low:
            continue
        length = draw(st.integers(low, top))
        chain = [a, *range(placed, placed + length), b]
        edges.update(zip(chain, chain[1:]))
        placed += length
    for _ in range(draw(st.integers(0, 3))):
        top = min(40, MAX_VERTICES - placed)
        if top < 1:
            break
        at = draw(st.integers(0, placed - 1))
        length = draw(st.integers(1, top))
        path = [at, *range(placed, placed + length)]
        edges.update(zip(path, path[1:]))
        placed += length
    if edges and draw(st.integers(0, 3)) == 0:
        edges.discard(draw(st.sampled_from(sorted(edges))))
    perm = draw(st.permutations(range(placed)))
    return Graph.from_edges(placed, [(perm[u], perm[v]) for u, v in edges])


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(chain_graphs())
def test_chains_match_per_source_and_networkx(g):
    per_source = _or_disconnected(lambda: tuple(eccentricity(g, v) for v in range(g.n)))
    hypothesis.event("disconnected" if per_source == "disconnected" else _route_exit(g))
    assert _or_disconnected(lambda: _chains(g.adj, _degrees(g.adj))) == per_source
    assert _or_disconnected(lambda: _sweep(g.adj)) == per_source
    assert _or_disconnected(lambda: eccentricities(g)) == per_source
    if g.n <= 60:
        assert per_source == _or_disconnected(lambda: tuple(e for _, e in sorted(nx.eccentricity(_nx(g)).items())))


@st.composite
def labelled_graphs(draw):
    """Any simple graph with 1 <= n <= 200, on either side of graph6's size prefixes.

    Orders up to 62 take the one-byte size, 63 and more the '~' form.  Each
    pair is an edge with one drawn probability, from empty to complete.
    """
    n = draw(st.one_of(st.integers(1, 62), st.integers(63, 200)))
    p = draw(st.sampled_from((0.0, 0.02, 0.3, 0.7, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])


@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.given(labelled_graphs())
def test_graph6_round_trips(g):
    text = graph6.encode(g)
    hypothesis.event("one-byte size" if g.n <= 62 else "'~' size")
    assert text.startswith("~") == (g.n >= 63)
    assert len(text) == (1 if g.n <= 62 else 4) + (g.n * (g.n - 1) // 2 + 5) // 6
    assert graph6.decode(text) == g
    assert graph6.encode(graph6.decode(text)) == text


@st.composite
def graph_pairs(draw):
    """A graph with 10 <= n <= 30, a relabelled copy, and a second graph on n vertices.

    The second graph is the copy itself, the copy with one edge moved
    (isomorphic to the first now and then), or a fresh draw of the same
    density.  Densities stay within 0.1..0.9, as canon slows down on many
    mutually twin vertices: at n = 30 it takes about 3 s on the empty and
    the complete graph, and up to 0.3 s a pair at density 0.05 or 0.95
    (CPython 3.11, one core).
    """
    n = draw(st.integers(10, 30))
    p = draw(st.sampled_from((0.1, 0.2, 0.5, 0.8, 0.9)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def sample():
        return Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])

    g = sample()
    perm = list(range(n))
    rng.shuffle(perm)
    copy = g.relabel(tuple(perm))
    kind = draw(st.sampled_from(("copy", "moved", "fresh")))
    other = copy
    if kind == "fresh":
        other = sample()
    elif kind == "moved" and 0 < copy.edge_count < n * (n - 1) // 2:
        edges = copy.edges()
        absent = [(u, v) for v in range(n) for u in range(v) if not copy.has_edge(u, v)]
        edges.remove(rng.choice(edges))
        other = Graph.from_edges(n, edges + [rng.choice(absent)])
    hypothesis.event(kind)
    return g, copy, other


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _nx_isomorphic(g, h):
    """networkx's answer, on the complements when g is dense: VF2 stalls on dense graphs."""
    a, b = _nx(g), _nx(h)
    if 4 * g.edge_count > g.n * (g.n - 1):
        a, b = nx.complement(a), nx.complement(b)
    return nx.is_isomorphic(a, b)


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(graph_pairs())
def test_canonical_form_is_invariant_and_exact(pair):
    g, copy, other = pair
    form = canonical_form(g)
    assert canonical_form(copy) == form
    isomorphic = _nx_isomorphic(g, other)
    hypothesis.event("isomorphic" if isomorphic else "not isomorphic")
    assert (canonical_form(other) == form) == isomorphic


@st.composite
def refinements(draw):
    """A graph with n <= 24, an ordered partition of its vertices and splitters.

    The partition is discrete, the unit partition or a random one; each
    splitter is a singleton, a cell, the whole vertex set or any nonempty
    mask, so the splitters need not be unions of cells.
    """
    n = draw(st.integers(1, 24))
    p = draw(st.sampled_from((0.0, 0.1, 0.3, 0.5, 0.8, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
    order = list(range(n))
    rng.shuffle(order)
    kind = draw(st.sampled_from(("discrete", "unit", "random")))
    hypothesis.event(f"{kind} partition")
    if kind == "discrete":
        cuts = list(range(1, n))
    elif kind == "unit":
        cuts = []
    else:
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    cells = [sum(1 << v for v in order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    full = (1 << n) - 1
    splitters = [
        draw(
            st.one_of(
                st.builds(lambda v: 1 << v, st.integers(0, n - 1)),
                st.sampled_from(cells),
                st.just(full),
                st.integers(1, full),
            )
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return g.adj, cells, splitters


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(refinements())
def test_refine_matches_reference(case):
    adj, cells, splitters = case
    hypothesis.event("singleton first" if splitters[0].bit_count() == 1 else "wider first")
    assert _refine(adj, list(cells), splitters) == refine_reference(adj, cells, splitters)


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(refinements(), st.integers(1, 3))
def test_stopped_refinement_returns_the_last_cells_seen(case, passes):
    # stopped after the given number of splitting passes (or at the end, if
    # fewer split); the splitters passed in are never written
    adj, cells, splitters = case
    whole = _refine(adj, list(cells), list(splitters))
    seen = []

    def stop(partition):
        seen.append(list(partition))
        return len(seen) == passes

    given = list(splitters)
    stopped = _refine(adj, list(cells), given, stop)
    assert given == splitters
    # asked only after passes that split a cell, each time with more cells
    sizes = [len(cells)] + [len(p) for p in seen]
    assert sizes == sorted(set(sizes))
    if len(seen) < passes:
        hypothesis.event("ran to the end")
        assert stopped == whole
    else:
        hypothesis.event("stopped")
        assert stopped == seen[-1]


@st.composite
def rewrite_inputs(draw):
    """A graph with n <= 12 from one of the conftest builders, on a random base of 1 to 4 vertices.

    Paths on a one-vertex base make a path, which has balance sites; two
    paths give graft sites, two cycles merge and block-to-cycle sites, a
    tadpole of girth >= 4 shrink sites, and the glued graph relocation
    sites.  Every graph has vertex pairs to join.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = random_connected_graph(rng, rng.randrange(1, 5), rng.randrange(0, 3))
    hub = rng.randrange(base.n)
    builder = draw(st.sampled_from(("paths", "cycles", "tadpole", "glued")))
    hypothesis.event(builder)
    if builder == "paths":
        k = rng.randrange(1, 4)
        return attach_paths(base, hub, k, rng.randrange(k, 5))[0]
    if builder == "cycles":
        return attach_cycles(base, hub, rng.randrange(3, 6), rng.randrange(3, 6))[0]
    if builder == "tadpole":
        girth = rng.randrange(3, 7)
        return attach_tadpole(base, hub, girth + rng.randrange(1, 3), girth)[0]
    return glue_relocate(rng.randrange(2, 5), rng.randrange(2, 5), rng.randrange(2, 5), rng)[0]


# (sites, rewrite, how the total after compares with the total before),
# as the transforms module docstring states each contract.
_CONTRACTS = (
    (transforms.graft_sites, transforms.graft_edge, operator.gt),
    (transforms.relocate_sites, transforms.relocate_path, operator.gt),
    (transforms.block_cycle_sites, transforms.block_to_cycle, operator.ge),
    (transforms.merge_sites, transforms.merge_cycles, operator.ge),
    (transforms.balance_sites, transforms.balance_paths, operator.le),
    (transforms.shrink_sites, transforms.shrink_girth_to_3, operator.gt),
)


@hypothesis.settings(max_examples=250, deadline=None, database=None)
@hypothesis.given(rewrite_inputs())
def test_rewrites_keep_their_contracts(g):
    total = total_eccentricity(g)
    for sites, rewrite, moves in _CONTRACTS:
        listed = sites(g)
        if listed:
            hypothesis.event(f"{rewrite.__name__} sites")
        for site in listed:
            out = rewrite(g, site)
            assert out.n == g.n and is_connected(out), (g, site)
            assert moves(total_eccentricity(out), total), (g, site)
    eccs = eccentricities(g)
    for v in range(g.n):
        for u in range(v):
            if not g.has_edge(u, v):
                out = transforms.add_edge(g, u, v)
                assert out.n == g.n and is_connected(out)
                assert all(a <= b for a, b in zip(eccentricities(out), eccs)), (g, u, v)
