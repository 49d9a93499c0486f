"""Property tests on random graphs drawn by hypothesis, connected or not."""

import pytest

from totecc.graph import DisconnectedGraphError, Graph, _sweep, eccentricities, eccentricity

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
    chosen = _or_disconnected(lambda: eccentricities(g))
    per_source = _or_disconnected(lambda: tuple(eccentricity(g, v) for v in range(g.n)))
    by_nx = _or_disconnected(lambda: tuple(e for _, e in sorted(nx.eccentricity(h).items())))
    hypothesis.event("disconnected" if sweep == "disconnected" else "connected")
    assert sweep == chosen == per_source == by_nx
