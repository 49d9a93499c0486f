"""BFS and DFS kernels against networkx, an implementation independent of totecc.

Covers every connected graph up to n = 7 and seeded random connected
graphs up to n = 60, sparse and dense.
"""

import math
import random

import pytest

from conftest import connected_graph_list, random_connected_graph
from totecc.graph import (
    _sweep,
    blocks,
    cut_vertices,
    eccentricities,
    eccentricity,
    girth,
    wiener_index,
)

nx = pytest.importorskip("networkx")


def _random_graphs():
    rng = random.Random(20201202)
    out = []
    for n in (8, 9, 10, 12, 15, 20, 25, 30, 40, 50, 60):
        for extra in (0, 1, n // 4, n, 3 * n):
            out.append(random_connected_graph(rng, n, min(extra, n * (n - 1) // 2 - (n - 1))))
    return out


SMALL = [g for n in range(1, 8) for g in connected_graph_list(n)]
RANDOM = _random_graphs()


def _to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _check(g):
    h = _to_nx(g)
    ecc = nx.eccentricity(h)
    assert eccentricities(g) == _sweep(g.adj) == tuple(ecc[v] for v in range(g.n))
    assert eccentricity(g, g.n - 1) == ecc[g.n - 1]
    assert wiener_index(g) == nx.wiener_index(h)
    assert cut_vertices(g) == frozenset(nx.articulation_points(h))
    expected = {frozenset(c) for c in nx.biconnected_components(h)}
    d = blocks(g)
    assert len(d.blocks) == len(expected) and set(d.blocks) == expected
    assert d.cut_vertices == cut_vertices(g)
    nx_girth = nx.girth(h)
    assert girth(g) == (None if nx_girth == math.inf else nx_girth)


def test_every_connected_graph_to_n7():
    assert len(SMALL) == 1 + 1 + 2 + 6 + 21 + 112 + 853
    for g in SMALL:
        _check(g)


@pytest.mark.parametrize("index", range(len(RANDOM)))
def test_random_connected_graphs(index):
    _check(RANDOM[index])
