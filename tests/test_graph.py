"""Exact invariants on small graphs, checked against hand-derived values."""

import random
from fractions import Fraction

import pytest

from conftest import connected_graph_list
from oracles import block_graph, cut_vertices_by_deletion, distance_matrix, relabel_by_positions
from totecc import families
from totecc import graph as graph_module
from totecc.canon import canonical_form
from totecc.graph import (
    UNREACHABLE,
    DisconnectedGraphError,
    Graph,
    _BYTE_BITS,
    _HIGH_BYTE_BITS,
    _bounded,
    _sweep,
    average_eccentricity,
    bfs_distances,
    bfs_levels,
    bits,
    blocks,
    center,
    cut_vertices,
    cycle_edges,
    diameter,
    eccentricities,
    eccentricity,
    girth,
    is_connected,
    pendant_vertices,
    radius,
    total_eccentricity,
    wiener_index,
    without_edge,
)

# Figure-pair fixture: 7-edge graph vs bowtie, Wiener and total eccentricity
# pull in opposite directions (W 13 vs 14, eps 10 vs 9).
G1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 2), (1, 3)])
G2 = Graph.from_edges(5, [(2, 0), (0, 1), (1, 2), (2, 3), (3, 4), (4, 2)])

TWO_COMPONENTS = Graph.from_edges(4, [(0, 1), (2, 3)])


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            Graph(2, (2, 0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph(0, ())
        with pytest.raises(ValueError):
            families.path(201)

    @pytest.mark.parametrize(
        ("n", "edges", "message"),
        [
            (0, [], "vertex count must be in 1..200, got 0"),
            (201, [], "vertex count must be in 1..200, got 201"),
            (-1, [], "vertex count must be in 1..200, got -1"),
            # every edge is checked before the vertex count
            (0, [(0, 1)], "edge (0,1) out of range for n=0"),
            (201, [(0, 201)], "edge (0,201) out of range for n=201"),
            (201, [(5, 5)], "self-loop at vertex 5"),
            (3, [(0, 3)], "edge (0,3) out of range for n=3"),
            (3, [(-1, 2)], "edge (-1,2) out of range for n=3"),
            (3, [(1, 1)], "self-loop at vertex 1"),
            # the first bad edge is the one reported
            (3, [(0, 1), (2, 2), (0, 3)], "self-loop at vertex 2"),
            (3, [(0, 1), (0, 3), (2, 2)], "edge (0,3) out of range for n=3"),
        ],
    )
    def test_from_edges_errors(self, n, edges, message):
        with pytest.raises(ValueError) as info:
            Graph.from_edges(n, edges)
        assert str(info.value) == message

    def test_from_edges_equals_the_validated_constructor(self):
        # from_edges skips __post_init__; Graph(n, rows) runs every check on the same rows
        built = [
            families.path(1), families.path(200), families.cycle(3), families.cycle(200),
            families.complete(1), families.complete(40), families.star(2), families.star(200),
            families.double_broom(1, 2, 197), families.double_broom(3, 4, 1),
            families.spider_balanced(200, 3), families.double_spider(62, 3, 1),
            families.tadpole_l(200, 3), families.tadpole_p(200, 100), families.dumbbell(3, 3, 200),
            families.dumbbell(101, 100, 200), families.complete_with_paths(40, (81, 81) + (1,) * 38),
            families.kmn_balanced(200, 2), families.kmn_balanced(60, 40),
            families.complete_with_pendants(200, 3),
        ]
        rng = random.Random(25)
        for _ in range(300):
            n = rng.randrange(1, 41)
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(3 * n))]
            built.append(Graph.from_edges(n, [(u, v) for u, v in pairs if u != v]))
        for g in built:
            assert Graph(g.n, g.adj) == g
            assert Graph.from_edges(g.n, g.edges()) == g

    def test_edges_roundtrip(self):
        g = families.dumbbell(3, 4, 9)
        assert Graph.from_edges(g.n, g.edges()) == g

    def test_relabel_identity(self):
        g = families.star(5)
        assert g.relabel((0, 1, 2, 3, 4)) == g

    def test_relabel_matches_position_oracle(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randrange(1, 31)
            p = rng.random()
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = Graph.from_edges(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            assert g.relabel(tuple(perm)) == relabel_by_positions(g, tuple(perm)), (g, perm)

    @pytest.mark.parametrize("perm", [(0, 0, 1), (0, 1), (0, 1, 2, 3), (2, 1, 5)])
    def test_relabel_rejects_a_non_permutation(self, perm):
        # a repeated vertex, too few entries, too many, an id past n - 1
        with pytest.raises(ValueError, match="^relabel needs a permutation of 0..2, got "):
            families.path(3).relabel(perm)


class TestBfsLevels:
    def test_path_levels(self):
        assert list(bfs_levels(families.path(4).adj, 1)) == [0b0010, 0b0101, 0b1000]

    def test_single_vertex(self):
        assert list(bfs_levels(Graph(1, (0,)).adj, 0)) == [1]

    def test_stops_at_component(self):
        assert list(bfs_levels(TWO_COMPONENTS.adj, 2)) == [0b0100, 0b1000]

    def test_banned_vertices_never_entered(self):
        # deleting the middle of P5 leaves vertex 0 with only its neighbor
        assert list(bfs_levels(families.path(5).adj, 0, banned=1 << 2)) == [0b1, 0b10]
        # a banned vertex off the shortest routes only lengthens the cycle walk
        c6 = families.cycle(6)
        assert list(bfs_levels(c6.adj, 0, banned=1 << 5)) == [1 << k for k in range(5)]

    def test_removed_edge(self):
        c5 = families.cycle(5)
        rows = without_edge(c5.adj, 0, 1)
        assert c5.adj == families.cycle(5).adj  # the graph's rows are untouched
        levels = list(bfs_levels(rows, 0))
        assert levels == [0b00001, 0b10000, 0b01000, 0b00100, 0b00010]
        # the removed edge is a bridge in P3: its far side is unreachable
        assert list(bfs_levels(without_edge(families.path(3).adj, 1, 2), 0)) == [0b1, 0b10]

    def test_levels_are_distance_classes(self):
        for g in (G1, families.dumbbell(3, 4, 9), families.spider_balanced(8, 3)):
            for v in range(g.n):
                dist = bfs_distances(g, v).dist
                for d, level in enumerate(bfs_levels(g.adj, v)):
                    assert level == sum(1 << u for u in range(g.n) if dist[u] == d)


class TestDistances:
    def test_path_distances(self):
        assert bfs_distances(families.path(5), 0).dist == (0, 1, 2, 3, 4)

    def test_complete_distances(self):
        assert bfs_distances(families.complete(4), 2).dist == (1, 1, 0, 1)

    def test_disconnected_sentinel(self):
        row = bfs_distances(TWO_COMPONENTS, 0)
        assert row.dist == (0, 1, UNREACHABLE, UNREACHABLE)

    def test_source_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_distances(families.path(3), 3)

    def test_matrix_agrees_with_single_source(self):
        for g in (G1, families.dumbbell(3, 3, 7), families.spider_balanced(8, 3)):
            m = distance_matrix(g)
            for v in range(g.n):
                assert m[v] == bfs_distances(g, v).dist


class TestEccentricity:
    def test_cycle(self):
        g = families.cycle(6)
        assert all(eccentricity(g, v) == 3 for v in range(6))

    def test_star(self):
        g = families.star(5)
        assert eccentricity(g, 0) == 1
        assert eccentricity(g, 3) == 2

    def test_tadpole_pendant(self):
        # hand BFS on the 5-vertex tadpole: pendant end reaches depth 3
        assert eccentricity(families.tadpole_l(5, 3), 4) == 3

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            eccentricity(families.path(3), 3)
        with pytest.raises(ValueError, match="out of range"):
            eccentricity(families.path(3), -1)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            eccentricity(TWO_COMPONENTS, 0)
        with pytest.raises(DisconnectedGraphError):
            eccentricities(TWO_COMPONENTS)
        with pytest.raises(DisconnectedGraphError):
            total_eccentricity(TWO_COMPONENTS)
        with pytest.raises(DisconnectedGraphError):
            wiener_index(TWO_COMPONENTS)


def _clique_with_path(m, length):
    """K_m with a path of ``length`` vertices rooted at clique vertex 0."""
    return families.complete_with_paths(m, (length,) + (1,) * (m - 1))


SPARSE_DEEP = {
    "path": families.path(200),
    "spider_balanced": families.spider_balanced(200, 3),
    "cycle": families.cycle(200),
    "tadpole_l": families.tadpole_l(200, 3),
    "dumbbell": families.dumbbell(3, 3, 200),
    "double_broom": families.double_broom(1, 2, 197),
    "tadpole_p": families.tadpole_p(200, 100),
}
# Dense and deep at once: the sweep would take about n rounds of 2m ORs.
DENSE_DEEP = {
    "clique100-path101": _clique_with_path(100, 101),
    "clique50-path151": _clique_with_path(50, 151),
    "clique150-path51": _clique_with_path(150, 51),
    "clique20-path21": _clique_with_path(20, 21),
}
# Dense or deep, not both.
DENSE_OR_DEEP = {
    "complete": families.complete(200),
    "kmn_balanced": families.kmn_balanced(200, 2),
    "clique20-path181": _clique_with_path(20, 181),
    "clique40-paths81": families.complete_with_paths(40, (81, 81) + (1,) * 38),
}
LARGE = {**SPARSE_DEEP, **DENSE_DEEP, **DENSE_OR_DEEP}
# Where bounding does not pay: ecc(0) leaves complete, tadpole_p and
# spider_balanced fewer than three BFS, and cycle and kmn_balanced stall at
# BFS 3 with more vertices left than the sweep costs in BFS, since every
# cycle vertex and every clique vertex is central, and a central vertex's
# bounds meet only at its own BFS.  clique40-paths81 stalls at BFS 5 on its
# 36 central clique vertices, but those cost less than its deep, dense
# sweep.  Every other graph in LARGE is bounded to the end with no call to
# the sweep.
FALL_BACK = {"cycle", "tadpole_p", "complete", "kmn_balanced", "spider_balanced"}
# The BFS that eccentricities runs before it returns or hands over: path-like
# graphs are bounded to the end in a few, shallow ones hand over after
# vertex 0's, and stalled ones after the pair that stalls.
ROUTE_BFS = {
    "path": 5,
    "dumbbell": 5,
    "tadpole_l": 3,
    "double_broom": 4,
    "spider_balanced": 1,
    "cycle": 3,
    "tadpole_p": 1,
    "kmn_balanced": 3,
    "clique40-paths81": 41,
}
DISCONNECTED = {
    "isolated": Graph.from_edges(3, [(0, 1)]),
    "two-components": TWO_COMPONENTS,
    # the path's balls keep growing for 99 rounds before they stall
    "path100-plus-isolated": Graph.from_edges(101, [(i, i + 1) for i in range(99)]),
    # every vertex has degree 2, so past round 3 the sweep ORs only pairs
    "two-cycles": Graph.from_edges(200, cycle_edges(range(100)) + cycle_edges(range(100, 200))),
    "two-no-edge": Graph(2, (0, 0)),
    # dense enough that eccentricities runs the BFS from vertex 0 first
    "clique50-plus-isolated": Graph.from_edges(
        51, [(u, v) for u in range(50) for v in range(u + 1, 50)]
    ),
    # deep enough for the same, and the sweep would stall only after 197 rounds
    "path199-plus-isolated": Graph.from_edges(200, [(i, i + 1) for i in range(198)]),
}
PROBED = ["clique50-plus-isolated", "path199-plus-isolated"]


def _count_bfs(monkeypatch):
    """The list to which each graph.bfs_levels call appends its source from now on."""
    sources = []
    monkeypatch.setattr(
        graph_module, "bfs_levels", lambda adj, w, banned=0: sources.append(w) or bfs_levels(adj, w, banned)
    )
    return sources


class TestEccentricitiesSweep:
    """Both kernels against per-source BFS, where the sweep has many rounds."""

    @pytest.mark.parametrize("g", LARGE.values(), ids=LARGE)
    def test_matches_per_source_bfs(self, g):
        # n = 200: the sweep takes its degree-2 vertices, where there are any, as pairs
        per_source = tuple(eccentricity(g, v) for v in range(g.n))
        assert _sweep(g.adj) == per_source
        assert _bounded(g.adj) == per_source
        assert eccentricities(g) == per_source

    @pytest.mark.parametrize("name", LARGE, ids=LARGE)
    def test_route(self, name, monkeypatch):
        g = LARGE[name]
        calls = []
        monkeypatch.setattr(graph_module, "_sweep", lambda adj: calls.append(adj) or _sweep(adj))
        sources = _count_bfs(monkeypatch)
        eccentricities(g)
        assert calls == ([g.adj] if name in FALL_BACK else [])
        if name in ROUTE_BFS:
            assert len(sources) == ROUTE_BFS[name]

    @pytest.mark.parametrize("name", ["path", "dumbbell", "tadpole_l", "spider_balanced", "double_broom"])
    def test_path_like_graphs_bound_in_few_bfs(self, name, monkeypatch):
        # spider_balanced's route sweeps after ecc(0), but bounding alone needs three BFS
        sources = _count_bfs(monkeypatch)
        _bounded(LARGE[name].adj)
        assert len(sources) <= 6

    def test_small_graphs_skip_the_probe(self, monkeypatch):
        # Even K12 leaves bounding too little budget to run the BFS from vertex 0.
        calls = []
        monkeypatch.setattr(graph_module, "_sweep", lambda adj: calls.append("sweep") or _sweep(adj))
        monkeypatch.setattr(graph_module, "_bounded", lambda *args: calls.append("bounded"))
        small = [families.complete(12), families.path(12), families.cycle(12), families.star(12)]
        for g in small + [g for n in range(1, 8) for g in connected_graph_list(n)]:
            calls.clear()
            eccentricities(g)
            assert calls == ["sweep"]

    def test_small_graphs_count_no_edges(self, monkeypatch):
        # Even K13's edge count leaves the route at the sweep, so graphs with
        # n <= 13 go there before any row is summed; K14 is the first to count.
        counted = []

        def edge_count(g):
            counted.append(g.n)
            return sum(row.bit_count() for row in g.adj) // 2

        monkeypatch.setattr(Graph, "edge_count", property(edge_count))
        small = [families.complete(13)] + [g for n in range(1, 9) for g in connected_graph_list(n)]
        for g in small:
            assert eccentricities(g) == _sweep(g.adj), g
        assert counted == []
        eccentricities(families.complete(14))
        assert counted == [14]

    def test_byte_table_lists_each_bytes_bits(self):
        assert len(_BYTE_BITS) == 256
        assert all(_BYTE_BITS[r] == tuple(bits(r)) for r in range(256))

    def test_sweep_from_byte_table_matches_per_source_bfs(self):
        # graphs with n <= 8 take their neighbour lists from _BYTE_BITS
        for n in range(1, 8):
            for g in connected_graph_list(n):
                assert _sweep(g.adj) == tuple(eccentricity(g, v) for v in range(g.n)), g
        for g in (families.complete(8), families.path(8), families.cycle(8), families.star(8)):
            assert _sweep(g.adj) == tuple(eccentricity(g, v) for v in range(g.n)), g

    def test_two_byte_table_lists_each_rows_bits(self):
        assert len(_HIGH_BYTE_BITS) == 256
        assert all(_BYTE_BITS[r & 255] + _HIGH_BYTE_BITS[r >> 8] == tuple(bits(r)) for r in range(1 << 16))

    def test_sweep_from_two_byte_table_matches_per_source_bfs(self):
        # graphs with 9 <= n <= 16 take their neighbour lists from both byte tables
        rng = random.Random(16)
        graphs = [f(n) for n in range(9, 17) for f in (families.complete, families.path, families.cycle, families.star)]
        for _ in range(400):
            n = rng.randrange(9, 17)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            edges += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.random() / 3]
            graphs.append(Graph.from_edges(n, edges))
        for g in graphs:
            assert _sweep(g.adj) == tuple(eccentricity(g, v) for v in range(g.n)), g
        for n in range(9, 17):
            with pytest.raises(DisconnectedGraphError):
                _sweep(Graph.from_edges(n, cycle_edges(range(n - 1))).adj)

    def test_small_orders(self):
        assert eccentricities(Graph(1, (0,))) == (0,)
        assert eccentricities(families.path(2)) == (1, 1)
        assert eccentricities(families.path(3)) == (2, 1, 2)
        assert _bounded(Graph(1, (0,)).adj) == (0,)
        assert _bounded(families.path(3).adj) == (2, 1, 2)

    @pytest.mark.parametrize("g", DISCONNECTED.values(), ids=DISCONNECTED)
    def test_disconnected_rejected(self, g):
        with pytest.raises(DisconnectedGraphError):
            _sweep(g.adj)
        with pytest.raises(DisconnectedGraphError):
            _bounded(g.adj)
        with pytest.raises(DisconnectedGraphError):
            eccentricities(g)

    @pytest.mark.parametrize("g", [DISCONNECTED[k] for k in PROBED], ids=PROBED)
    def test_probe_rejects_before_the_sweep(self, g, monkeypatch):
        monkeypatch.setattr(graph_module, "_sweep", lambda adj: pytest.fail("sweep ran"))
        with pytest.raises(DisconnectedGraphError):
            eccentricities(g)


class TestTotalsAndWiener:
    def test_figure_pair(self):
        assert (wiener_index(G1), total_eccentricity(G1)) == (13, 10)
        assert (wiener_index(G2), total_eccentricity(G2)) == (14, 9)

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 17])
    def test_complete_total(self, n):
        assert total_eccentricity(families.complete(n)) == n

    def test_single_vertex_total_is_zero(self):
        assert total_eccentricity(families.complete(1)) == 0

    def test_path5_total(self):
        assert total_eccentricity(families.path(5)) == 16  # 4+3+2+3+4

    def test_wiener_complete(self):
        assert wiener_index(families.complete(4)) == 6

    def test_wiener_path4(self):
        assert wiener_index(families.path(4)) == 10  # 1+1+1+2+2+3

    def test_average_exact(self):
        assert average_eccentricity(families.complete(9)) == 1
        assert average_eccentricity(families.cycle(6)) == 3
        assert average_eccentricity(families.path(5)) == Fraction(16, 5)


class TestDegreeBased:
    def test_star_pendants(self):
        assert pendant_vertices(families.star(5)) == frozenset({1, 2, 3, 4})

    def test_cycle_no_pendants(self):
        assert pendant_vertices(families.cycle(5)) == frozenset()

    def test_tadpole_one_pendant(self):
        assert pendant_vertices(families.tadpole_l(7, 3)) == frozenset({6})


class TestCutVertices:
    def test_path_internal(self):
        assert cut_vertices(families.path(5)) == frozenset({1, 2, 3})

    def test_cycle_none(self):
        assert cut_vertices(families.cycle(7)) == frozenset()

    def test_kmn(self):
        g = families.complete_with_paths(4, (2, 2, 1, 1))
        assert len(cut_vertices(g)) == 2
        assert cut_vertices(g) == cut_vertices_by_deletion(g)

    def test_single_vertex(self):
        assert cut_vertices(Graph(1, (0,))) == frozenset()

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            cut_vertices(TWO_COMPONENTS)
        with pytest.raises(DisconnectedGraphError):
            blocks(TWO_COMPONENTS)
        with pytest.raises(DisconnectedGraphError):
            cut_vertices_by_deletion(TWO_COMPONENTS)

    def test_oracle_agreement_enumerated(self):
        # full sweep to n=6 here; the n=7 sweep runs in acceptance
        for n in range(1, 7):
            for g in connected_graph_list(n):
                assert cut_vertices(g) == cut_vertices_by_deletion(g)


class TestBlocks:
    def test_dumbbell_blocks(self):
        d = blocks(families.dumbbell(3, 3, 7))
        assert len(d.blocks) == 4
        sizes = sorted(len(b) for b in d.blocks)
        assert sizes == [2, 2, 3, 3]
        assert canonical_form(block_graph(d)) == canonical_form(families.path(4))

    def test_complete_one_block(self):
        d = blocks(families.complete(6))
        assert len(d.blocks) == 1 and d.cut_vertices == frozenset()

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_path_blocks(self, n):
        d = blocks(families.path(n))
        assert len(d.blocks) == n - 1
        if n >= 3:
            assert canonical_form(block_graph(d)) == canonical_form(families.path(n - 1))

    def test_single_vertex(self):
        d = blocks(Graph(1, (0,)))
        assert d.blocks == () and block_graph(d) is None

    def test_edge_partition_and_cut_consistency(self):
        for n in range(2, 7):
            for g in connected_graph_list(n):
                d = blocks(g)
                seen = set()
                for b in d.blocks:
                    inner = [(u, v) for u, v in g.edges() if u in b and v in b]
                    assert not seen & set(inner)
                    seen.update(inner)
                assert seen == set(g.edges())
                assert d.cut_vertices == cut_vertices(g)
                assert (len(d.blocks) == 1) == (not d.cut_vertices)

    def test_extreme_block_pairs_are_pendant(self):
        # any two blocks at maximum block distance are both pendant blocks
        for n in range(3, 8):
            for g in connected_graph_list(n):
                d = blocks(g)
                if len(d.blocks) < 2:
                    continue
                dist = distance_matrix(g)
                def block_dist(a, b):
                    return min(dist[u][v] for u in a for v in b)
                pairs = [
                    (i, j)
                    for i in range(len(d.blocks))
                    for j in range(i + 1, len(d.blocks))
                ]
                far = max(block_dist(d.blocks[i], d.blocks[j]) for i, j in pairs)
                for i, j in pairs:
                    if block_dist(d.blocks[i], d.blocks[j]) == far:
                        for b in (d.blocks[i], d.blocks[j]):
                            assert len(b & d.cut_vertices) == 1


class TestMetricInvariants:
    def test_diameter_radius_center(self):
        g = families.path(7)
        assert diameter(g) == 6 and radius(g) == 3 and center(g) == frozenset({3})

    def test_radius_ecc_diameter_sandwich(self):
        for n in range(2, 7):
            for g in connected_graph_list(n):
                eccs = eccentricities(g)
                r, d = min(eccs), max(eccs)
                assert r == radius(g) and d == diameter(g)
                assert d <= 2 * r

    def test_tree_vertices_cut_or_pendant(self):
        for n in range(2, 8):
            for g in connected_graph_list(n):
                if g.edge_count == g.n - 1:
                    assert cut_vertices(g) | pendant_vertices(g) == frozenset(range(g.n))


class TestGirth:
    def test_tadpole(self):
        assert girth(families.tadpole_l(7, 3)) == 3
        assert girth(families.tadpole_l(9, 5)) == 5

    def test_tree_acyclic(self):
        assert girth(families.spider_balanced(7, 3)) is None

    def test_complete(self):
        assert girth(families.complete(5)) == 3

    def test_cycle(self):
        assert girth(families.cycle(9)) == 9

    def test_chorded_cycle(self):
        g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
        assert girth(g) == 4


def test_connectivity_predicate():
    assert is_connected(families.path(4))
    assert not is_connected(TWO_COMPONENTS)
