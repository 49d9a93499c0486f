"""Canonical labeling: exactness, orbit correctness, permutation invariance."""

import importlib
import itertools
import random

import pytest

from oracles import labeled_graphs, leaf_code, refine_reference
from totecc import families
from totecc.canon import (
    CanonResult,
    _refine,
    _UnionFind,
    automorphism_orbits,
    canon,
    canonical_form,
    canonical_graph,
)
from totecc.enumeration import connected_graph_list, connected_graphs
from totecc.graph import Graph, bits, is_connected

# ``totecc.canon`` names the function on the package, so fetch the module.
canon_module = importlib.import_module("totecc.canon")


def _shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(tuple(perm))


TEST_GRAPHS = [
    families.path(7),
    families.cycle(9),
    families.complete(6),
    families.star(8),
    families.dumbbell(3, 4, 10),
    families.tadpole_l(8, 4),
    families.spider_balanced(9, 4),
    families.complete_with_paths(3, (3, 2, 2)),
    families.double_spider(10, 4, 2),
]


def test_invariant_under_100_random_permutations():
    rng = random.Random(2024)
    for g in TEST_GRAPHS:
        expected = canonical_form(g)
        for _ in range(100):
            assert canonical_form(_shuffled(g, rng)) == expected


def test_distinguishes_path_from_star():
    assert canonical_form(families.path(4)) != canonical_form(families.star(4))


def test_all_labeled_paws_share_one_form():
    # connected, 4 edges, degree multiset (1,2,2,3) pins the triangle+pendant
    paws = [
        g
        for g in labeled_graphs(4)
        if g.edge_count == 4
        and is_connected(g)
        and sorted(g.degree(v) for v in range(4)) == [1, 2, 2, 3]
    ]
    assert len(paws) == 12  # 4!/|Aut| = 24/2
    assert len({canonical_form(g) for g in paws}) == 1


def test_forms_separate_all_classes():
    for n in range(1, 7):
        forms = [canonical_form(g) for g in connected_graph_list(n)]
        assert len(set(forms)) == len(forms)


def _brute_orbits(g: Graph) -> tuple[int, ...]:
    n = g.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for perm in itertools.permutations(range(n)):
        if all(
            (g.adj[u] >> v & 1) == (g.adj[perm[u]] >> perm[v] & 1)
            for u in range(n)
            for v in range(n)
        ):
            for v in range(n):
                a, b = find(v), find(perm[v])
                if a != b:
                    parent[max(a, b)] = min(a, b)
    return tuple(find(v) for v in range(n))


def test_orbits_match_brute_force():
    for n in range(1, 6):
        for g in connected_graph_list(n):
            assert canon(g).orbits == _brute_orbits(g)
    rng = random.Random(99)
    for g in rng.sample(list(connected_graph_list(6)), 30):
        assert canon(g).orbits == _brute_orbits(g)


def test_generators_are_automorphisms():
    for g in TEST_GRAPHS:
        for gamma in canon(g).generators:
            assert g.relabel(gamma) == g or all(
                (g.adj[u] >> v & 1) == (g.adj[gamma[u]] >> gamma[v] & 1)
                for u in range(g.n)
                for v in range(g.n)
            )


def test_canonical_graph_is_stable():
    rng = random.Random(5)
    for g in TEST_GRAPHS:
        cg = canonical_graph(g)
        assert canonical_form(cg) == canonical_form(g)
        assert canonical_graph(_shuffled(g, rng)) == cg


def test_vertex_transitive_orbits():
    assert set(automorphism_orbits(families.cycle(8))) == {0}
    assert set(automorphism_orbits(families.complete(7))) == {0}


def test_size_cap():
    with pytest.raises(ValueError):
        canonical_form(families.path(65))


def test_leaf_rows_order_as_their_byte_code():
    # canon compares leaves as row tuples and packs the greatest into the
    # form; the oracle byte code (identity perm, so the rows as they are)
    # orders every pair the same way
    rng = random.Random(31)
    for _ in range(1000):
        n = rng.randrange(1, 65)
        nbytes = (n + 7) // 8
        a = tuple(rng.getrandbits(n) for _ in range(n))
        # share a random prefix, so that most pairs tie for a while
        cut = rng.randrange(n + 1)
        b = a[:cut] + tuple(rng.getrandbits(n) for _ in range(n - cut))
        ident = tuple(range(n))
        code_a, code_b = leaf_code(n, a, ident, nbytes), leaf_code(n, b, ident, nbytes)
        assert (a < b, a == b, a > b) == (code_a < code_b, code_a == code_b, code_a > code_b)


def test_no_generator_is_the_identity():
    graphs = [g for n in range(1, 9) for g in connected_graph_list(n)]
    graphs += [families.complete(n) for n in range(1, 12)]
    graphs += [families.cycle(n) for n in range(3, 25)]
    graphs += [families.star(n) for n in range(2, 16)]
    found = 0
    for g in graphs:
        for gamma in canon(g).generators:
            assert gamma != tuple(range(g.n)), g
            found += 1
    assert found > 10000


def canon_rebuild_per_sibling(g: Graph) -> CanonResult:
    """canon as it was before the per-node union-find: the oracle for it.

    For each sibling after the first, the orbit test builds a fresh
    union-find over every generator found so far that fixes the path.
    """
    n = g.n
    adj = g.adj
    nbytes = (n + 7) // 8
    best_code = best_perm = None
    gens = []
    uf = _UnionFind(n)

    def search(cells, path):
        nonlocal best_code, best_perm
        if len(cells) == n:
            perm = tuple(cell.bit_length() - 1 for cell in cells)
            code = leaf_code(n, adj, perm, nbytes)
            if best_code is None or code > best_code:
                best_code, best_perm = code, perm
            elif code == best_code:
                gamma = [0] * n
                for bp, p in zip(best_perm, perm):
                    gamma[bp] = p
                if any(gamma[v] != v for v in range(n)):
                    gens.append(tuple(gamma))
                    for v in range(n):
                        uf.union(v, gamma[v])
            return
        target_idx, target_size = -1, n + 1
        for i, cell in enumerate(cells):
            if 1 < cell.bit_count() < target_size:
                target_idx, target_size = i, cell.bit_count()
        target = cells[target_idx]
        tried = []
        for v in sorted(bits(target)):
            if tried:
                puf = _UnionFind(n)
                for gamma in gens:
                    if all(gamma[x] == x for x in path):
                        for x in range(n):
                            puf.union(x, gamma[x])
                if any(puf.find(v) == puf.find(u) for u in tried):
                    continue
            tried.append(v)
            vbit = 1 << v
            child = []
            for i, cell in enumerate(cells):
                child.extend((vbit, cell ^ vbit) if i == target_idx else (cell,))
            path.append(v)
            search(_refine(adj, child, [vbit, target ^ vbit]), path)
            path.pop()

    search(_refine(adj, [(1 << n) - 1], [(1 << n) - 1]), [])
    orbit = tuple(uf.find(v) for v in range(n))
    return CanonResult(n.to_bytes(2, "big") + best_code, best_perm, orbit, tuple(gens))


def test_matches_rebuild_per_sibling_oracle():
    # form, labeling, orbits and generators, so the same leaves in the same order
    for n in range(1, 8):
        for g in connected_graph_list(n):
            assert canon(g) == canon_rebuild_per_sibling(g)
    rng = random.Random(7)
    for g in TEST_GRAPHS:
        h = _shuffled(g, rng)
        assert canon(h) == canon_rebuild_per_sibling(h)


def test_search_refinements_match_oracle(monkeypatch):
    # every refinement canon runs on the stream's graphs to n = 7, at the
    # root and at each search node, gives the same ordered cells as
    # bucketing every cell's vertices
    graphs = [g for n in range(1, 8) for g in connected_graph_list(n)]
    checked = []

    def checking(adj, cells, splitters):
        refined = _refine(adj, cells, splitters)
        assert refined == refine_reference(adj, cells, splitters), (adj, cells, splitters)
        checked.append(splitters)
        return refined

    monkeypatch.setattr(canon_module, "_refine", checking)
    for g in graphs:
        canon(g)
    # one root refinement for each of the 996 graphs, 4,588 at search nodes
    assert len(checked) == 5584


def test_union_find_work_pinned(monkeypatch):
    # connected_graphs(7) makes 281 canon calls, each with one orbit
    # union-find; search nodes add 529 more, one per node that meets a
    # generator fixing its path, not one per sibling.  A generator's fixed
    # points are not unioned
    calls = {"made": 0, "unions": 0}

    class Counting(_UnionFind):
        def __init__(self, n):
            calls["made"] += 1
            super().__init__(n)

        def union(self, a, b):
            calls["unions"] += 1
            super().union(a, b)

    monkeypatch.setattr(canon_module, "_UnionFind", Counting)
    assert sum(1 for _ in connected_graphs(7)) == 853
    assert calls == {"made": 810, "unions": 4816}
