"""Rewrites: worked examples, site validation, randomized inequality checks.

The full >= 500-application sweeps live in the acceptance module; these
tests run smaller seeded batches plus the structural edge cases.
"""

import random

import pytest

from conftest import (
    attach_cycles,
    attach_paths,
    attach_tadpole,
    glue_relocate,
    random_connected_graph,
    random_tree,
)
from oracles import (
    _cycle_walk,
    _dangling_path,
    relocate_sites_by_sets,
    shrink_girth_to_3_by_edge,
    shrink_sites_by_edge,
)
from totecc import families, graph6, transforms
from totecc.canon import canonical_form
from totecc.graph import (
    DisconnectedGraphError,
    Graph,
    bits,
    blocks,
    eccentricities,
    is_connected,
    total_eccentricity,
)
from totecc.transforms import (
    BalanceSite,
    GraftSite,
    InvalidSiteError,
    MergeCyclesSite,
    RelocateSite,
    ShrinkSite,
    add_edge,
    add_edge_sites,
    balance_paths,
    balance_sites,
    block_cycle_sites,
    block_to_cycle,
    graft_edge,
    graft_sites,
    merge_cycles,
    merge_sites,
    relocate_path,
    relocate_sites,
    shrink_girth_to_3,
    shrink_sites,
)


class TestAddEdge:
    def test_path_to_cycle(self):
        g = families.path(4)
        out = add_edge(g, 0, 3)
        assert canonical_form(out) == canonical_form(families.cycle(4))
        assert total_eccentricity(g) == 10 and total_eccentricity(out) == 8

    def test_completing_a_graph(self):
        almost = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        out = add_edge(almost, 2, 3)
        assert total_eccentricity(out) == 4  # eps(K_4)

    def test_per_vertex_monotone_random(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randrange(4, 13)
            g = random_connected_graph(rng, n, rng.randrange(0, n))
            pairs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not g.has_edge(u, v)
            ]
            if not pairs:
                continue
            u, v = rng.choice(pairs)
            out = add_edge(g, u, v)
            before, after = eccentricities(g), eccentricities(out)
            assert all(b >= a for b, a in zip(before, after))

    def test_rejects_existing_edge_and_loop(self):
        g = families.path(3)
        with pytest.raises(InvalidSiteError):
            add_edge(g, 0, 1)
        with pytest.raises(InvalidSiteError):
            add_edge(g, 2, 2)
        with pytest.raises(ValueError):
            add_edge(g, 0, 5)


class TestGraft:
    def test_star_grafts_to_path(self):
        g = families.star(5)
        values = [total_eccentricity(g)]
        while True:
            sites = graft_sites(g)
            if not sites:
                break
            g = graft_edge(g, sites[0])
            values.append(total_eccentricity(g))
        assert canonical_form(g) == canonical_form(families.path(5))
        assert values == sorted(set(values))  # strictly increasing

    def test_double_broom_step(self):
        t = families.double_broom(2, 2, 3)
        site = next(
            s for s in graft_sites(t) if len(s.short_path) == 1 and len(s.long_path) == 1
        )
        out = graft_edge(t, site)
        assert total_eccentricity(out) > total_eccentricity(t)
        assert canonical_form(out) == canonical_form(families.double_broom(1, 2, 4))

    def test_equal_lengths_still_strict(self):
        g, site = attach_paths(families.star(5), 0, 2, 2)
        out = graft_edge(g, site)
        assert total_eccentricity(out) > total_eccentricity(g)
        # same boundary on the 4-leg balanced spider: any two of its
        # equal legs form a k = l site and the increase stays strict
        spider = families.spider_balanced(9, 4)
        for site in graft_sites(spider):
            if len(site.short_path) == len(site.long_path) == 2:
                out = graft_edge(spider, site)
                assert total_eccentricity(out) > total_eccentricity(spider)

    def test_random_strict_increase(self):
        rng = random.Random(23)
        for _ in range(120):
            base = random_connected_graph(rng, rng.randrange(2, 7), rng.randrange(0, 3))
            hub = rng.randrange(base.n)
            k = rng.randrange(1, 4)
            l = rng.randrange(k, 5)
            g, site = attach_paths(base, hub, k, l)
            if g.n > 12:
                continue
            out = graft_edge(g, site)
            assert out.n == g.n and is_connected(out)
            assert total_eccentricity(out) > total_eccentricity(g)

    def test_trees_reach_path_fixed_point(self):
        rng = random.Random(37)
        for _ in range(30):
            t = random_tree(rng, rng.randrange(4, 11))
            prev = total_eccentricity(t)
            while True:
                sites = graft_sites(t)
                if not sites:
                    break
                t = graft_edge(t, sites[rng.randrange(len(sites))])
                cur = total_eccentricity(t)
                assert cur > prev
                prev = cur
            assert canonical_form(t) == canonical_form(families.path(t.n))

    def test_invalid_sites(self):
        g, site = attach_paths(families.star(4), 0, 1, 2)
        with pytest.raises(InvalidSiteError):
            graft_edge(g, GraftSite(site.hub, site.long_path, site.short_path))
        with pytest.raises(InvalidSiteError):
            graft_edge(g, GraftSite(1, site.short_path, site.long_path))
        # base too small: P_4 center has two paths but only itself remains
        p = families.path(4)
        with pytest.raises(InvalidSiteError):
            graft_edge(p, GraftSite(1, (0,), (2, 3)))
        assert graft_sites(p) == []
        # pendant not attached to the claimed hub
        g2 = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        with pytest.raises(InvalidSiteError):
            graft_edge(g2, GraftSite(0, (2,), (3,)))


class TestRelocate:
    def test_two_triangles_plus_path(self):
        h1 = families.complete(3)
        edges = h1.edges() + [(0, 3), (0, 4), (3, 4), (0, 5), (5, 6)]
        g = Graph.from_edges(7, edges)
        site = RelocateSite(0, (5, 6), frozenset({1, 2}))
        out = relocate_path(g, site)
        assert out.n == 7 and is_connected(out)
        assert total_eccentricity(out) > total_eccentricity(g)

    def test_minimal_path_d2(self):
        rng = random.Random(4)
        g, site = glue_relocate(3, 3, 2, rng)
        out = relocate_path(g, site)
        assert total_eccentricity(out) > total_eccentricity(g)

    def test_random_strict_increase(self):
        rng = random.Random(41)
        for _ in range(120):
            g, site = glue_relocate(
                rng.randrange(2, 5), rng.randrange(2, 5), rng.randrange(2, 5), rng
            )
            if g.n > 12:
                continue
            out = relocate_path(g, site)
            assert out.n == g.n and is_connected(out)
            assert total_eccentricity(out) > total_eccentricity(g)
            # vertices outside the relocated path never lose eccentricity
            before, after = eccentricities(g), eccentricities(out)
            for v in range(g.n):
                if v not in site.path:
                    assert after[v] >= before[v]

    def test_path_vertices_can_lose_eccentricity(self):
        # the relocated path's far end can come closer to everything even
        # though the total strictly rises: frozen 8-vertex instance
        g = Graph.from_edges(
            8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (4, 5), (6, 7)]
        )
        site = RelocateSite(0, (6, 7), frozenset({1, 2}))
        out = relocate_path(g, site)
        assert eccentricities(g)[7] == 4 and eccentricities(out)[7] == 3
        assert total_eccentricity(out) > total_eccentricity(g)

    def test_site_enumeration_matches(self):
        rng = random.Random(8)
        g, site = glue_relocate(3, 2, 3, rng)
        assert any(
            s.center == site.center and s.path == site.path for s in relocate_sites(g)
        )

    def test_invalid_sites(self):
        g = families.path(5)
        with pytest.raises(InvalidSiteError):
            relocate_path(g, RelocateSite(2, (3, 4), frozenset({0, 1})))  # rest empty
        star3 = families.star(4)
        with pytest.raises(InvalidSiteError):
            relocate_path(star3, RelocateSite(0, (1,), frozenset()))  # empty side


class TestBlockToCycle:
    def test_complete_to_cycle(self):
        g = families.complete(5)
        out = block_to_cycle(g, 0)
        assert canonical_form(out) == canonical_form(families.cycle(5))
        assert total_eccentricity(g) == 5 and total_eccentricity(out) == 10

    def test_pendant_clique_on_path(self):
        base = families.path(3)
        edges = base.edges() + [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
        g = Graph.from_edges(6, edges)
        idx = next(i for i in block_cycle_sites(g) if True)
        out = block_to_cycle(g, idx)
        assert is_connected(out) and out.n == g.n
        assert total_eccentricity(out) >= total_eccentricity(g)

    def test_cycle_block_identity_eps(self):
        g = families.tadpole_l(8, 5)
        decomp_sites = block_cycle_sites(g)
        for i in decomp_sites:
            out = block_to_cycle(g, i)
            assert total_eccentricity(out) == total_eccentricity(g)

    def test_random_non_decreasing(self):
        rng = random.Random(53)
        applied = 0
        while applied < 120:
            g = random_connected_graph(rng, rng.randrange(4, 11), rng.randrange(1, 8))
            sites = block_cycle_sites(g)
            if not sites:
                continue
            out = block_to_cycle(g, rng.choice(sites))
            assert out.n == g.n and is_connected(out)
            assert total_eccentricity(out) >= total_eccentricity(g)
            applied += 1

    def test_rejects_two_cut_blocks(self):
        # triangle in the middle of two pendant paths: 2 cut vertices in it
        g = Graph.from_edges(6, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        from totecc.graph import blocks as block_decomp

        d = block_decomp(g)
        middle = next(i for i, b in enumerate(d.blocks) if len(b) == 3)
        with pytest.raises(InvalidSiteError):
            block_to_cycle(g, middle)
        assert middle not in block_cycle_sites(g)

    def test_rejects_index_out_of_range(self):
        g = families.tadpole_l(8, 5)
        count = len(blocks(g).blocks)
        for index in (-1, count):
            with pytest.raises(InvalidSiteError, match=f"^block index {index} out of range$"):
                block_to_cycle(g, index)


class TestMergeCycles:
    def test_k2_host_two_triangles(self):
        g, site = attach_cycles(families.path(2), 0, 3, 3)
        out = merge_cycles(g, site)
        assert out.n == g.n and is_connected(out)
        assert total_eccentricity(out) >= total_eccentricity(g)
        assert canonical_form(out) == canonical_form(families.tadpole_l(6, 5))

    def test_even_even_case(self):
        g, site = attach_cycles(families.path(2), 0, 4, 4)
        out = merge_cycles(g, site)
        assert total_eccentricity(out) >= total_eccentricity(g)

    def test_vertex_count_preserved(self):
        g, site = attach_cycles(families.star(3), 1, 5, 3)
        assert merge_cycles(g, site).n == g.n

    def test_random_non_decreasing(self):
        rng = random.Random(67)
        for _ in range(120):
            base = random_connected_graph(rng, rng.randrange(2, 5), rng.randrange(0, 2))
            w = rng.randrange(base.n)
            m1, m2 = rng.randrange(3, 6), rng.randrange(3, 6)
            g, site = attach_cycles(base, w, m1, m2)
            if g.n > 12:
                continue
            out = merge_cycles(g, site)
            assert out.n == g.n and is_connected(out)
            assert total_eccentricity(out) >= total_eccentricity(g)

    def test_site_enumeration(self):
        g, site = attach_cycles(families.path(2), 0, 3, 4)
        found = merge_sites(g)
        assert len(found) == 1
        assert found[0].shared == 0

    def test_invalid(self):
        g, site = attach_cycles(families.path(2), 0, 3, 3)
        with pytest.raises(InvalidSiteError):
            merge_cycles(g, MergeCyclesSite(1, site.cycle_a, site.cycle_b))
        bare = families.dumbbell(3, 3, 5)  # bowtie: host side is just w
        from totecc.graph import blocks as block_decomp

        d = block_decomp(bare)
        with pytest.raises(InvalidSiteError):
            merge_cycles(
                bare,
                MergeCyclesSite(0, d.blocks[0], d.blocks[1]),
            )


class TestBalancePaths:
    def test_example_step(self):
        g = families.complete_with_paths(3, (4, 2, 1))
        site = BalanceSite((0, 1, 2), 0, 2)
        out = balance_paths(g, site)
        assert total_eccentricity(out) <= total_eccentricity(g)
        want = families.complete_with_paths(3, (3, 2, 2))
        assert canonical_form(out) == canonical_form(want)

    def test_m2_keeps_eps(self):
        g = families.complete_with_paths(2, (5, 2))
        site = BalanceSite((0, 1), 0, 1)
        out = balance_paths(g, site)
        assert total_eccentricity(out) == total_eccentricity(g)

    def test_iterate_to_balanced(self):
        g = families.complete_with_paths(4, (7, 1, 1, 1))
        while True:
            sites = balance_sites(g)
            if not sites:
                break
            g = balance_paths(g, sites[0])
        profile = sorted(len(p) for p in transforms._kmn_profile(g, tuple(range(4))))
        assert max(profile) - min(profile) <= 1

    def test_random_non_increasing(self):
        rng = random.Random(71)
        for _ in range(120):
            m = rng.randrange(2, 6)
            lengths = [rng.randrange(1, 5) for _ in range(m)]
            if sum(lengths) > 12 or max(lengths) - min(lengths) < 2:
                continue
            g = families.complete_with_paths(m, tuple(lengths))
            donor = max(range(m), key=lengths.__getitem__)
            receivers = [j for j in range(m) if lengths[j] <= lengths[donor] - 2]
            site = BalanceSite(tuple(range(m)), donor, rng.choice(receivers))
            out = balance_paths(g, site)
            assert out.n == g.n and is_connected(out)
            assert total_eccentricity(out) <= total_eccentricity(g)

    def test_invalid(self):
        g = families.complete_with_paths(3, (3, 2, 2))
        with pytest.raises(InvalidSiteError):
            balance_paths(g, BalanceSite((0, 1, 2), 1, 2))  # donor not max
        with pytest.raises(InvalidSiteError):
            balance_paths(g, BalanceSite((0, 1, 2), 0, 1))  # gap < 2
        square = families.tadpole_l(6, 4)  # cycle vertices are no clique
        with pytest.raises(InvalidSiteError):
            balance_paths(square, BalanceSite((0, 1, 2), 0, 1))

    def test_girth3_tadpole_is_clique_with_paths(self):
        # U_{5,3}^l decomposes as a triangle with paths (3,1,1)
        tri = families.tadpole_l(5, 3)
        out = balance_paths(tri, BalanceSite((0, 1, 2), 0, 1))
        assert total_eccentricity(out) <= total_eccentricity(tri)


class TestShrinkGirth:
    def test_k2_host_example(self):
        g, site = attach_tadpole(families.path(2), 0, 6, 4)
        out = shrink_girth_to_3(g, site)
        assert out.n == g.n and is_connected(out)
        assert total_eccentricity(out) > total_eccentricity(g)
        want, _ = attach_tadpole(families.path(2), 0, 6, 3)
        assert canonical_form(out) == canonical_form(want)

    def test_girth4_boundary(self):
        g, site = attach_tadpole(families.complete(3), 1, 5, 4)
        out = shrink_girth_to_3(g, site)
        assert total_eccentricity(out) > total_eccentricity(g)

    def test_vertex_set_preserved(self):
        g, site = attach_tadpole(families.path(3), 2, 7, 5)
        assert shrink_girth_to_3(g, site).n == g.n

    def test_random_strict_increase(self):
        rng = random.Random(83)
        for _ in range(120):
            base = random_connected_graph(rng, rng.randrange(2, 5), rng.randrange(0, 2))
            u = rng.randrange(base.n)
            girth = rng.randrange(4, 7)
            r = girth + rng.randrange(1, 4)
            g, site = attach_tadpole(base, u, r, girth)
            if g.n > 12:
                continue
            out = shrink_girth_to_3(g, site)
            assert out.n == g.n and is_connected(out)
            assert total_eccentricity(out) > total_eccentricity(g)

    def test_site_enumeration(self):
        g, site = attach_tadpole(families.path(2), 1, 6, 4)
        found = shrink_sites(g)
        assert site in found
        for s in found:  # every enumerated site must apply cleanly
            out = shrink_girth_to_3(g, s)
            assert total_eccentricity(out) > total_eccentricity(g)
        g3, _ = attach_tadpole(families.path(2), 1, 6, 3)
        assert shrink_sites(g3) == []  # already girth 3

    def test_invalid(self):
        g, site = attach_tadpole(families.path(2), 0, 6, 4)
        with pytest.raises(InvalidSiteError):
            shrink_girth_to_3(g, ShrinkSite(site.pendant, site.attach))
        with pytest.raises(InvalidSiteError):
            shrink_girth_to_3(families.tadpole_l(8, 4), ShrinkSite(0, 3))


def test_rewrites_never_mutate_input():
    g = families.complete_with_paths(3, (4, 2, 1))
    snapshot = Graph(g.n, g.adj)
    balance_paths(g, BalanceSite((0, 1, 2), 0, 2))
    add_edge(g, 4, 6)
    assert g == snapshot


def _lister_inputs():
    """The conftest builders' graphs and random connected graphs, n <= 12."""
    rng = random.Random(1201)
    for _ in range(60):
        base = random_connected_graph(rng, rng.randrange(2, 5), rng.randrange(0, 3))
        hub = rng.randrange(base.n)
        yield attach_paths(base, hub, rng.randrange(1, 4), rng.randrange(1, 4))[0]
        yield attach_cycles(base, hub, rng.randrange(3, 5), rng.randrange(3, 5))[0]
        girth = rng.randrange(3, 7)
        yield attach_tadpole(base, hub, girth + rng.randrange(1, 3), girth)[0]
        yield glue_relocate(rng.randrange(2, 5), rng.randrange(2, 5), rng.randrange(2, 5), rng)[0]
    for _ in range(300):
        n = rng.randrange(1, 13)
        yield random_connected_graph(rng, n, rng.randrange(0, n))
    yield Graph.from_edges(4, [(0, 1), (2, 3)])


def test_listers_match_set_and_edge_oracles():
    # the CLI prints repr(site), so the sites must agree down to the
    # iteration order of every side's frozenset; the oracles list no site
    # on a disconnected graph, where the listers raise
    for g in _lister_inputs():
        if not is_connected(g):
            continue
        sites, expected = relocate_sites(g), relocate_sites_by_sets(g)
        assert repr(sites) == repr(expected), g
        for site, old in zip(sites, expected):
            assert relocate_path(g, site) == relocate_path(g, old), g
        assert repr(shrink_sites(g)) == repr(shrink_sites_by_edge(g)), g
        # every ordered edge as a site, valid or not: the same graph or error
        for u, v in g.edges():
            for site in (ShrinkSite(u, v), ShrinkSite(v, u)):
                try:
                    expected = shrink_girth_to_3_by_edge(g, site)
                except InvalidSiteError as exc:
                    with pytest.raises(InvalidSiteError, match=f"^{exc}$"):
                        shrink_girth_to_3(g, site)
                else:
                    assert shrink_girth_to_3(g, site) == expected, (g, site)


def test_walkers_match_oracle_walkers():
    # the oracles keep their own walkers, so this checks transforms._walk
    cycles = 0
    for g in _lister_inputs():
        for h in range(g.n):
            for a in bits(g.adj[h]):
                assert transforms._dangling_path(g, h, a) == _dangling_path(g, h, a), (g, h, a)
        if not is_connected(g):
            continue
        for block in blocks(g).blocks:
            if not transforms._is_cycle_block(g, block):
                continue
            cycles += 1
            for v in block:
                assert transforms._cycle_walk(g, transforms._mask(block), v) == _cycle_walk(g, block, v)
    assert cycles >= 300


def test_add_edge_sites_are_the_non_adjacent_pairs():
    for g in _lister_inputs():
        if is_connected(g):
            pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
            assert add_edge_sites(g) == pairs, g


# The path 2-1-0-3-4-5 plus a separate edge 6-7.
DISCONNECTED = graph6.decode("GkCG?C")

# (lister, rewrite, sites that fit the path component or that no graph has)
_KINDS = (
    (add_edge_sites, lambda g, s: add_edge(g, *s), [(2, 5), (0, 6), (0, 0), (0, 8)]),
    (graft_sites, graft_edge, [GraftSite(0, (1, 2), (3, 4, 5)), GraftSite(6, (7,), (7,))]),
    (
        relocate_sites,
        relocate_path,
        [RelocateSite(0, (1, 2), frozenset({3, 4, 5})), RelocateSite(9, (), frozenset())],
    ),
    (block_cycle_sites, block_to_cycle, [0, 4, -1, 99]),
    (merge_sites, merge_cycles, [MergeCyclesSite(0, frozenset({0, 1, 2}), frozenset({0, 3, 4}))]),
    (balance_sites, balance_paths, [BalanceSite((0, 1), 0, 1), BalanceSite((6, 7), 0, 1)]),
    (shrink_sites, shrink_girth_to_3, [ShrinkSite(0, 3), ShrinkSite(6, 7), ShrinkSite(0, 9)]),
)


@pytest.mark.parametrize("lister", [kind[0] for kind in _KINDS], ids=lambda f: f.__name__)
def test_listers_reject_a_disconnected_graph(lister):
    with pytest.raises(DisconnectedGraphError, match="^invariant requires a connected graph$"):
        lister(DISCONNECTED)


def test_rewrites_reject_a_disconnected_graph_whatever_the_site():
    checked = 0
    for _, rewrite, sites in _KINDS:
        for site in sites:
            with pytest.raises(DisconnectedGraphError, match="^invariant requires a connected graph$"):
                rewrite(DISCONNECTED, site)
            checked += 1
    # and every site listed on a connected graph of the same order
    for g in _lister_inputs():
        if g.n != DISCONNECTED.n or not is_connected(g):
            continue
        for lister, rewrite, _ in _KINDS:
            for site in lister(g):
                with pytest.raises(DisconnectedGraphError):
                    rewrite(DISCONNECTED, site)
                checked += 1
    assert checked >= 500


def test_rewrite_outputs_pass_full_validation():
    # _rewire builds its graph unchecked; the public constructor runs every
    # __post_init__ check on the same rows, for every listed site of every kind
    checked = set()
    for g in _lister_inputs():
        if not is_connected(g):
            continue
        for lister, rewrite, _ in _KINDS:
            for site in lister(g):
                out = rewrite(g, site)
                assert Graph(out.n, out.adj) == out, (g, site)
                checked.add(rewrite)
    assert len(checked) == len(_KINDS)


# Sites naming a vertex outside 0..n-1.  Unchecked, such an id indexes past
# the rows, shifts by a negative count, or passes as a Python negative index.
_OUT_OF_RANGE = [
    (relocate_path, RelocateSite(0, (1,), frozenset({-1}))),
    (relocate_path, RelocateSite(0, (1,), frozenset({9}))),
    (relocate_path, RelocateSite(9, (1,), frozenset({2}))),
    (graft_edge, GraftSite(9, (1,), (2,))),
    (graft_edge, GraftSite(-5, (1,), (2,))),
    (graft_edge, GraftSite(0, (1,), (2, 7))),
    (shrink_girth_to_3, ShrinkSite(9, 1)),
    (shrink_girth_to_3, ShrinkSite(0, -1)),
    (merge_cycles, MergeCyclesSite(9, frozenset({0, 1, 2}), frozenset({0, 3, 4}))),
    (merge_cycles, MergeCyclesSite(0, frozenset({0, 1, 2}), frozenset({0, 3, -1}))),
    (balance_paths, BalanceSite((-5, 1), 0, 1)),
    (balance_paths, BalanceSite((0, 5), 0, 1)),
    (lambda g, s: add_edge(g, *s), (0, 5)),
    (lambda g, s: add_edge(g, *s), (-1, 2)),
]


@pytest.mark.parametrize("g", [families.star(5), families.path(5)], ids=["star5", "path5"])
@pytest.mark.parametrize("rewrite, site", _OUT_OF_RANGE)
def test_rewrites_reject_vertices_outside_the_graph(g, rewrite, site):
    with pytest.raises(InvalidSiteError, match=r"^site names a vertex outside 0\.\.4$"):
        rewrite(g, site)
