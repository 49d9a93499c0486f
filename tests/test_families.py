"""Family constructors: golden labelings, class membership, isomorphisms."""

import pytest

from totecc import families
from totecc.canon import canonical_form
from totecc.families import FamilySpec, parse_family
from totecc.graph import (
    cut_vertices,
    girth,
    is_connected,
    pendant_vertices,
    total_eccentricity,
)


def iso(a, b):
    return canonical_form(a) == canonical_form(b)


class TestGolden:
    def test_path_edges(self):
        assert families.path(4).edges() == [(0, 1), (1, 2), (2, 3)]

    def test_double_broom_edges(self):
        t = families.double_broom(2, 1, 3)
        assert t.n == 6
        assert t.edges() == [(0, 1), (0, 3), (0, 4), (1, 2), (2, 5)]

    def test_tadpole_l_edges(self):
        g = families.tadpole_l(6, 3)
        assert g.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)]

    def test_dumbbell_shared_edges(self):
        g = families.dumbbell(3, 3, 5)
        assert g.edges() == [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]

    # One pin per remaining constructor, with every leg, path and ring at
    # least two edges long, so a shifted label anywhere changes the list.
    @pytest.mark.parametrize(
        "build, edges",
        [
            (lambda: families.cycle(5), [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]),
            (lambda: families.complete(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            (lambda: families.star(4), [(0, 1), (0, 2), (0, 3)]),
            (
                lambda: families.spider_balanced(8, 3),
                [(0, 1), (0, 4), (0, 6), (1, 2), (2, 3), (4, 5), (6, 7)],
            ),
            (
                lambda: families.double_spider(10, 4, 2),
                [(0, 1), (0, 2), (0, 4), (1, 6), (1, 8), (2, 3), (4, 5), (6, 7), (8, 9)],
            ),
            (
                lambda: families.tadpole_p(6, 4),
                [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3)],
            ),
            (
                lambda: families.dumbbell(3, 4, 10),
                [(0, 1), (0, 2), (0, 7), (1, 2), (3, 4), (3, 6), (3, 9), (4, 5), (5, 6), (7, 8), (8, 9)],
            ),
            (
                lambda: families.complete_with_paths(3, (3, 1, 4)),
                [(0, 1), (0, 2), (0, 3), (1, 2), (2, 5), (3, 4), (5, 6), (6, 7)],
            ),
            (
                lambda: families.kmn_balanced(10, 7),
                [(0, 1), (0, 2), (0, 3), (1, 2), (1, 6), (2, 8), (3, 4), (4, 5), (6, 7), (8, 9)],
            ),
            (
                lambda: families.complete_with_pendants(7, 2),
                [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
            ),
        ],
        ids=[
            "cycle",
            "complete",
            "star",
            "spider_balanced",
            "double_spider",
            "tadpole_p",
            "dumbbell_path",
            "complete_with_paths",
            "kmn_balanced",
            "complete_with_pendants",
        ],
    )
    def test_constructor_edges(self, build, edges):
        assert build().edges() == edges

    def test_constructors_deterministic(self):
        a = FamilySpec("dumbbell", (3, 4, 9)).build()
        b = FamilySpec("dumbbell", (3, 4, 9)).build()
        assert a == b  # bit-for-bit


class TestDoubleBroom:
    def test_pendant_count(self):
        t = families.double_broom(2, 1, 3)
        assert len(pendant_vertices(t)) == 3
        assert t.edge_count == t.n - 1

    def test_degenerate_path(self):
        assert iso(families.double_broom(1, 1, 4), families.path(6))

    def test_degenerate_star_when_d_is_1(self):
        assert iso(families.double_broom(2, 3, 1), families.star(6))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            families.double_broom(0, 1, 3)


class TestSpiders:
    def test_balanced_legs(self):
        t = families.spider_balanced(7, 3)
        assert t.degree(0) == 3
        comps = sorted(len(c) for c in _components_minus_hub(t, 0))
        assert comps == [2, 2, 2]

    def test_balanced_legs_remainder(self):
        t = families.spider_balanced(8, 3)  # q=2, r=1 -> legs 3,2,2
        comps = sorted(len(c) for c in _components_minus_hub(t, 0))
        assert comps == [2, 2, 3]

    def test_star_special_case(self):
        assert iso(families.spider_balanced(6, 5), families.star(6))

    def test_double_spider_degrees(self):
        t = families.double_spider(8, 3, 1)
        assert t.degree(0) == 2 and t.degree(1) == 3  # t+1 and k-t+1
        assert len(pendant_vertices(t)) == 3

    def test_double_spider_symmetry(self):
        assert iso(families.double_spider(14, 4, 1), families.double_spider(14, 4, 3))

    def test_double_spider_pendants(self):
        assert len(pendant_vertices(families.double_spider(14, 4, 2))) == 4

    def test_double_spider_requires_divisibility(self):
        with pytest.raises(ValueError):
            families.double_spider(9, 3, 1)
        with pytest.raises(ValueError):
            families.double_spider(8, 3, 3)

    def test_balanced_range(self):
        with pytest.raises(ValueError):
            families.spider_balanced(5, 1)
        with pytest.raises(ValueError):
            families.spider_balanced(5, 5)


def _components_minus_hub(g, hub):
    from totecc.graph import bits, components_without

    return [set(bits(comp)) for comp in components_without(g.adj, hub)]


class TestTadpoles:
    def test_tadpole_l_eps(self):
        assert total_eccentricity(families.tadpole_l(5, 3)) == 13

    def test_tadpole_l_class(self):
        for n, g in [(7, 3), (9, 5), (6, 5)]:
            t = families.tadpole_l(n, g)
            assert t.edge_count == t.n  # unicyclic
            assert girth(t) == g
            assert len(pendant_vertices(t)) == 1
            assert len(cut_vertices(t)) == n - g

    def test_tadpole_p_class(self):
        for n, g in [(6, 3), (8, 5), (9, 4)]:
            t = families.tadpole_p(n, g)
            assert girth(t) == g
            assert len(pendant_vertices(t)) == n - g
            assert len(cut_vertices(t)) == 1

    def test_tadpole_p_eps(self):
        assert total_eccentricity(families.tadpole_p(6, 3)) == 11  # 2n-1

    def test_forms_coincide_at_max_girth(self):
        for n in (4, 5, 8, 9):
            assert iso(families.tadpole_l(n, n - 1), families.tadpole_p(n, n - 1))

    def test_rejects_full_cycle(self):
        with pytest.raises(ValueError):
            families.tadpole_l(5, 5)
        with pytest.raises(ValueError):
            families.tadpole_p(5, 2)


class TestDumbbell:
    def test_eps_values(self):
        assert total_eccentricity(families.dumbbell(3, 3, 7)) == 24
        assert total_eccentricity(families.dumbbell(4, 4, 7)) == 22

    def test_c33_path_identity(self):
        from totecc.formulas import eps_path

        for n in range(6, 41):
            assert total_eccentricity(families.dumbbell(3, 3, n)) == eps_path(n - 2) + 2 * (n - 3)

    def test_no_pendants(self):
        for args in [(3, 3, 5), (4, 3, 6), (5, 4, 12)]:
            assert pendant_vertices(families.dumbbell(*args)) == frozenset()

    def test_swapped_arguments_isomorphic(self):
        assert iso(families.dumbbell(3, 5, 10), families.dumbbell(5, 3, 10))
        assert iso(families.dumbbell(4, 3, 6), families.dumbbell(3, 4, 6))

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            families.dumbbell(2, 3, 6)
        with pytest.raises(ValueError):
            families.dumbbell(3, 3, 4)


class TestCompleteWithPaths:
    def test_eps_example(self):
        assert total_eccentricity(families.complete_with_paths(4, (2, 2, 1, 1))) == 14

    def test_collapses_to_complete(self):
        assert iso(families.complete_with_paths(5, (1, 1, 1, 1, 1)), families.complete(5))

    def test_m2_is_path(self):
        assert iso(families.complete_with_paths(2, (3, 4)), families.path(7))

    def test_cut_count(self):
        for m, lengths in [(3, (3, 2, 1)), (4, (2, 2, 2, 2)), (2, (3, 3))]:
            g = families.complete_with_paths(m, lengths)
            assert len(cut_vertices(g)) == g.n - m

    def test_balanced_profile(self):
        g = families.kmn_balanced(11, 7)  # m=4, q=2, r=3 -> (3,3,3,2)
        assert g.n == 11 and len(cut_vertices(g)) == 7

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            families.complete_with_paths(3, (1, 1))
        with pytest.raises(ValueError):
            families.complete_with_paths(3, (1, 0, 2))


class TestCompleteWithPendants:
    def test_eps(self):
        assert total_eccentricity(families.complete_with_pendants(7, 2)) == 13

    def test_zero_is_complete(self):
        assert iso(families.complete_with_pendants(6, 0), families.complete(6))

    def test_pendant_count(self):
        assert len(pendant_vertices(families.complete_with_pendants(9, 4))) == 4

    def test_range(self):
        with pytest.raises(ValueError):
            families.complete_with_pendants(5, 3)


class TestBasics:
    def test_p1_is_k1(self):
        assert iso(families.path(1), families.complete(1))

    def test_c3_is_k3(self):
        assert iso(families.cycle(3), families.complete(3))

    def test_star_vs_spider(self):
        assert iso(families.star(7), families.spider_balanced(7, 6))

    def test_all_constructors_connected(self):
        graphs = [
            families.path(9),
            families.cycle(8),
            families.complete(7),
            families.star(9),
            families.double_broom(3, 2, 4),
            families.spider_balanced(11, 4),
            families.double_spider(12, 5, 2),
            families.tadpole_l(10, 4),
            families.tadpole_p(10, 6),
            families.dumbbell(4, 5, 13),
            families.complete_with_paths(3, (4, 2, 2)),
            families.complete_with_pendants(8, 3),
        ]
        for g in graphs:
            assert is_connected(g)


class TestFamilySpec:
    def test_parse_and_build(self):
        spec = parse_family(["dumbbell", "3", "3", "7"])
        assert spec == FamilySpec("dumbbell", (3, 3, 7))
        assert total_eccentricity(spec.build()) == 24

    def test_parse_complete_with_paths(self):
        spec = parse_family(["complete_with_paths", "4", "2", "2", "1", "1"])
        assert spec.build().n == 6

    def test_str(self):
        assert str(FamilySpec("tadpole_l", (7, 3))) == "tadpole_l(7,3)"

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            parse_family(["megagraph", "3"])
        with pytest.raises(ValueError, match="^unknown family tag 'bogus'$"):
            FamilySpec("bogus", ())

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            FamilySpec("cycle", (3, 4))
        with pytest.raises(ValueError):
            FamilySpec("complete_with_paths", (3, 1, 1))
