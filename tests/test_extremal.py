"""Extremal search and theorem verdicts on the exhaustively enumerated classes."""

import pytest

from totecc import ClassConstraint, extremal, families, graph6
from totecc.canon import canonical_graph
from totecc.extremal import (
    CONJECTURE_VIOLATED,
    PASS,
    UNIQUENESS_FAIL,
    check_conjecture,
    search,
    verify_theorem,
)
from totecc.graph import total_eccentricity


def g6(graph):
    return graph6.encode(canonical_graph(graph))


class TestSearch:
    def test_global_max_is_path(self):
        r = search(7, ClassConstraint("all"), "max")
        assert r.value == 33  # eps(P_7) = 6+5+4+3+4+5+6
        assert r.witnesses == (g6(families.path(7)),)
        assert r.class_size == 853

    def test_global_min_is_complete(self):
        r = search(7, ClassConstraint("all"), "min")
        assert r.value == 7
        assert r.witnesses == (g6(families.complete(7)),)

    def test_cut2_max_at_6(self):
        r = search(6, ClassConstraint("cut_count", 2), "max")
        assert r.value == 19
        assert g6(families.tadpole_l(6, 4)) in r.witnesses

    def test_tree_extremes(self):
        r = search(7, ClassConstraint("tree"), "max")
        assert r.witnesses == (g6(families.path(7)),)
        r = search(7, ClassConstraint("tree"), "min")
        assert r.witnesses == (g6(families.star(7)),)
        assert r.value == 13

    def test_deterministic(self):
        a = search(6, ClassConstraint("unicyclic"), "max")
        b = search(6, ClassConstraint("unicyclic"), "max")
        assert a == b

    def test_sandwich_families_inside_bounds(self):
        lo = search(7, ClassConstraint("unicyclic"), "min").value
        hi = search(7, ClassConstraint("unicyclic"), "max").value
        for g in (
            families.tadpole_l(7, 4),
            families.tadpole_p(7, 5),
            families.dumbbell(3, 3, 7),
        ):
            if g.edge_count == g.n:
                assert lo <= total_eccentricity(g) <= hi

    def test_empty_class_raises(self):
        with pytest.raises(ValueError):
            search(3, ClassConstraint("pendant_count", 1), "max")

    def test_bad_objective(self):
        with pytest.raises(ValueError):
            search(5, ClassConstraint("all"), "sum")


def _assert_all_pass(verdicts):
    bad = [v for v in verdicts if not v.ok]
    assert not bad, bad


class TestPendantMax:
    @pytest.mark.parametrize("n", [3, 4, 6, 7])
    def test_all_pass(self, n):
        _assert_all_pass(verify_theorem("pendant-max", n))

    def test_n7_values(self):
        by_k = {v.parameter: v for v in verify_theorem("pendant-max", 7)}
        assert by_k[0].observed_value == 24  # two-triangle dumbbell
        assert by_k[0].observed_witnesses == (g6(families.dumbbell(3, 3, 7)),)
        assert by_k[1].observed_value == 29
        assert by_k[1].observed_witnesses == (g6(families.tadpole_l(7, 3)),)
        assert by_k[2].status == PASS

    def test_n6_cycle_unique(self):
        by_k = {v.parameter: v for v in verify_theorem("pendant-max", 6)}
        assert by_k[0].observed_value == 18
        assert by_k[0].observed_witnesses == (g6(families.cycle(6)),)

    def test_uniqueness_refuted_at_n5(self):
        # ties with the cycle at eps=10: house, K_{2,3}, and one more.
        # The claimed uniqueness fails; value and membership still hold.
        by_k = {v.parameter: v for v in verify_theorem("pendant-max", 5)}
        v = by_k[0]
        assert v.status == UNIQUENESS_FAIL
        assert v.observed_value == v.predicted_value == 10
        assert set(v.predicted_witnesses) <= set(v.observed_witnesses)
        assert len(v.observed_witnesses) == 4


class TestPendantMin:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_all_pass(self, n):
        _assert_all_pass(verify_theorem("pendant-min", n))

    def test_n7_rows(self):
        by_k = {v.parameter: v for v in verify_theorem("pendant-min", 7)}
        assert by_k[0].observed_value == 7  # K_7, unique
        assert by_k[0].uniqueness_checked
        for k in range(1, 5):
            assert by_k[k].observed_value == 13  # 2n-1
            assert g6(families.complete_with_pendants(7, k)) in by_k[k].observed_witnesses


class TestUnicyclic:
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_all_pass(self, n):
        _assert_all_pass(verify_theorem("unicyclic", n))

    def test_values(self):
        lo, hi = verify_theorem("unicyclic", 6)
        assert lo.observed_value == 11 and hi.observed_value == 20
        lo, hi = verify_theorem("unicyclic", 5)
        assert lo.observed_value == 9 and hi.observed_value == 13
        assert lo.observed_witnesses == (g6(families.tadpole_p(5, 3)),)
        assert hi.observed_witnesses == (g6(families.tadpole_l(5, 3)),)


class TestCutMin:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_all_pass(self, n):
        _assert_all_pass(verify_theorem("cut-min", n))

    def test_n6_rows(self):
        by_s = {v.parameter: v for v in verify_theorem("cut-min", 6)}
        assert by_s[0].observed_value == 6
        assert by_s[2].observed_value == 14
        assert g6(families.complete_with_paths(4, (2, 2, 1, 1))) in by_s[2].observed_witnesses
        assert by_s[4].observed_value == total_eccentricity(families.path(6))


class TestCutMax:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_all_pass(self, n):
        _assert_all_pass(verify_theorem("cut-max", n))

    def test_n7_rows(self):
        by_s = {v.parameter: v for v in verify_theorem("cut-max", 7)}
        assert by_s[0].observed_value == 21  # n*floor(n/2)
        assert by_s[1].observed_value == 23
        assert g6(families.tadpole_l(7, 6)) in by_s[1].observed_witnesses
        assert by_s[4].observed_value == 29
        assert by_s[5].observed_value == 33
        assert by_s[5].observed_witnesses == (g6(families.path(7)),)
        assert by_s[5].class_size == 1

    def test_n4_tie(self):
        by_s = {v.parameter: v for v in verify_theorem("cut-max", 4)}
        v = by_s[1]
        assert v.observed_value == 7 and v.class_size == 2
        assert set(v.observed_witnesses) == {
            g6(families.star(4)),
            g6(families.tadpole_l(4, 3)),
        }


class TestTreeTheorems:
    @pytest.mark.parametrize("n", range(4, 8))
    def test_all_pass(self, n):
        _assert_all_pass(verify_theorem("tree", n))

    def test_divisibility_split_at_8(self):
        verdicts = verify_theorem("tree", 8)
        _assert_all_pass(verdicts)
        mins = {v.parameter: v for v in verdicts if v.theorem == "tree-min"}
        # 3 | 6: both two-hub spiders are minimizers
        assert g6(families.double_spider(8, 3, 1)) in mins[3].observed_witnesses
        # 4 ∤ 6 at k=4: the balanced spider minimizes
        assert g6(families.spider_balanced(8, 4)) in mins[4].observed_witnesses

    def test_k3_n7_uses_balanced_spider(self):
        mins = {
            v.parameter: v
            for v in verify_theorem("tree", 7)
            if v.theorem == "tree-min"
        }
        assert g6(families.spider_balanced(7, 3)) in mins[3].observed_witnesses

    def test_star_row_trivial(self):
        rows = [v for v in verify_theorem("tree", 6) if v.parameter == 5]
        for v in rows:
            assert v.class_size == 1 and v.status == PASS


class TestConjecture:
    def test_holds_through_n7(self):
        for n in (5, 6, 7):
            for v in check_conjecture(n):
                assert v.status == PASS, v

    def test_n6_s2_value(self):
        v = {x.parameter: x for x in check_conjecture(6)}[2]
        assert v.observed_value == 19 == total_eccentricity(families.tadpole_l(6, 4))

    def test_refuted_at_n8_s2(self):
        by_s = {v.parameter: v for v in check_conjecture(8)}
        v = by_s[2]
        assert v.status == CONJECTURE_VIOLATED
        assert v.predicted_value == 31 and v.observed_value == 32
        assert g6(families.dumbbell(4, 4, 8)) in v.counterexamples
        # counterexamples decode and genuinely beat the tadpole bound
        from totecc.graph import cut_vertices

        for s in v.counterexamples:
            g = graph6.decode(s)
            assert len(cut_vertices(g)) == 2
            assert total_eccentricity(g) == 32
        assert by_s[3].status == PASS and by_s[4].status == PASS


def test_empty_class_yields_skipped_verdict():
    # never a vacuous pass: a missing class must be visible in the status
    v = extremal._verdict("pendant-min", 3, 1, 5, [families.path(3)], None, False)
    assert v.status == extremal.SKIPPED and v.observed_value is None


class TestDispatch:
    def test_verify_theorem_names(self):
        assert verify_theorem("unicyclic", 4) == []  # below range: empty
        assert len(verify_theorem("cut-max", 5)) == 4
        with pytest.raises(ValueError):
            verify_theorem("fermat", 6)

    def test_tree_invariant_breaks_raise(self, monkeypatch):
        # explicit raises, so the checks survive python -O
        real = families.double_broom
        monkeypatch.setattr(
            families, "double_broom", lambda l, m, d: real(l, m, d + (l == 1))
        )
        with pytest.raises(RuntimeError, match="double brooms disagree"):
            verify_theorem("tree", 7)
        monkeypatch.setattr(families, "double_broom", real)
        monkeypatch.setattr(families, "double_spider", lambda n, k, t: families.path(n - t + 1))
        with pytest.raises(RuntimeError, match="spider minimizers disagree"):
            verify_theorem("tree", 8)

    def test_range_validation(self):
        assert verify_theorem("pendant-max", 10) == []
        with pytest.raises(ValueError, match=r"^check_conjecture needs 5 <= n <= 9$"):
            check_conjecture(4)


def test_witnesses_canonicalised_once_per_graph(monkeypatch):
    # witness and prediction graphs recur across theorem rows; _g6 is
    # memoised by graph value, so canonical_graph runs once per distinct graph
    calls = []

    def counting(graph):
        calls.append(graph)
        return canonical_graph(graph)

    monkeypatch.setattr(extremal, "canonical_graph", counting)
    extremal._g6.cache_clear()
    for theorem in extremal.THEOREMS:
        for n in range(3, 8):
            verify_theorem(theorem, n)
    assert calls and len(calls) == len(set(calls))
    assert extremal._g6.cache_info().hits > 0
