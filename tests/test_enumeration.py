"""Enumeration: counts vs published sequences, dedup cross-check, classes."""

import ast
import random
from pathlib import Path

import pytest

from conftest import CONNECTED_COUNTS, RUN_N9, TREE_COUNTS, connected_graph_list
from oracles import (
    accept_reference,
    connected_graphs_dedup,
    cut_vertices_by_deletion,
    degree_step_by_vertex,
    distance_matrix,
    fold_per_order,
    labeled_connected_count,
    labeled_graphs,
    refine_reference,
    subset_orbit_reps_by_mask,
    swaps_with_last,
)
from totecc import ClassConstraint, count_class, families, filter_graphs, parse_constraint
from totecc import enumeration, extremal, graph, graph6, search
from totecc.cli import main
from totecc.canon import _refine, canon, canonical_form, canonical_graph
from totecc.enumeration import (
    _accept,
    _cut_count,
    _degree_cells,
    _degree_masks,
    _extend,
    _is_cut,
    _noncut,
    _parts,
    _subset_orbit_reps,
    connected_graphs,
    roots,
    subtree,
    walk,
)
from totecc.graph import Graph, bits, cut_vertices, girth, is_connected, pendant_vertices

SOURCES = sorted((Path(__file__).parent.parent / "src" / "totecc").glob("*.py"))


class TestStream:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_match_published(self, n):
        assert len(connected_graph_list(n)) == CONNECTED_COUNTS[n]

    def test_all_connected_no_duplicates(self):
        for n in range(1, 7):
            forms = set()
            for g in connected_graphs(n):
                assert g.n == n and is_connected(g)
                f = canonical_form(g)
                assert f not in forms
                forms.add(f)

    def test_deterministic_order(self):
        assert list(connected_graphs(6)) == list(connected_graphs(6))

    def test_subtrees_in_root_order_are_the_stream(self):
        # the roots have order min(n, 6); below 6 each root is its own
        # subtree; the split gives the graphs and cut counts of one walk
        for n in (1, 4, 6, 7, 8):
            rooted = [node for root in roots(n) for node in subtree(root, n)]
            assert [g for g, _ in rooted] == list(connected_graphs(n))
            assert [c for _, c in rooted] == [c for _, c in walk(n, n)]
            assert len(roots(n)) == CONNECTED_COUNTS[min(n, 6)]

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_roots_are_those_of_order_6(self, n):
        # a root carries no generators: subtree finds those it extends with
        assert roots(n) == roots(6)

    def test_roots_run_the_canon_of_the_walk_to_6(self, monkeypatch):
        # roots(8) is the walk to order 6 and runs no canon of its own
        calls = []

        def counting(*args):
            calls.append(args[0])
            return canon(*args)

        monkeypatch.setattr(enumeration, "canon", counting)
        list(walk(6, 6))
        by_walk = len(calls)
        calls.clear()
        roots(8)
        assert len(calls) == by_walk == 59

    @pytest.mark.parametrize("root_order, n", [(6, 5), (5, 7)])
    def test_subtree_rejects_roots_of_another_stream(self, root_order, n):
        # below the wrong order the stream would grow without end
        bad = [r for r in roots(root_order) if r[0].n != min(n, 6)]
        assert bad
        for root in bad:
            with pytest.raises(ValueError):
                subtree(root, n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cut_counts_match_tarjan(self, n):
        assert check_cut_counts(n) == CONNECTED_COUNTS[n]

    @pytest.mark.optin_n9
    @pytest.mark.skipif(not RUN_N9, reason="set TOTECC_RUN_N9=1 for order-9 runs")
    def test_cut_counts_match_tarjan_n9(self):
        assert check_cut_counts(9) == CONNECTED_COUNTS[9]

    def test_range_errors(self):
        with pytest.raises(ValueError):
            list(connected_graphs(0))
        with pytest.raises(ValueError):
            list(connected_graphs(10))  # needs allow_large
        with pytest.raises(ValueError):
            list(connected_graphs(11, allow_large=True))

    @pytest.mark.parametrize("n, allow_large", [(0, False), (10, False), (0, True), (11, True)])
    def test_roots_reject_the_same_orders(self, n, allow_large):
        with pytest.raises(ValueError) as from_stream:
            list(connected_graphs(n, allow_large=allow_large))
        with pytest.raises(ValueError) as from_roots:
            roots(n, allow_large)
        assert str(from_roots.value) == str(from_stream.value)

    def test_order_10_optin_streams(self):
        # full order-10 enumeration is impractical; the stream must start
        first = next(iter(connected_graphs(10, allow_large=True)))
        assert first.n == 10 and is_connected(first)


class TestWalk:
    def test_orders_are_the_streams(self):
        # one walk to 8: its graphs of each order m, with their cut counts,
        # are connected_graphs(m) in order
        by_order = {m: [] for m in range(1, 9)}
        for g, cuts in walk(1, 8):
            by_order[g.n].append((g, cuts))
        for m, nodes in by_order.items():
            assert [g for g, _ in nodes] == list(connected_graphs(m)), m
            assert [c for _, c in nodes] == [len(cut_vertices(g)) for g, _ in nodes], m

    def test_graphs_come_before_the_graphs_grown_from_them(self):
        # stream order: each graph of order m > 1 follows a graph of order
        # m - 1 with no graph of order below m - 1 between them
        orders = [g.n for g, _ in walk(1, 7)]
        for i, m in enumerate(orders[1:], 1):
            above = next(o for o in reversed(orders[:i]) if o < m)
            assert above == m - 1, i

    def test_generators_are_canons(self, monkeypatch):
        # the generators stay in the walk: each inner node of the walk to
        # 7 is extended with those canon finds for it
        extended = []
        original = enumeration._walk

        def recording(g, gens, cuts, lo, hi):
            extended.append((g, gens))
            return original(g, gens, cuts, lo, hi)

        monkeypatch.setattr(enumeration, "_walk", recording)
        inner = [g for g, _ in walk(1, 7) if g.n < 7]
        assert [g for g, _ in extended] == inner
        for g, gens in extended:
            assert gens == canon(g).generators, graph6.encode(g)

    def test_lower_bound_only_drops_graphs(self):
        assert list(walk(4, 6)) == [node for node in walk(1, 6) if node[0].n >= 4]
        assert [g for g, _ in walk(6, 6)] == list(connected_graphs(6))

    @pytest.mark.parametrize("lo, hi", [(0, 5), (6, 5), (1, 0), (1, 10)])
    def test_range_errors(self, lo, hi):
        with pytest.raises(ValueError):
            walk(lo, hi)


def count_accepts(monkeypatch, run):
    """How many times ``run()`` calls enumeration._accept."""
    calls = 0
    original = enumeration._accept

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(enumeration, "_accept", counting)
    run()
    monkeypatch.setattr(enumeration, "_accept", original)
    return calls


class TestFoldOrders:
    def test_one_walk_matches_per_order_oracle(self):
        folds = extremal._fold_walk(1, 8)
        assert sorted(folds) == list(range(1, 9))
        for m in range(1, 9):
            assert folds[m] == fold_per_order(m), m

    @pytest.mark.optin_n9
    @pytest.mark.skipif(not RUN_N9, reason="set TOTECC_RUN_N9=1 for order-9 runs")
    def test_one_walk_matches_per_order_oracle_n9(self):
        folds = extremal._fold_walk(1, 9)
        assert sorted(folds) == list(range(1, 10))
        for m in range(1, 10):
            assert folds[m] == fold_per_order(m), m

    @pytest.mark.parametrize(
        "argv, orders",
        [
            (["verify", "--theorem", "all", "-n", "3..7"], range(3, 8)),
            (["conjecture", "-n", "5..7"], range(5, 8)),
        ],
    )
    def test_range_walks_the_tree_once(self, monkeypatch, capsys, argv, orders):
        # a range's orders are folded from one walk to its top order: the
        # same _accept calls as that walk, fewer than a walk per order
        one_walk = count_accepts(monkeypatch, lambda: list(walk(1, orders[-1])))
        per_order = sum(
            count_accepts(monkeypatch, lambda m=m: list(walk(m, m))) for m in orders
        )
        monkeypatch.setattr(extremal, "_FOLDS", {})
        assert count_accepts(monkeypatch, lambda: main(argv)) == one_walk < per_order
        capsys.readouterr()

    def test_lone_order_walks_to_it(self, monkeypatch):
        monkeypatch.setattr(extremal, "_FOLDS", {})
        lone = count_accepts(monkeypatch, lambda: extremal._fold(6))
        assert lone == count_accepts(monkeypatch, lambda: list(walk(6, 6)))
        assert sorted(extremal._FOLDS) == [6]

    def test_folded_orders_are_kept(self, monkeypatch):
        # a wider range walks again only for the orders it lacks, and keeps
        # the folds already made
        monkeypatch.setattr(extremal, "_FOLDS", {})
        extremal.fold_orders(4, 5)
        kept = dict(extremal._FOLDS)
        assert count_accepts(monkeypatch, lambda: extremal.fold_orders(3, 5)) == count_accepts(
            monkeypatch, lambda: list(walk(3, 3))
        )
        assert count_accepts(monkeypatch, lambda: extremal.fold_orders(2, 5)) == count_accepts(
            monkeypatch, lambda: list(walk(2, 2))
        )
        assert all(extremal._FOLDS[m] is kept[m] for m in kept)
        assert sorted(extremal._FOLDS) == [2, 3, 4, 5]
        assert count_accepts(monkeypatch, lambda: extremal.fold_orders(2, 5)) == 0


def check_cut_counts(n):
    """Check the cut count the stream hands out with every root and every
    order-n graph against Tarjan's; returns the number of order-n graphs."""
    rooted = roots(n)
    for g, cuts in rooted:
        assert cuts == len(cut_vertices(g)), graph6.encode(g)
    count = 0
    for root in rooted:
        for g, cuts in subtree(root, n):
            assert cuts == len(cut_vertices(g)), graph6.encode(g)
            count += 1
    return count


def candidates(max_order):
    """Every candidate child the stream tries below parents of order <= max_order.

    One neighbor subset per orbit of each parent's automorphisms, with no
    mask-size bound; yields (parent, mask, child).
    """
    for m in range(1, max_order + 1):
        for parent in connected_graph_list(m):
            for mask in _subset_orbit_reps(m, canon(parent).generators, 0):
                yield parent, mask, _extend(parent, mask)


def size_bound(parent, parts):
    """The largest degree of a non-cut vertex of ``parent``, as _grow finds it."""
    return max(parent.degree(v) for v in range(parent.n) if len(parts[v]) <= 1)


def decide(parent, mask, last, parts):
    """_accept on the parent's side, as (accepted, generators) like the oracles."""
    child, gens = _accept(parent, _degree_masks(parent, parts), mask, last)
    if child is not None:
        assert child == _extend(parent, mask)
    return child is not None, gens


def accept_by_canon(child):
    """The canonical-deletion test with the full canon search, no pre-test.

    The new vertex is the child's last; it is accepted iff it shares an
    automorphism orbit with the non-cut vertex of highest canonical position.
    """
    res = canon(child)
    cuts = cut_vertices(child)
    pos = {v: i for i, v in enumerate(res.labeling)}
    deletion = max((v for v in range(child.n) if v not in cuts), key=pos.__getitem__)
    return res.orbits[child.n - 1] == res.orbits[deletion], res.generators


def cand_of(child):
    """``cand`` read straight from its definition: the non-cut vertices of
    the last cell of ``_refine(adj, [full], [full])`` that has any."""
    full = (1 << child.n) - 1
    noncut = full
    for v in cut_vertices(child):
        noncut ^= 1 << v
    cells = _refine(child.adj, [full], [full])
    return next(cell & noncut for cell in reversed(cells) if cell & noncut)


def accept_by_refine(child, last):
    """The accept step with every cut vertex and one full refinement, no degree shortcut.

    At the last level the child is accepted without canon when every other
    vertex of ``cand`` swaps with the new vertex by an automorphism,
    checked by relabelling, not from the parent's rows.
    """
    n = child.n
    k = n - 1
    cand = cand_of(child)
    if not cand >> k & 1:
        return False, None
    if last and swaps_with_last(child, cand ^ 1 << k):
        return True, None
    res = canon(child)
    pos = [0] * n
    for i, v in enumerate(res.labeling):
        pos[v] = i
    deletion = max(bits(cand), key=pos.__getitem__)
    return res.orbits[k] == res.orbits[deletion], res.generators


def check_against_refine_oracle(max_order):
    """_accept and accept_by_refine agree on every candidate; returns how many."""
    tried = 0
    for parent, mask, child in candidates(max_order):
        parts = _parts(parent)
        for last in (False, True):
            assert decide(parent, mask, last, parts) == accept_by_refine(child, last), (
                parent,
                mask,
                last,
            )
        tried += 1
    return tried


def check_degree_step(max_order):
    """The per-parent masks against the per-vertex loop on every candidate.

    Both give the same reject and the same non-cut set, and the child's
    cut count is the deletion oracle's; returns (candidates, rejects).
    """
    tried = rejected = 0
    for parent, mask, child in candidates(max_order):
        parts = _parts(parent)
        masks = _degree_masks(parent, parts)
        noncut = _noncut(masks, parent.n, mask)
        assert noncut == degree_step_by_vertex(parent, parts, mask), (parent, mask)
        assert _cut_count(masks, mask) == len(cut_vertices_by_deletion(child)), (parent, mask)
        tried += 1
        rejected += not noncut
    return tried, rejected


class TestAcceptTest:
    def test_degree_masks_match_vertex_loop(self):
        tried, rejected = check_degree_step(6)
        assert tried == 4159 and 0 < rejected < tried

    @pytest.mark.optin_n9
    @pytest.mark.skipif(not RUN_N9, reason="set TOTECC_RUN_N9=1 for order-9 runs")
    def test_degree_masks_match_vertex_loop_n8(self):
        tried, rejected = check_degree_step(7)
        assert tried == 71300 and 0 < rejected < tried

    def test_degree_masks_of_a_parent(self):
        # the masks read straight from their definitions
        for m in range(1, 8):
            for g in connected_graph_list(m):
                parts = _parts(g)
                by_deg, eq, gt, lone, cuts = _degree_masks(g, parts)
                noncut = [v for v in range(m) if len(parts[v]) <= 1]
                for d in range(m + 1):
                    assert by_deg[d] == sum(1 << v for v in range(m) if g.degree(v) == d)
                    assert eq[d] == sum(1 << v for v in noncut if g.degree(v) == d)
                    assert gt[d] == sum(1 << v for v in noncut if g.degree(v) > d)
                assert lone == sum(1 << v for v in noncut if len(parts[v]) == 1)
                assert lone == (0 if m == 1 else sum(1 << v for v in noncut))
                assert cuts == tuple(
                    (v, g.degree(v), parts[v]) for v in range(m) if len(parts[v]) > 1
                )

    def test_degree_cells_are_the_first_refinement_pass(self):
        # _accept starts its refinement from the child's degree cells, built
        # from the parent: they are the cells that the first pass of
        # _refine(adj, [full], [full]) leaves, and refining on from them,
        # with them as splitters, gives the reference's cells
        regular = 0
        for parent, mask, child in candidates(6):
            full = (1 << child.n) - 1
            cells = _degree_cells(_degree_masks(parent, _parts(parent)), parent.n, mask)
            assert _refine(child.adj, [full], [full], lambda out: True) == cells, (parent, mask)
            refined = _refine(child.adj, cells, cells)
            assert refined == refine_reference(child.adj, [full], [full]), (parent, mask)
            # a regular child has one cell, which its degrees never split
            regular += cells == [full]
        assert regular > 0

    def test_fast_decision_matches_canon_oracle(self):
        # every candidate child of every stream parent of order <= 6
        tried = prefiltered = shortcut = twins = 0
        for parent, mask, child in candidates(6):
            expected, gens = accept_by_canon(child)
            parts = _parts(parent)
            inner, inner_gens = decide(parent, mask, False, parts)
            last, last_gens = decide(parent, mask, True, parts)
            tried += 1
            assert inner == last == expected, (parent, mask)
            assert inner_gens in (None, gens) and last_gens in (None, gens)
            if inner_gens is None:
                # a child extended further skips canon only when rejected
                assert not expected and last_gens is None
                prefiltered += 1
            elif last_gens is None:
                shortcut += 1
                # accepted by twin swaps, with vertices besides the new one in cand
                twins += cand_of(child) != 1 << child.n - 1
        # one candidate per canon call the stream made for n = 7 before the pre-test
        assert tried == 4159
        assert prefiltered > 0 and shortcut > 0 and twins > 0

    def test_matches_refine_oracle(self):
        # the degree and deletion shortcuts give the same decisions and
        # generators as reading cand from every cut vertex and one refinement
        assert check_against_refine_oracle(6) == 4159

    @pytest.mark.optin_n9
    @pytest.mark.skipif(not RUN_N9, reason="set TOTECC_RUN_N9=1 for order-9 runs")
    def test_matches_refine_oracle_n8(self):
        assert check_against_refine_oracle(7) == 71300

    def test_parent_side_decision_matches_reference(self):
        # _accept decides from the parent's degrees and components what the
        # old test decided from the built child, and the mask-size bound
        # only skips masks that test rejects
        tried = skipped = 0
        for parent, mask, child in candidates(6):
            parts = _parts(parent)
            bounded = 1 < mask.bit_count() < size_bound(parent, parts)
            for last in (False, True):
                expected = accept_reference(child, last, parts)
                assert decide(parent, mask, last, parts) == expected, (parent, mask, last)
                assert not (bounded and expected[0]), (parent, mask)
            tried += 1
            skipped += bounded
        assert (tried, skipped) == (4159, 1442)

    def test_initial_cells_ascend_by_degree(self):
        # _accept reads cand's degree class before any refinement: it relies
        # on every cell of the initial partition having one degree, and on
        # degrees never decreasing along the cells
        for _, _, child in candidates(6):
            full = (1 << child.n) - 1
            degrees = []
            for cell in _refine(child.adj, [full], [full]):
                cell_degrees = {child.degree(v) for v in bits(cell)}
                assert len(cell_degrees) == 1, child
                degrees += cell_degrees
            assert degrees == sorted(degrees), child

    def test_cut_decision_matches_deletion_oracle(self):
        # every candidate child of every stream parent of order <= 6, each
        # vertex decided from the parent's components alone
        tried = k2 = lone = 0
        for parent, mask, child in candidates(6):
            parts = _parts(parent)
            cuts = {v for v in range(parent.n) if _is_cut(parts[v], mask)}
            assert cuts == cut_vertices_by_deletion(child), (parent, mask)
            tried += 1
            k2 += parent.n == 1
            lone += mask.bit_count() == 1 and parent.n > 1
        assert tried == 4159
        assert k2 == 1 and lone > 0

    def test_parts_are_the_components_less_each_vertex(self):
        for m in range(1, 8):
            for g in connected_graph_list(m):
                for v, comps in enumerate(_parts(g)):
                    rest = (1 << m) - 1 ^ 1 << v
                    union = 0
                    for comp in comps:
                        assert not comp & union and comp & rest == comp
                        union |= comp
                        u = comp.bit_length() - 1
                        assert graph._reach(g.adj, u, 1 << v) == comp
                    assert union == rest

    def test_subset_orbit_reps_match_mask_oracle(self):
        # the same masks in the same order, less those with 1 < |M| < low,
        # for every stream parent of order <= 7 and every bound
        for m in range(1, 8):
            for parent in connected_graph_list(m):
                gens = canon(parent).generators
                reps = list(subset_orbit_reps_by_mask(m, gens))
                # bounds 0 to 2 skip nothing
                for low in (0, *range(3, m + 2)):
                    kept = [mask for mask in reps if not 1 < mask.bit_count() < low]
                    assert list(_subset_orbit_reps(m, gens, low)) == kept, (parent, low)

    def test_initial_refinement_matches_oracle(self):
        # the ordered cells _accept (and canon, from them) start from
        for _, _, child in candidates(6):
            full = (1 << child.n) - 1
            cells = _refine(child.adj, [full], [full])
            assert cells == refine_reference(child.adj, [full], [full]), child

    def test_accept_work_pinned(self, monkeypatch):
        # n = 7 has 4,159 candidates; the mask-size bound skips 1,442, and
        # the degree step, read from the parents, builds 1,324 children and
        # refines 777 of them: at the last level a child whose other
        # non-cut vertices of degree |M| are all twins of the new one is
        # accepted unrefined.  At the last level _twins runs once on each
        # built child and at most once per splitting pass of its
        # refinement, never after it.  The cut tests read the components
        # of each of the 143 parents less each vertex, one search per
        # component, and search no child
        calls = {"_extend": 0, "_refine": 0, "_twins": 0, "_reach": 0, "_tarjan": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(enumeration, "_extend")
        counting(enumeration, "_refine")
        counting(enumeration, "_twins")
        counting(graph, "_reach")
        counting(graph, "_tarjan")
        assert sum(1 for _ in connected_graphs(7)) == 853
        assert calls == {
            "_extend": 1324, "_refine": 777, "_twins": 1543, "_reach": 940, "_tarjan": 0
        }

    def test_canon_calls_pinned(self, monkeypatch):
        # canon on every candidate would be 4,159 calls; the pre-test and the
        # last-level twin acceptance leave 281, and dropping either changes
        # the count
        calls = []

        def counting(*args):
            calls.append(args[0])
            return canon(*args)

        monkeypatch.setattr(enumeration, "canon", counting)
        assert sum(1 for _ in connected_graphs(7)) == 853
        assert len(calls) == 281

    def test_stream_graphs_pass_full_validation(self):
        # the stream builds children with Graph._unchecked; the public
        # constructor runs every __post_init__ check on the same rows
        for n in range(1, 8):
            for g in connected_graphs(n):
                assert Graph(g.n, g.adj) == g

    def test_unchecked_constructor_only_in_extend(self):
        def references(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name == "_unchecked":
                yield scope
            for child in ast.iter_child_nodes(node):
                yield from references(child, scope)

        users = [
            (path.name, scope)
            for path in SOURCES
            for scope in references(ast.parse(path.read_text()), None)
        ]
        assert users == [("enumeration.py", "_extend")]


class TestDedupFallback:
    def test_agrees_with_stream(self):
        for n in range(1, 8):
            a = sorted(canonical_form(g) for g in connected_graphs(n))
            b = sorted(canonical_form(g) for g in connected_graphs_dedup(n))
            assert a == b


class TestLabeledOracle:
    def test_completeness_small(self):
        # every connected labeled graph maps into the emitted representatives
        for n in range(1, 6):
            emitted = {canonical_form(g) for g in connected_graph_list(n)}
            for g in labeled_graphs(n):
                if is_connected(g):
                    assert canonical_form(g) in emitted

    def test_completeness_n6(self):
        emitted = {canonical_form(g) for g in connected_graph_list(6)}
        count = 0
        for g in labeled_graphs(6):
            if is_connected(g):
                assert canonical_form(g) in emitted
                count += 1
        assert count == labeled_connected_count(6) == 26704

    def test_completeness_n7_sampled(self):
        emitted = {canonical_form(g) for g in connected_graph_list(7)}
        rng = random.Random(17)
        pairs = [(u, v) for u in range(7) for v in range(u + 1, 7)]
        hits = 0
        while hits < 2000:
            rows = [0] * 7
            for u, v in pairs:
                if rng.random() < 0.35:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
            from totecc.graph import Graph

            g = Graph(7, tuple(rows))
            if is_connected(g):
                assert canonical_form(g) in emitted
                hits += 1

    @pytest.mark.slow
    def test_completeness_n7_exhaustive(self):
        emitted = {canonical_form(g) for g in connected_graph_list(7)}
        count = 0
        for g in labeled_graphs(7):
            if is_connected(g):
                assert canonical_form(g) in emitted
                count += 1
        assert count == 1866256

    def test_labeled_connected_counts(self):
        assert [labeled_connected_count(n) for n in range(1, 6)] == [1, 1, 4, 38, 728]


class TestClasses:
    def test_tree_counts(self):
        for n in range(1, 8):
            assert count_class(n, ClassConstraint("tree")) == TREE_COUNTS[n]

    def test_trees_on_5(self):
        trees = list(filter_graphs(connected_graph_list(5), ClassConstraint("tree")))
        assert len(trees) == 3

    def test_one_cut_vertex_small(self):
        assert count_class(3, ClassConstraint("cut_count", 1)) == 1
        assert count_class(4, ClassConstraint("cut_count", 1)) == 2

    def test_cut41_members(self):
        members = list(
            filter_graphs(connected_graph_list(4), ClassConstraint("cut_count", 1))
        )
        forms = {canonical_form(g) for g in members}
        assert forms == {
            canonical_form(families.star(4)),
            canonical_form(families.tadpole_l(4, 3)),
        }

    @pytest.mark.parametrize("n", range(3, 8))
    def test_path_is_only_max_cut_graph(self, n):
        members = list(
            filter_graphs(connected_graph_list(n), ClassConstraint("cut_count", n - 2))
        )
        assert len(members) == 1
        assert canonical_form(members[0]) == canonical_form(families.path(n))

    def test_pendant_zero_means_min_degree_2(self):
        for g in filter_graphs(connected_graph_list(6), ClassConstraint("pendant_count", 0)):
            assert min(g.degree(v) for v in range(g.n)) >= 2

    def test_star_is_only_max_pendant_graph(self):
        for n in range(3, 8):
            members = list(
                filter_graphs(
                    connected_graph_list(n), ClassConstraint("pendant_count", n - 1)
                )
            )
            assert [canonical_form(g) for g in members] == [
                canonical_form(families.star(n))
            ]

    def test_all_pendants_only_k2(self):
        assert count_class(2, ClassConstraint("pendant_count", 2)) == 1
        for n in range(3, 8):
            assert count_class(n, ClassConstraint("pendant_count", n)) == 0

    def test_partition_identities(self):
        for n in range(2, 8):
            total = CONNECTED_COUNTS[n]
            by_pendants = sum(
                count_class(n, ClassConstraint("pendant_count", k)) for k in range(n + 1)
            )
            by_cuts = sum(
                count_class(n, ClassConstraint("cut_count", s)) for s in range(n - 1)
            )
            assert by_pendants == by_cuts == total

    def test_trees_by_cuts_equal_trees_by_pendants(self):
        # in a tree every vertex is a cut vertex or a pendant vertex
        for n in range(3, 8):
            for s in range(0, n - 1):
                with_cuts = {
                    canonical_form(g)
                    for g in filter_graphs(
                        connected_graph_list(n), ClassConstraint("cut_count", s)
                    )
                    if g.edge_count == g.n - 1
                }
                with_pendants = {
                    canonical_form(g)
                    for g in filter_graphs(
                        connected_graph_list(n),
                        ClassConstraint("tree_with_pendants", n - s),
                    )
                }
                assert with_cuts == with_pendants

    def test_table_and_stream_profiles_agree(self):
        # count_class and search read the cached per-order fold; filter_graphs
        # lists each graph's classes as it streams by; the oracle reads the
        # invariants directly, and the totals come from one BFS per vertex.
        def oracle(g, c):
            tree, unicyclic = g.edge_count == g.n - 1, g.edge_count == g.n
            pendants, cuts = len(pendant_vertices(g)), len(cut_vertices(g))
            return {
                "all": True,
                "tree": tree,
                "unicyclic": unicyclic,
                "pendant_count": pendants == c.param,
                "cut_count": cuts == c.param,
                "tree_with_pendants": tree and pendants == c.param,
                "unicyclic_girth": unicyclic and girth(g) == c.param,
            }[c.kind]

        for n in range(1, 8):
            graphs = connected_graph_list(n)
            totals = [sum(map(max, distance_matrix(g))) for g in graphs]
            constraints = [ClassConstraint(kind) for kind in ("all", "tree", "unicyclic")]
            constraints += [
                ClassConstraint(kind, k)
                for kind in ("pendant_count", "tree_with_pendants")
                for k in range(n + 1)
            ]
            constraints += [ClassConstraint("cut_count", s) for s in range(max(n - 1, 1))]
            constraints += [ClassConstraint("unicyclic_girth", k) for k in range(3, n + 1)]
            for c in constraints:
                members = [(g, t) for g, t in zip(graphs, totals) if oracle(g, c)]
                streamed = len(list(filter_graphs(graphs, c)))
                assert count_class(n, c) == streamed == len(members), (n, c)
                for objective, pick in (("min", min), ("max", max)):
                    if not members:
                        with pytest.raises(ValueError, match="is empty"):
                            search(n, c, objective)
                        continue
                    best = pick(t for _, t in members)
                    witnesses = sorted(
                        graph6.encode(canonical_graph(g)) for g, t in members if t == best
                    )
                    report = search(n, c, objective)
                    assert report.value == best, (n, c, objective)
                    assert list(report.witnesses) == witnesses, (n, c, objective)
                    assert report.class_size == len(members), (n, c, objective)

    def test_fold_finds_cut_vertices_once_per_graph(self, monkeypatch):
        # the stream finds each graph's cut vertices as it accepts the
        # graph, so the fold runs no search of its own
        calls = []

        def counting(g):
            calls.append(g)
            return cut_vertices(g)

        monkeypatch.setattr(extremal, "cut_vertices", counting)
        for n in range(1, 8):
            extremal._fold_walk(n, n)  # uncached
        extremal._fold_walk(1, 7)  # every order from one walk
        assert calls == []

    def test_fold_finds_pendants_once_per_graph(self, monkeypatch):
        # a tree is in both pendant kinds, which share one pendant count
        cached = extremal._fold(7)
        calls = []

        def counting(g):
            calls.append(g)
            return pendant_vertices(g)

        monkeypatch.setattr(extremal, "pendant_vertices", counting)
        assert extremal._fold_walk(7, 7) == {7: cached}  # uncached, same buckets
        assert calls == list(connected_graph_list(7))
        # one walk over orders 1..7 counts each graph of each order once
        calls.clear()
        extremal._fold_walk(1, 7)
        for n in range(1, 8):
            assert [g for g in calls if g.n == n] == list(connected_graph_list(n))
        assert len(calls) == sum(CONNECTED_COUNTS[n] for n in range(1, 8))

    def test_unicyclic_girth_filter(self):
        members = list(
            filter_graphs(connected_graph_list(6), ClassConstraint("unicyclic_girth", 4))
        )
        assert all(g.edge_count == g.n for g in members)
        tad = families.tadpole_l(6, 4)
        assert canonical_form(tad) in {canonical_form(g) for g in members}


class TestConstraintType:
    def test_parse(self):
        assert parse_constraint("all") == ClassConstraint("all")
        assert parse_constraint("pendant_count=2") == ClassConstraint("pendant_count", 2)
        assert parse_constraint("cut-count=3") == ClassConstraint("cut_count", 3)
        assert parse_constraint("tree") == ClassConstraint("tree")

    def test_str(self):
        assert str(ClassConstraint("unicyclic_girth", 4)) == "unicyclic_girth=4"

    def test_invalid(self):
        with pytest.raises(ValueError):
            ClassConstraint("sparse")
        with pytest.raises(ValueError):
            ClassConstraint("tree", 3)
        with pytest.raises(ValueError):
            ClassConstraint("pendant_count")
        with pytest.raises(ValueError):
            ClassConstraint("unicyclic_girth", 2)
        with pytest.raises(ValueError):
            count_class(5, ClassConstraint("cut_count", 4))
