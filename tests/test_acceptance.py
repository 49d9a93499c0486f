"""Acceptance gate: every criterion at its stated (exact) tolerance.

Each test prints one `ACCEPTANCE <id> ...: PASS/FAIL` line (visible with
-s, or via the captured output of a failing run).  Two genuine source
defects surface here and are handled per their designed mechanisms:

* criterion 5: the claimed uniqueness of the cycle among pendant-free
  graphs fails at n=5 (house, K_{2,3} and one more tie it).  The check is
  asserted as stated and marked strict-xfail with the counterexamples.
* criterion 6: the open conjecture is REFUTED at (n=8, s=2) - the
  two-4-cycles dumbbell beats the claimed maximizer 32 > 31.  The spec
  mandates that violations surface as structured findings, not failures,
  so the audit passes while printing the refutation.

n = 9 runs are opt-in: TOTECC_RUN_N9=1.
"""

import random

import pytest

from conftest import (
    CONNECTED_COUNTS,
    RUN_N9,
    TREE_COUNTS,
    attach_cycles,
    attach_paths,
    attach_tadpole,
    connected_graph_list,
    glue_relocate,
    random_connected_graph,
)
from oracles import cut_vertices_by_deletion, distance_matrix
from totecc import (
    ClassConstraint,
    count_class,
    extremal,
    families,
    filter_graphs,
    formulas,
    graph6,
    transforms,
)
from totecc.canon import canonical_form, canonical_graph
from totecc.extremal import CONJECTURE_VIOLATED, PASS, check_conjecture, verify_theorem
from totecc.graph import (
    Graph,
    cut_vertices,
    eccentricities,
    total_eccentricity,
    wiener_index,
)

LARGE_ORDERS = [61, 76, 93, 120, 151, 176, 199, 200]  # both parities represented


def report(criterion: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {criterion}: PASS {detail}".rstrip())


# --------------------------------------------------------------------------
# Criterion 1: the figure-pair fixture, exact.

def test_criterion_1_example_fixture():
    g1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 2), (1, 3)])
    g2 = Graph.from_edges(5, [(2, 0), (0, 1), (1, 2), (2, 3), (3, 4), (4, 2)])
    assert (wiener_index(g1), total_eccentricity(g1)) == (13, 10)
    assert (wiener_index(g2), total_eccentricity(g2)) == (14, 9)
    report("1 example-fixture", "(W,eps) = (13,10) and (14,9)")


# --------------------------------------------------------------------------
# Criterion 2: formula-construction agreement up to n = 200.

def _agree(formula_value: int, graph) -> None:
    assert formula_value == total_eccentricity(graph)


def test_criterion_2_formula_construction_agreement():
    checked = 0
    for n in list(range(1, 61)) + LARGE_ORDERS:
        _agree(formulas.eps_path(n), families.path(n))
        checked += 1
        if n >= 3:
            _agree(formulas.eps_cycle(n), families.cycle(n))
            _agree(formulas.eps_star(n), families.star(n))
            checked += 2
        if n >= 2:
            _agree(formulas.eps_complete(n), families.complete(n))
            checked += 1
        if n >= 6:
            _agree(formulas.eps_c33(n), families.dumbbell(3, 3, n))
            checked += 1
        if n >= 5:
            _agree(formulas.eps_unicyclic_max(n), families.tadpole_l(n, 3))
            checked += 1
        if n >= 4:
            _agree(formulas.eps_lollipop_max(n), families.tadpole_l(n, n - 1))
            checked += 1

    # double brooms: every (n, k, l) tuple through n = 60, sampled beyond
    for n in range(5, 61):
        for k in range(2, n - 1):
            want = formulas.eps_double_broom_max(n, k)
            for l in range(1, k):
                _agree(want, families.double_broom(l, k - l, n - k))
                checked += 1
    for n in LARGE_ORDERS:
        for k in sorted({2, 3, n // 2, n - 3, n - 2}):
            want = formulas.eps_double_broom_max(n, k)
            for l in sorted({1, k // 2, k - 1}):
                _agree(want, families.double_broom(l, k - l, n - k))
                checked += 1

    # balanced clique-with-paths: every (n, s) through n = 60, sampled beyond
    for n in range(2, 61):
        for s in range(0, n - 1):
            _agree(formulas.eps_kmn_balanced(n, s), families.kmn_balanced(n, s))
            checked += 1
    for n in LARGE_ORDERS:
        for s in sorted({0, 1, 2, n // 3, n // 2, n - 3, n - 2}):
            _agree(formulas.eps_kmn_balanced(n, s), families.kmn_balanced(n, s))
            checked += 1

    # shared-vertex dumbbells: all pairs through n = 60, every split at the large orders
    for m2 in range(3, 31):
        for m1 in range(m2, 62 - m2):
            _agree(
                formulas.eps_dumbbell_shared(m1, m2),
                families.dumbbell(m1, m2, m1 + m2 - 1),
            )
            checked += 1
    for n in LARGE_ORDERS:
        for m2 in range(3, (n + 1) // 2 + 1):
            m1 = n + 1 - m2
            _agree(formulas.eps_dumbbell_shared(m1, m2), families.dumbbell(m1, m2, n))
            checked += 1

    # pendant tadpoles: every girth through n = 60 and at the large orders
    for n in range(4, 61):
        for g in range(3, n):
            _agree(formulas.eps_tadpole_p(n, g), families.tadpole_p(n, g))
            checked += 1
    for n in LARGE_ORDERS:
        for g in range(3, n):
            _agree(formulas.eps_tadpole_p(n, g), families.tadpole_p(n, g))
            checked += 1

    report("2 formula-agreement", f"{checked} (formula, construction) pairs exact")


# --------------------------------------------------------------------------
# Criterion 3: comparison lemmas as inequality sweeps to n = 200.

def test_criterion_3_comparison_lemma_sweeps():
    for n in range(7, 201):
        assert formulas.eps_c33(n) > formulas.eps_cycle(n)
    pairs = 0
    for n in range(7, 201):
        for m2 in range(3, n // 2 + 2):
            m1 = n + 1 - m2
            if m1 < m2 or (m1, m2) == (3, 3):
                continue
            assert formulas.eps_c33(n) > formulas.eps_dumbbell_shared(m1, m2)
            pairs += 1
    for n in range(5, 201):
        for m2 in range(3, n // 2 + 2):
            m1 = n + 1 - m2
            if m1 < m2:
                continue
            lhs = formulas.eps_dumbbell_shared(m1, m2)
            rhs = formulas.eps_lollipop_max(n)
            assert lhs <= rhs
            assert (lhs == rhs) == (m1 % 2 == 0 and m2 == 3)
    for n in range(5, 201):
        for g in range(3, n - 1):
            lo, hi = formulas.eps_tadpole_p(n, g), formulas.eps_tadpole_p(n, g + 1)
            assert lo <= hi and (lo == hi) == (g % 2 == 0)
    report("3 comparison-lemmas", f"zero violations (n <= 200, {pairs} dumbbell pairs)")


# --------------------------------------------------------------------------
# Criterion 4: >= 500 randomized valid applications per rewrite, n <= 12.

def _random_base(rng, lo=2, hi=5):
    return random_connected_graph(rng, rng.randrange(lo, hi), rng.randrange(0, 3))


def test_criterion_4_rewrite_contracts():
    rng = random.Random(20260808)
    counts = dict.fromkeys(
        ["add_edge", "graft", "relocate", "block_to_cycle", "merge", "balance", "shrink"], 0
    )

    while counts["add_edge"] < 500:
        g = random_connected_graph(rng, rng.randrange(3, 13), rng.randrange(0, 12))
        pairs = [
            (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
        ]
        if not pairs:
            continue
        out = transforms.add_edge(g, *rng.choice(pairs))
        assert total_eccentricity(out) <= total_eccentricity(g)
        assert all(a <= b for b, a in zip(eccentricities(g), eccentricities(out)))
        counts["add_edge"] += 1

    while counts["graft"] < 500:
        base = _random_base(rng)
        k = rng.randrange(1, 4)
        l = rng.randrange(k, 5)
        if base.n + k + l > 12:
            continue
        g, site = attach_paths(base, rng.randrange(base.n), k, l)
        out = transforms.graft_edge(g, site)
        assert out.n == g.n
        assert total_eccentricity(out) > total_eccentricity(g)  # strict
        counts["graft"] += 1

    while counts["relocate"] < 500:
        g, site = glue_relocate(rng.randrange(2, 6), rng.randrange(2, 6), rng.randrange(2, 6), rng)
        if g.n > 12:
            continue
        out = transforms.relocate_path(g, site)
        assert out.n == g.n
        assert total_eccentricity(out) > total_eccentricity(g)  # strict
        counts["relocate"] += 1

    while counts["block_to_cycle"] < 500:
        g = random_connected_graph(rng, rng.randrange(4, 13), rng.randrange(1, 10))
        sites = transforms.block_cycle_sites(g)
        if not sites:
            continue
        out = transforms.block_to_cycle(g, rng.choice(sites))
        assert out.n == g.n
        assert total_eccentricity(out) >= total_eccentricity(g)
        counts["block_to_cycle"] += 1

    while counts["merge"] < 500:
        base = _random_base(rng, 2, 5)
        m1, m2 = rng.randrange(3, 6), rng.randrange(3, 6)
        if base.n + m1 + m2 - 2 > 12:
            continue
        g, site = attach_cycles(base, rng.randrange(base.n), m1, m2)
        out = transforms.merge_cycles(g, site)
        assert out.n == g.n
        assert total_eccentricity(out) >= total_eccentricity(g)
        counts["merge"] += 1

    while counts["balance"] < 500:
        m = rng.randrange(2, 6)
        lengths = [rng.randrange(1, 6) for _ in range(m)]
        if sum(lengths) > 12 or max(lengths) - min(lengths) < 2:
            continue
        g = families.complete_with_paths(m, tuple(lengths))
        donor = max(range(m), key=lengths.__getitem__)
        receivers = [j for j in range(m) if lengths[j] <= lengths[donor] - 2]
        site = transforms.BalanceSite(tuple(range(m)), donor, rng.choice(receivers))
        out = transforms.balance_paths(g, site)
        assert out.n == g.n
        assert total_eccentricity(out) <= total_eccentricity(g)
        counts["balance"] += 1

    while counts["shrink"] < 500:
        base = _random_base(rng, 2, 5)
        girth = rng.randrange(4, 7)
        r = girth + rng.randrange(1, 4)
        if base.n + r > 12:
            continue
        g, site = attach_tadpole(base, rng.randrange(base.n), r, girth)
        out = transforms.shrink_girth_to_3(g, site)
        assert out.n == g.n
        assert total_eccentricity(out) > total_eccentricity(g)  # strict
        counts["shrink"] += 1

    assert all(c >= 500 for c in counts.values())
    report("4 rewrite-contracts", f"{sum(counts.values())} applications, all directions hold")


# --------------------------------------------------------------------------
# Criterion 5: exhaustive theorem verification, 3 <= n <= 8 (9 opt-in).

THEOREM_CASES = [
    (n, name)
    for n in range(3, 9)
    for name in sorted(extremal.THEOREMS)
    if n >= extremal.THEOREMS[name].first
]


@pytest.mark.parametrize(
    "n,name",
    THEOREM_CASES,
    ids=[f"n{n}-{name}" for n, name in THEOREM_CASES],
)
def test_criterion_5_theorems(n, name):
    if (n, name) == (5, "pendant-max"):
        pytest.skip("covered by the strict-xfail defect test below")
    verdicts = verify_theorem(name, n)
    assert verdicts, "expected at least one verdict"
    bad = [v for v in verdicts if not v.ok]
    assert not bad, bad
    report(f"5 theorem[{name}, n={n}]", f"{len(verdicts)} verdicts pass")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "source defect: the cycle is claimed to be the UNIQUE pendant-free "
        "maximizer for 3<=n<=6, but at n=5 the house graph, K_{2,3} and one "
        "further graph all tie at eps=10 (every eccentricity 2); value and "
        "membership hold, uniqueness genuinely fails - see the decisions ledger"
    ),
)
def test_criterion_5_pendant_max_n5_uniqueness_as_stated():
    verdicts = verify_theorem("pendant-max", 5)
    bad = [v for v in verdicts if not v.ok]
    assert not bad, bad


def test_criterion_5_pendant_max_n5_value_and_membership_still_hold():
    by_k = {v.parameter: v for v in verify_theorem("pendant-max", 5)}
    v = by_k[0]
    assert v.predicted_value == v.observed_value == 10
    assert set(v.predicted_witnesses) <= set(v.observed_witnesses)
    assert len(v.observed_witnesses) == 4
    others = [x for k, x in by_k.items() if k != 0]
    assert all(x.status == PASS for x in others)
    report(
        "5 theorem[pendant-max, n=5]",
        "value+membership pass; uniqueness refuted by 3 extra witnesses (xfail above)",
    )


@pytest.mark.optin_n9
@pytest.mark.skipif(not RUN_N9, reason="set TOTECC_RUN_N9=1 for order-9 runs")
@pytest.mark.parametrize("name", sorted(extremal.THEOREMS))
def test_criterion_5_theorems_n9(name):
    verdicts = verify_theorem(name, 9)
    bad = [v for v in verdicts if not v.ok]
    assert not bad, bad
    report(f"5 theorem[{name}, n=9]", f"{len(verdicts)} verdicts pass")


# --------------------------------------------------------------------------
# Criterion 6: conjecture audit with structured counterexample reporting.

def _audit_conjecture(n):
    """Run the audit; return (passes, violations) with violations well-formed."""
    verdicts = check_conjecture(n)
    passes, violations = [], []
    for v in verdicts:
        assert v.status in (PASS, CONJECTURE_VIOLATED), v
        if v.status == PASS:
            passes.append(v)
            continue
        assert v.counterexamples, "violation must carry counterexamples"
        for s in v.counterexamples:
            g = graph6.decode(s)  # structured report: graph6 decodes...
            assert len(cut_vertices(g)) == v.parameter  # ...lies in the class...
            assert total_eccentricity(g) == v.observed_value  # ...and attains the max
            assert v.observed_value > v.predicted_value
        violations.append(v)
    return passes, violations


def test_criterion_6_conjecture_audit():
    findings = []
    for n in range(5, 9):
        passes, violations = _audit_conjecture(n)
        if n <= 7:
            assert not violations, violations
        findings.extend(violations)
    # the spec's pre-verified instance
    v62 = {x.parameter: x for x in check_conjecture(6)}[2]
    assert v62.status == PASS and v62.observed_value == 19

    # The audit's expected outcome ("no violation") is overturned at n=8:
    # the conjecture is REFUTED, and the refutation is itself exhaustively
    # verified structured data, exactly what the audit exists to surface.
    assert len(findings) == 1
    v = findings[0]
    assert (v.n, v.parameter) == (8, 2)
    assert v.predicted_value == 31 and v.observed_value == 32
    dumbbell8 = graph6.encode(canonical_graph(families.dumbbell(4, 4, 8)))
    assert dumbbell8 in v.counterexamples
    report(
        "6 conjecture-audit",
        "holds for n<=7; REFUTED at (n=8, s=2): eps(C_{4,4}^8)=32 > 31=eps(U_{8,6}^l) "
        f"with witnesses {list(v.counterexamples)}",
    )


@pytest.mark.optin_n9
@pytest.mark.skipif(not RUN_N9, reason="set TOTECC_RUN_N9=1 for order-9 runs")
def test_criterion_6_conjecture_audit_n9():
    passes, violations = _audit_conjecture(9)
    # the conjecture covers 2 <= s <= n - 4; at n = 9 it fails for s = 2, 3
    assert sorted(v.parameter for v in passes) == [4, 5]
    found = {
        v.parameter: (v.observed_value, v.predicted_value, len(v.counterexamples))
        for v in violations
    }
    assert found == {2: (37, 36, 16), 3: (43, 42, 3)}
    report(
        "6 conjecture-audit n=9",
        "REFUTED at s=2 (37 > 36, 16 witnesses) and s=3 (43 > 42, 3 witnesses); s=4, 5 hold",
    )


# --------------------------------------------------------------------------
# Criterion 7: enumeration correctness against published counts.

def test_criterion_7_enumeration_counts():
    for n in range(1, 9):
        assert len(connected_graph_list(n)) == CONNECTED_COUNTS[n]
        assert count_class(n, ClassConstraint("tree")) == TREE_COUNTS[n]
    members = list(
        filter_graphs(connected_graph_list(4), ClassConstraint("cut_count", 1))
    )
    assert {canonical_form(g) for g in members} == {
        canonical_form(families.star(4)),
        canonical_form(families.tadpole_l(4, 3)),
    }
    assert all(total_eccentricity(g) == 7 for g in members)
    for n in range(3, 9):
        only = list(
            filter_graphs(connected_graph_list(n), ClassConstraint("cut_count", n - 2))
        )
        assert len(only) == 1
        assert canonical_form(only[0]) == canonical_form(families.path(n))
    report("7 enumeration", "class counts and singleton classes match published data")


@pytest.mark.optin_n9
@pytest.mark.skipif(not RUN_N9, reason="set TOTECC_RUN_N9=1 for order-9 runs")
def test_criterion_7_enumeration_counts_n9():
    assert len(connected_graph_list(9)) == CONNECTED_COUNTS[9]
    assert count_class(9, ClassConstraint("tree")) == TREE_COUNTS[9]
    only = list(
        filter_graphs(connected_graph_list(9), ClassConstraint("cut_count", 7))
    )
    assert len(only) == 1
    assert canonical_form(only[0]) == canonical_form(families.path(9))
    report("7 enumeration n=9", "261080 classes, 47 trees, path-only max-cut class")


# --------------------------------------------------------------------------
# Criterion 8: cross-oracle agreement on every graph with n <= 7.

def test_criterion_8_cross_oracles():
    graphs = 0
    for n in range(1, 8):
        for g in connected_graph_list(n):
            assert cut_vertices(g) == cut_vertices_by_deletion(g)
            matrix = distance_matrix(g)
            per_vertex = eccentricities(g)
            assert per_vertex == tuple(max(row) for row in matrix)
            graphs += 1
    assert graphs == sum(CONNECTED_COUNTS[n] for n in range(1, 8))
    report("8 cross-oracles", f"both articulation routes and both eccentricity routes agree on {graphs} graphs")
