"""Exhaustive extremal search and automated theorem/conjecture checking.

search() folds the enumeration stream into an exact extremum with the
complete witness list up to isomorphism.  The verify_* functions turn
each extremal statement into Verdict records; uniqueness is asserted only
where the source states an equivalence ("if and only if" / "uniquely"),
otherwise only witness membership is required and the observed witness
set is reported for inspection.  A conjecture violation is a reportable
finding, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from . import families, formulas, graph6
from .canon import canonical_graph
from .enumeration import ClassConstraint, connected_graph_list
from .graph import Graph, cut_vertices, girth, pendant_vertices, total_eccentricity

PASS = "pass"
FAIL = "fail"
UNIQUENESS_FAIL = "uniqueness-fail"
SKIPPED = "skipped"
CONJECTURE_VIOLATED = "conjecture-violated"


@dataclass(frozen=True)
class ExtremalReport:
    """Extremum of total eccentricity over one class, with all witnesses."""

    n: int
    constraint: ClassConstraint
    objective: str
    value: int
    witnesses: tuple[str, ...]
    class_size: int


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one theorem/conjecture instance."""

    theorem: str
    n: int
    parameter: int | None
    predicted_value: int | None
    predicted_witnesses: tuple[str, ...]
    observed_value: int | None
    observed_witnesses: tuple[str, ...]
    class_size: int
    uniqueness_checked: bool
    status: str
    note: str = ""
    counterexamples: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return self.status in (PASS, SKIPPED)


class _Row(NamedTuple):
    graph: Graph
    eps: int
    pendants: int
    cuts: int
    is_tree: bool
    cycle_len: int | None  # girth when unicyclic, else None


@lru_cache(maxsize=None)
def _class_table(n: int) -> tuple[_Row, ...]:
    rows = []
    for g in connected_graph_list(n):
        unicyclic = g.edge_count == g.n
        rows.append(
            _Row(
                g,
                total_eccentricity(g),
                len(pendant_vertices(g)),
                len(cut_vertices(g)),
                g.edge_count == g.n - 1,
                girth(g) if unicyclic else None,
            )
        )
    return tuple(rows)


def _row_matches(row: _Row, c: ClassConstraint) -> bool:
    kind, k = c.kind, c.param
    if kind == "all":
        return True
    if kind == "pendant_count":
        return row.pendants == k
    if kind == "cut_count":
        return row.cuts == k
    if kind == "tree":
        return row.is_tree
    if kind == "tree_with_pendants":
        return row.is_tree and row.pendants == k
    if kind == "unicyclic":
        return row.cycle_len is not None
    if kind == "unicyclic_girth":
        return row.cycle_len == k
    raise AssertionError(kind)


def _g6(g: Graph) -> str:
    return graph6.encode(canonical_graph(g))


def search(n: int, constraint: ClassConstraint, objective: str) -> ExtremalReport:
    """Exact extremum and complete witness list over one class."""
    if objective not in ("min", "max"):
        raise ValueError("objective must be 'min' or 'max'")
    constraint.validate_for(n)
    report = _search_or_none(n, constraint, objective)
    if report is None:
        raise ValueError(f"class {constraint} is empty at n={n}")
    return report


def _search_or_none(n: int, constraint: ClassConstraint, objective: str) -> ExtremalReport | None:
    best: int | None = None
    witnesses: list[Graph] = []
    size = 0
    better = (lambda a, b: a < b) if objective == "min" else (lambda a, b: a > b)
    for row in _class_table(n):
        if not _row_matches(row, constraint):
            continue
        size += 1
        if best is None or better(row.eps, best):
            best = row.eps
            witnesses = [row.graph]
        elif row.eps == best:
            witnesses.append(row.graph)
    if best is None:
        return None
    encoded = tuple(sorted(_g6(g) for g in witnesses))
    return ExtremalReport(n, constraint, objective, best, encoded, size)


def _verdict(
    theorem: str,
    n: int,
    parameter: int | None,
    predicted_value: int,
    predicted_graphs: list[Graph],
    report: ExtremalReport | None,
    unique: bool,
    note: str = "",
) -> Verdict:
    predicted = tuple(sorted({_g6(g) for g in predicted_graphs}))
    if report is None:
        return Verdict(
            theorem, n, parameter, predicted_value, predicted, None, (), 0, unique, SKIPPED, note
        )
    if predicted_value != report.value:
        status = FAIL
    elif not set(predicted) <= set(report.witnesses):
        status = FAIL
    elif unique and set(report.witnesses) != set(predicted):
        status = UNIQUENESS_FAIL
    else:
        status = PASS
    return Verdict(
        theorem,
        n,
        parameter,
        predicted_value,
        predicted,
        report.value,
        report.witnesses,
        report.class_size,
        unique,
        status,
        note,
    )


def verify_pendant_max(n: int) -> list[Verdict]:
    """Maximum total eccentricity with k pendant vertices, k = 0..n-3.

    k >= 2: the double brooms attain the closed-form bound (membership);
    k = 1: unique maximizer is the triangle tadpole (for n >= 5);
    k = 0: unique maximizer is the two-triangle dumbbell for n >= 7 and
    the cycle for 3 <= n <= 6.
    """
    if not 3 <= n <= 9:
        raise ValueError("verify_pendant_max needs 3 <= n <= 9")
    verdicts = []
    for k in range(0, n - 2):
        report = _search_or_none(n, ClassConstraint("pendant_count", k), "max")
        if k == 0:
            if n >= 7:
                value = formulas.eps_c33(n)
                witnesses = [families.dumbbell(3, 3, n)]
            else:
                value = formulas.eps_cycle(n)
                witnesses = [families.cycle(n)]
            unique = True
        elif k == 1:
            g = families.tadpole_l(n, 3)
            value = total_eccentricity(g)
            witnesses = [g]
            unique = n >= 5
        else:
            value = formulas.eps_double_broom_max(n, k)
            witnesses = [families.double_broom(l, k - l, n - k) for l in range(1, k)]
            unique = False
        verdicts.append(_verdict("pendant-max", n, k, value, witnesses, report, unique))
    return verdicts


def verify_pendant_min(n: int) -> list[Verdict]:
    """Minimum total eccentricity with k pendant vertices.

    k = 0 is uniquely minimized by the complete graph; for 1 <= k <= n-3
    the minimum is 2n-1 with the pendant-decorated clique among the
    witnesses (uniqueness is not claimed).
    """
    if not 3 <= n <= 9:
        raise ValueError("verify_pendant_min needs 3 <= n <= 9")
    verdicts = [
        _verdict(
            "pendant-min",
            n,
            0,
            n,
            [families.complete(n)],
            _search_or_none(n, ClassConstraint("pendant_count", 0), "min"),
            True,
        )
    ]
    for k in range(1, n - 2):
        report = _search_or_none(n, ClassConstraint("pendant_count", k), "min")
        witnesses = [families.complete_with_pendants(n, k)]
        verdicts.append(_verdict("pendant-min", n, k, 2 * n - 1, witnesses, report, False))
    return verdicts


def verify_unicyclic(n: int) -> list[Verdict]:
    """Unicyclic minimum (pendant tadpole) and maximum (path tadpole).

    Both bounds are equalities exactly at the girth-3 tadpoles, so
    uniqueness is asserted on both sides.
    """
    if not 5 <= n <= 9:
        raise ValueError("verify_unicyclic needs 5 <= n <= 9")
    constraint = ClassConstraint("unicyclic")
    lo = _verdict(
        "unicyclic-min",
        n,
        None,
        2 * n - 1,
        [families.tadpole_p(n, 3)],
        _search_or_none(n, constraint, "min"),
        True,
    )
    hi = _verdict(
        "unicyclic-max",
        n,
        None,
        formulas.eps_unicyclic_max(n),
        [families.tadpole_l(n, 3)],
        _search_or_none(n, constraint, "max"),
        True,
    )
    return [lo, hi]


def verify_cut_min(n: int) -> list[Verdict]:
    """Minimum with s cut vertices: the balanced clique-with-paths value."""
    if not 3 <= n <= 9:
        raise ValueError("verify_cut_min needs 3 <= n <= 9")
    verdicts = []
    for s in range(0, n - 1):
        report = _search_or_none(n, ClassConstraint("cut_count", s), "min")
        value = formulas.eps_kmn_balanced(n, s)
        witnesses = [families.kmn_balanced(n, s)]
        verdicts.append(_verdict("cut-min", n, s, value, witnesses, report, False))
    return verdicts


def verify_cut_max(n: int) -> list[Verdict]:
    """Maximum with s cut vertices for the settled cases s = 0, 1, n-3, n-2."""
    if not 3 <= n <= 9:
        raise ValueError("verify_cut_max needs 3 <= n <= 9")
    verdicts = []
    for s in sorted({0, 1, n - 3, n - 2} & set(range(0, n - 1))):
        report = _search_or_none(n, ClassConstraint("cut_count", s), "max")
        note = ""
        if s == n - 2:
            value = formulas.eps_path(n)
            witnesses = [families.path(n)]
            unique = True
            note = "singleton class: the path"
        elif s == 0:
            value = formulas.eps_cycle(n)
            witnesses = [families.cycle(n)]
            unique = False
        elif s == 1 == n - 3:
            value = 7
            witnesses = [families.star(4), families.tadpole_l(4, 3)]
            unique = True
            note = "n=4: the star and the triangle tadpole tie"
        elif s == 1:
            value = formulas.eps_lollipop_max(n)
            witnesses = [families.tadpole_l(n, n - 1)]
            unique = False
        else:  # s == n - 3, n >= 5
            value = formulas.eps_unicyclic_max(n)
            witnesses = [families.tadpole_l(n, 3)]
            unique = False
        verdicts.append(_verdict("cut-max", n, s, value, witnesses, report, unique, note))
    return verdicts


def check_conjecture(n: int) -> list[Verdict]:
    """Audit: is the max over s cut vertices attained by the tadpole U_{n,n-s}^l?

    A violation is reported as a structured finding (counterexample graphs
    in graph6 with their totals), not raised as an error.
    """
    if not 5 <= n <= 9:
        raise ValueError("check_conjecture needs 5 <= n <= 9")
    verdicts = []
    for s in range(2, n - 3):
        tad = families.tadpole_l(n, n - s)
        value = total_eccentricity(tad)
        report = _search_or_none(n, ClassConstraint("cut_count", s), "max")
        base = _verdict("conjecture", n, s, value, [tad], report, False)
        if base.status == FAIL and report is not None and report.value > value:
            over = [w for w in report.witnesses]
            base = Verdict(
                base.theorem,
                n,
                s,
                value,
                base.predicted_witnesses,
                report.value,
                report.witnesses,
                report.class_size,
                False,
                CONJECTURE_VIOLATED,
                f"max {report.value} exceeds tadpole value {value}",
                tuple(over),
            )
        verdicts.append(base)
    return verdicts


def verify_tree_theorems(n: int) -> list[Verdict]:
    """Tree extremes with k pendant vertices, k = 2..n-1.

    Maximum: every double broom T(l, k-l, n-k) attains it (all l give one
    value).  Minimum: the balanced spider when k does not divide n-2,
    otherwise every two-hub spider T^t.  Values come from BFS on the
    constructed trees; closed forms for the minima are out of scope.
    """
    if not 4 <= n <= 9:
        raise ValueError("verify_tree_theorems needs 4 <= n <= 9")
    verdicts = []
    for k in range(2, n):
        constraint = ClassConstraint("tree_with_pendants", k)
        report_max = _search_or_none(n, constraint, "max")
        report_min = _search_or_none(n, constraint, "min")
        if k == n - 1:
            star = families.star(n)
            value = total_eccentricity(star)
            verdicts.append(_verdict("tree-max", n, k, value, [star], report_max, True))
            verdicts.append(_verdict("tree-min", n, k, value, [star], report_min, True))
            continue
        brooms = [families.double_broom(l, k - l, n - k) for l in range(1, k)]
        broom_values = {total_eccentricity(t) for t in brooms}
        if len(broom_values) != 1:
            raise RuntimeError(f"double brooms disagree at (n={n}, k={k})")
        verdicts.append(
            _verdict("tree-max", n, k, broom_values.pop(), brooms, report_max, False)
        )
        if (n - 2) % k == 0:
            minimizers = [families.double_spider(n, k, t) for t in range(1, k)]
        else:
            minimizers = [families.spider_balanced(n, k)]
        min_values = {total_eccentricity(t) for t in minimizers}
        if len(min_values) != 1:
            raise RuntimeError(f"spider minimizers disagree at (n={n}, k={k})")
        verdicts.append(
            _verdict("tree-min", n, k, min_values.pop(), minimizers, report_min, False)
        )
    return verdicts


THEOREMS = {
    "pendant-max": (verify_pendant_max, range(3, 10)),
    "pendant-min": (verify_pendant_min, range(3, 10)),
    "unicyclic": (verify_unicyclic, range(5, 10)),
    "cut-min": (verify_cut_min, range(3, 10)),
    "cut-max": (verify_cut_max, range(3, 10)),
    "tree": (verify_tree_theorems, range(4, 10)),
}


def verify_theorem(theorem: str, n: int) -> list[Verdict]:
    """Dispatch one named theorem at one order (empty if n out of range)."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; known: {sorted(THEOREMS)}")
    fn, valid = THEOREMS[theorem]
    if n not in valid:
        return []
    return fn(n)
