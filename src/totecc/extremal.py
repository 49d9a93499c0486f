"""Class membership, exhaustive extremal search and theorem/conjecture checking.

_KINDS, one row per class kind (the edge count its members need and the
invariant that gives its parameter), is the one definition of class
membership.  _classes(g) reads from it the (kind, parameter) key of every
class a connected graph is in; filter_graphs asks _classes for one kind,
so it computes only that kind's parameter.  The fold of an order keeps
for every key one _Extrema record: the class's member count, and its
least and greatest total eccentricity, each with the graphs attaining
it.  So an extremum over a class and its complete witness list up to
isomorphism are read off one record, and the fold never holds the class
list.  fold_orders(lo, hi) folds every order of a range from one walk of
the growth tree to order hi (enumeration.walk), batch by batch, since
the lower orders are inner nodes of that tree; verify and conjecture
call it once for their range, and _fold(n) alone walks only to n.  The
walk supplies each graph's cut-vertex count, so the fold runs no
cut-vertex search.
Each theorem is a table row: the least order it covers, its parameters
per order, and for each parameter one or more statements (class,
objective, predicted extremum and extremal graphs), all checked by
_check into Verdict records.  A row names no greatest order: that is the
stream's cap, which enumeration.check_order alone applies.  Uniqueness
is asserted only where the source states an equivalence ("if and only
if" / "uniquely"), otherwise only witness membership is required and the
observed witness set is reported for inspection.  A conjecture violation
is a reportable finding, never an exception.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple

from . import families, formulas, graph6
from .canon import canonical_graph
# connected_graph_list and pendant_vertices are unused here but stay bound:
# perfbench/spans.py wraps them by this module's name.
from .enumeration import MAX_EXHAUSTIVE, check_order, connected_graph_list, walk
from .graph import Graph, _degrees, cut_vertices, girth, pendant_vertices, total_eccentricity

PASS = "pass"
FAIL = "fail"
UNIQUENESS_FAIL = "uniqueness-fail"
SKIPPED = "skipped"
CONJECTURE_VIOLATED = "conjecture-violated"


class _Kind(NamedTuple):
    """A class kind: the edge count it needs, and how a graph gives its parameter."""

    excess: int | None  # edges minus vertices of every member; None: any graph
    # From the graph and its degrees (graph._degrees); None: no parameter
    param: Callable[[Graph, bytes], int | None] | None


def _pendant_count(g: Graph, degrees: bytes) -> int:
    return degrees.count(1)


def _cut_count(g: Graph, degrees: bytes) -> int:
    return len(cut_vertices(g))


# Each class kind.  The parameter functions that search look their
# invariant up at call time, so a wrapper bound to this module's name (a
# call counter) sees every call.  The two pendant kinds share one
# function, which _classes runs once.
_KINDS = {
    "all": _Kind(None, None),
    "pendant_count": _Kind(None, _pendant_count),
    "cut_count": _Kind(None, _cut_count),
    "tree": _Kind(-1, None),
    "tree_with_pendants": _Kind(-1, _pendant_count),
    "unicyclic": _Kind(0, None),
    "unicyclic_girth": _Kind(0, lambda g, _: girth(g)),
}


class _ConstraintFields(NamedTuple):
    kind: str
    param: int | None = None


class ClassConstraint(_ConstraintFields):
    """Predicate picking one of the graph classes under study."""

    __slots__ = ()

    def __new__(cls, kind: str, param: int | None = None) -> ClassConstraint:
        if kind not in _KINDS:
            raise ValueError(f"unknown class kind {kind!r}")
        if _KINDS[kind].param is not None:
            if param is None or param < 0:
                raise ValueError(f"class {kind} needs a parameter >= 0")
            if kind == "unicyclic_girth" and param < 3:
                raise ValueError("girth parameter must be >= 3")
        elif param is not None:
            raise ValueError(f"class {kind} takes no parameter")
        return super().__new__(cls, kind, param)

    def validate_for(self, n: int) -> None:
        """Range checks that depend on the order under enumeration."""
        k = self.param
        if self.kind in ("pendant_count", "tree_with_pendants") and not 0 <= k <= n:
            raise ValueError(f"pendant count must be in 0..{n}")
        if self.kind == "cut_count" and not 0 <= k <= max(n - 2, 0):
            raise ValueError(f"cut count must be in 0..{max(n - 2, 0)}")
        if self.kind == "unicyclic_girth" and not 3 <= k <= n:
            raise ValueError(f"girth must be in 3..{n}")

    def __str__(self) -> str:
        return self.kind if self.param is None else f"{self.kind}={self.param}"


def parse_constraint(text: str) -> ClassConstraint:
    """Parse CLI spellings like 'all', 'tree', 'pendant_count=2', 'cut_count=3'."""
    t = text.strip().lower().replace("-", "_")
    if "=" in t:
        kind, _, value = t.partition("=")
        return ClassConstraint(kind, int(value))
    return ClassConstraint(t)


def _classes(
    g: Graph, kinds: Iterable[str] = _KINDS, cuts: int | None = None
) -> list[tuple[str, int | None]]:
    """The (kind, parameter) key of every class of the given kinds that g is in.

    g is connected; only the parameters of the kinds asked for are computed,
    each once.  g's degrees are read once, for the edge count and the
    pendant count.  ``cuts``, when given, is g's number of cut vertices,
    taken as its ``cut_count`` parameter in place of a search.
    """
    degrees = _degrees(g.adj)
    excess = sum(degrees) // 2 - g.n
    keys = []
    values: dict[Callable[[Graph, bytes], int | None] | None, int | None] = {None: None}
    if cuts is not None:
        values[_cut_count] = cuts
    for kind in kinds:
        needs, param = _KINDS[kind]
        if needs is None or needs == excess:
            if param not in values:
                values[param] = param(g, degrees)
            keys.append((kind, values[param]))
    return keys


class _Extrema:
    """One class at one order: its member count, and its least and greatest
    totals, each with the members attaining it in stream order."""

    __slots__ = ("count", "low", "lows", "high", "highs")

    def __init__(
        self, count: int, low: int, lows: list[Graph], high: int, highs: list[Graph]
    ) -> None:
        self.count = count
        self.low, self.lows = low, lows
        self.high, self.highs = high, highs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return all(getattr(self, s) == getattr(other, s) for s in self.__slots__)
        return NotImplemented

    def add(self, g: Graph, eps: int) -> None:
        self.count += 1
        if eps < self.low:
            self.low, self.lows = eps, [g]
        elif eps == self.low:
            self.lows.append(g)
        if eps > self.high:
            self.high, self.highs = eps, [g]
        elif eps == self.high:
            self.highs.append(g)


#: Graphs folded per batch of the walk.  Batches of 2,048 raised the
#: peak RSS of verify -n 3..8 by 0.6 MB over batches of 256, at the same
#: speed.
_BATCH = 256

#: One order's class extrema, by class key.
Fold = dict[tuple[str, int | None], _Extrema]

#: Every order's fold found so far, by order.
_FOLDS: dict[int, Fold] = {}


def _fold_walk(lo: int, hi: int) -> dict[int, Fold]:
    """The extrema of every class with members at each order lo..hi, from one walk."""
    folds: dict[int, Fold] = {m: {} for m in range(lo, hi + 1)}
    nodes = walk(lo, hi)
    # The walk is folded in batches: folding graph by graph as the walk
    # yields them made verify -n 3..8 slower (0.509 against 0.466 s in
    # process, median of six interleaved runs, CPython 3.11), and one
    # batch is a small part of the class list.
    while batch := list(islice(nodes, _BATCH)):
        for g, cuts in batch:
            fold = folds[g.n]
            eps = total_eccentricity(g)
            for key in _classes(g, cuts=cuts):
                record = fold.get(key)
                if record is None:
                    fold[key] = _Extrema(1, eps, [g], eps, [g])
                else:
                    record.add(g, eps)
    return folds


def fold_orders(lo: int, hi: int) -> None:
    """Fold every order lo..hi not folded yet, from one walk of the growth tree.

    verify and conjecture call this once for their whole range, so that
    the graphs of lower orders, the inner nodes of the tree to the top
    order, are not grown again for each order.
    """
    todo = [m for m in range(lo, hi + 1) if m not in _FOLDS]
    if todo:
        for m, fold in _fold_walk(todo[0], todo[-1]).items():
            _FOLDS.setdefault(m, fold)


def _fold(n: int) -> Fold:
    """The extrema of every class with members at order n; a lone order walks only to n."""
    if n not in _FOLDS:
        fold_orders(n, n)
    return _FOLDS[n]


def filter_graphs(stream: Iterable[Graph], constraint: ClassConstraint) -> Iterator[Graph]:
    """Members of the stream that are in the class, by its kind's parameter alone."""
    kinds, key = (constraint.kind,), (constraint.kind, constraint.param)
    return (g for g in stream if _classes(g, kinds) == [key])


def count_class(n: int, constraint: ClassConstraint) -> int:
    """Cardinality of the constrained class among order-n representatives."""
    constraint.validate_for(n)
    record = _fold(n).get((constraint.kind, constraint.param))
    return 0 if record is None else record.count


class ExtremalReport(NamedTuple):
    """Extremum of total eccentricity over one class, with all witnesses."""

    n: int
    constraint: ClassConstraint
    objective: str
    value: int
    witnesses: tuple[str, ...]
    class_size: int


class Verdict(NamedTuple):
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
    counterexamples: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status in (PASS, SKIPPED)


@lru_cache(maxsize=None)
def _g6(g: Graph) -> str:
    # Memoised by value: witnesses recur across theorem rows and orders.
    # canonical_graph is looked up in this module at each miss, so a
    # wrapper bound over extremal.canonical_graph sees every distinct graph.
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
    record = _fold(n).get((constraint.kind, constraint.param))
    if record is None:
        return None
    if objective == "min":
        best, graphs = record.low, record.lows
    else:
        best, graphs = record.high, record.highs
    encoded = tuple(sorted(_g6(g) for g in graphs))
    return ExtremalReport(n, constraint, objective, best, encoded, record.count)


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


class _Prediction(NamedTuple):
    value: int
    witnesses: list[Graph]
    unique: bool
    note: str = ""


class _Statement(NamedTuple):
    """One extremal claim: over ClassConstraint(kind, parameter), objective is predicted."""

    theorem: str
    kind: str
    objective: str
    predict: Callable[[int, int | None], _Prediction]


class _Theorem(NamedTuple):
    """The least order a theorem covers, its parameters per order, and its statements."""

    first: int
    parameters: Callable[[int], Iterable[int | None]]
    statements: tuple[_Statement, ...]


def _check(theorem: _Theorem, n: int) -> list[Verdict]:
    """Verdicts for every parameter at order n, statements in row order."""
    verdicts = []
    for p in theorem.parameters(n):
        for st in theorem.statements:
            value, witnesses, unique, note = st.predict(n, p)
            report = _search_or_none(n, ClassConstraint(st.kind, p), st.objective)
            verdicts.append(_verdict(st.theorem, n, p, value, witnesses, report, unique, note))
    return verdicts


def _common_value(graphs: list[Graph], what: str, n: int, k: int) -> int:
    """The one total shared by graphs that must tie; raises if they do not."""
    values = {total_eccentricity(g) for g in graphs}
    if len(values) != 1:
        raise RuntimeError(f"{what} disagree at (n={n}, k={k})")
    return values.pop()


def _pendant_max(n: int, k: int) -> _Prediction:
    """k >= 2: the double brooms attain the closed-form bound (membership);
    k = 1: unique maximizer is the triangle tadpole (for n >= 5);
    k = 0: unique maximizer is the two-triangle dumbbell for n >= 7 and
    the cycle for 3 <= n <= 6.
    """
    if k == 0 and n >= 7:
        return _Prediction(formulas.eps_c33(n), [families.dumbbell(3, 3, n)], True)
    if k == 0:
        return _Prediction(formulas.eps_cycle(n), [families.cycle(n)], True)
    if k == 1:
        g = families.tadpole_l(n, 3)
        return _Prediction(total_eccentricity(g), [g], n >= 5)
    brooms = [families.double_broom(l, k - l, n - k) for l in range(1, k)]
    return _Prediction(formulas.eps_double_broom_max(n, k), brooms, False)


def _pendant_min(n: int, k: int) -> _Prediction:
    """k = 0 is uniquely minimized by the complete graph; for 1 <= k <= n-3
    the minimum is 2n-1 with the pendant-decorated clique among the
    witnesses (uniqueness is not claimed).
    """
    if k == 0:
        return _Prediction(n, [families.complete(n)], True)
    return _Prediction(2 * n - 1, [families.complete_with_pendants(n, k)], False)


# The unicyclic bounds are equalities exactly at the girth-3 tadpoles, so
# uniqueness is asserted on both sides.
def _unicyclic_min(n: int, _: None) -> _Prediction:
    return _Prediction(2 * n - 1, [families.tadpole_p(n, 3)], True)


def _unicyclic_max(n: int, _: None) -> _Prediction:
    return _Prediction(formulas.eps_unicyclic_max(n), [families.tadpole_l(n, 3)], True)


def _cut_min(n: int, s: int) -> _Prediction:
    """The balanced clique-with-paths value."""
    return _Prediction(formulas.eps_kmn_balanced(n, s), [families.kmn_balanced(n, s)], False)


def _cut_max(n: int, s: int) -> _Prediction:
    """The settled cases s = 0, 1, n-3, n-2."""
    if s == n - 2:
        return _Prediction(formulas.eps_path(n), [families.path(n)], True, "singleton class: the path")
    if s == 0:
        return _Prediction(formulas.eps_cycle(n), [families.cycle(n)], False)
    if s == 1 == n - 3:
        witnesses = [families.star(4), families.tadpole_l(4, 3)]
        return _Prediction(7, witnesses, True, "n=4: the star and the triangle tadpole tie")
    if s == 1:
        return _Prediction(formulas.eps_lollipop_max(n), [families.tadpole_l(n, n - 1)], False)
    # s == n - 3, n >= 5
    return _Prediction(formulas.eps_unicyclic_max(n), [families.tadpole_l(n, 3)], False)


def _tree_max(n: int, k: int) -> _Prediction:
    """Every double broom T(l, k-l, n-k) attains it (all l give one value)."""
    if k == n - 1:
        return _star(n)
    brooms = [families.double_broom(l, k - l, n - k) for l in range(1, k)]
    return _Prediction(_common_value(brooms, "double brooms", n, k), brooms, False)


def _tree_min(n: int, k: int) -> _Prediction:
    """The balanced spider when k does not divide n-2, otherwise every
    two-hub spider T^t.  Values come from BFS on the constructed trees;
    closed forms for the minima are out of scope.
    """
    if k == n - 1:
        return _star(n)
    if (n - 2) % k == 0:
        spiders = [families.double_spider(n, k, t) for t in range(1, k)]
    else:
        spiders = [families.spider_balanced(n, k)]
    return _Prediction(_common_value(spiders, "spider minimizers", n, k), spiders, False)


def _star(n: int) -> _Prediction:
    """The star is the only tree with n-1 pendant vertices."""
    star = families.star(n)
    return _Prediction(total_eccentricity(star), [star], True)


def _conjecture(n: int, s: int) -> _Prediction:
    """The max over s cut vertices is attained by the tadpole U_{n,n-s}^l."""
    tad = families.tadpole_l(n, n - s)
    return _Prediction(total_eccentricity(tad), [tad], False)


THEOREMS = {
    # Maximum and minimum total eccentricity with k pendant vertices.
    "pendant-max": _Theorem(
        3,
        lambda n: range(0, n - 2),
        (_Statement("pendant-max", "pendant_count", "max", _pendant_max),),
    ),
    "pendant-min": _Theorem(
        3,
        lambda n: range(0, n - 2),
        (_Statement("pendant-min", "pendant_count", "min", _pendant_min),),
    ),
    # Unicyclic minimum (pendant tadpole) and maximum (path tadpole).
    "unicyclic": _Theorem(
        5,
        lambda n: (None,),
        (
            _Statement("unicyclic-min", "unicyclic", "min", _unicyclic_min),
            _Statement("unicyclic-max", "unicyclic", "max", _unicyclic_max),
        ),
    ),
    # Minimum with s cut vertices, and the maximum where it is settled.
    "cut-min": _Theorem(
        3,
        lambda n: range(0, n - 1),
        (_Statement("cut-min", "cut_count", "min", _cut_min),),
    ),
    "cut-max": _Theorem(
        3,
        lambda n: sorted({0, 1, n - 3, n - 2} & set(range(0, n - 1))),
        (_Statement("cut-max", "cut_count", "max", _cut_max),),
    ),
    # Tree extremes with k pendant vertices, k = 2..n-1.
    "tree": _Theorem(
        4,
        lambda n: range(2, n),
        (
            _Statement("tree-max", "tree_with_pendants", "max", _tree_max),
            _Statement("tree-min", "tree_with_pendants", "min", _tree_min),
        ),
    ),
}

# The open case 2 <= s <= n-4 of the maximum with s cut vertices.
CONJECTURE = _Theorem(
    5,
    lambda n: range(2, n - 3),
    (_Statement("conjecture", "cut_count", "max", _conjecture),),
)


def verify_theorem(theorem: str, n: int) -> list[Verdict]:
    """Dispatch one named theorem at one order: empty below the row's first order.

    An order past the stream's cap raises check_order's ValueError.
    """
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; known: {sorted(THEOREMS)}")
    check_order(n)
    row = THEOREMS[theorem]
    return _check(row, n) if n >= row.first else []


def check_conjecture(n: int) -> list[Verdict]:
    """Audit: is the max over s cut vertices attained by the tadpole U_{n,n-s}^l?

    A violation is reported as a structured finding (counterexample graphs
    in graph6 with their totals), not raised as an error.
    """
    if not CONJECTURE.first <= n <= MAX_EXHAUSTIVE:
        raise ValueError(f"check_conjecture needs {CONJECTURE.first} <= n <= {MAX_EXHAUSTIVE}")
    return [
        v._replace(
            status=CONJECTURE_VIOLATED,
            note=f"max {v.observed_value} exceeds tadpole value {v.predicted_value}",
            counterexamples=v.observed_witnesses,
        )
        if v.status == FAIL and v.observed_value > v.predicted_value
        else v
        for v in _check(CONJECTURE, n)
    ]
