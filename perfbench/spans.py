"""Per-layer spans for the traced run, from wrappers that live only here.

``from .graph import x`` binds ``x`` in the importing module at import
time, so each wrapper is installed on every binding of the original
function across the loaded totecc modules.  A span records its name,
start, end and parent; self time is a span's duration minus the time its
child spans cover.  Spans are kept in typed arrays and written out once
the timed window has ended.
"""

from __future__ import annotations

import gc
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

# Eccentricity entry points; the kernel is counted once per outermost call.
ECC_FUNCTIONS = (
    "total_eccentricity",
    "eccentricities",
    "eccentricity",
    "diameter",
    "radius",
    "center",
    "average_eccentricity",
)
CUT_FUNCTIONS = ("cut_vertices", "blocks")
# The invariants the class table computes per graph, as extremal binds them.
INVARIANT_FUNCTIONS = ("total_eccentricity", "pendant_vertices", "cut_vertices", "girth")
FOLD_FUNCTIONS = ("verify_theorem", "check_conjecture", "search")

PER_LAYER = (
    ("canon.calls", "count"),
    ("canon.s", "s"),
    ("enumeration.graphs_per_canon", "ratio"),
    ("enumeration.self_s", "s"),
    ("graph.build.calls", "count"),
    ("graph.build_s", "s"),
    ("graph.ecc.calls", "count"),
    ("graph.ecc_sources", "count"),
    ("graph.ecc_s", "s"),
    ("graph.cut.calls", "count"),
    ("graph.cut_s", "s"),
    ("graph6.encode.calls", "count"),
    ("graph6.encode_s", "s"),
    ("extremal.enumerate_s", "s"),
    ("extremal.invariants_s", "s"),
    ("extremal.fold_s", "s"),
    ("extremal.witness_canon.calls", "count"),
    ("extremal.witness_canon_s", "s"),
    ("families.build.calls", "count"),
    ("families.build_s", "s"),
    ("formulas.calls", "count"),
    ("formulas_s", "s"),
    ("transforms.sites.calls", "count"),
    ("transforms.sites.found", "count"),
    ("transforms.sites_s", "s"),
    ("transforms.apply.calls", "count"),
    ("transforms.apply_s", "s"),
    ("cli.self_s", "s"),
    ("runtime.gc.collections", "count"),
    ("runtime.gc_s", "s"),
)


def _public_functions(module, exclude=()) -> list[str]:
    return [
        name
        for name, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not name.startswith("_")
        and name not in exclude
    ]


class Tracer:
    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._depth: Counter = Counter()
        self.counts: Counter = Counter()
        self._gc_start = 0.0

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, outermost: bool = False, on_result=None):
        """``fn`` inside a span; with ``outermost`` nested calls add none."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            if outermost and self._depth[name]:
                return fn(*args, **kwargs)
            self._depth[name] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._depth[name] -= 1
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Each ``next`` of the generator ``fn`` returns is one span."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[name + ".emitted"] += 1
                yield item

        return traced

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.counts["gc.collections"] += 1
            self.counts["gc.ns"] += int((perf_counter() - self._gc_start) * 1e9)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer boundaries of the already imported totecc package."""
        mods = {
            name.rpartition(".")[2]: mod
            for name, mod in sys.modules.items()
            if name.startswith("totecc.")
        }
        everywhere = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "totecc"]
        graph, extremal = mods["graph"], mods["extremal"]
        transforms = mods["transforms"]

        def rebind(original, wrapper, modules=everywhere) -> None:
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

        def count_sources(args, _result) -> None:
            self.counts["ecc_sources"] += 1 if len(args) > 1 else args[0].n

        def count_sites(_args, result) -> None:
            self.counts["sites_found"] += len(result)

        graph_wrappers = {}
        for name in ECC_FUNCTIONS:
            graph_wrappers[name] = self.wrap("graph.ecc", getattr(graph, name), True, count_sources)
        for name in CUT_FUNCTIONS:
            graph_wrappers[name] = self.wrap("graph.cut", getattr(graph, name), True)

        # extremal's own bindings first, each around the graph-level wrapper.
        for name in INVARIANT_FUNCTIONS:
            inner = graph_wrappers.get(name, getattr(extremal, name))
            setattr(extremal, name, self.wrap("extremal.invariants", inner))
        extremal.connected_graph_list = self.wrap(
            "extremal.enumerate", extremal.connected_graph_list
        )
        extremal.canonical_graph = self.wrap("extremal.witness_canon", extremal.canonical_graph)
        for name in FOLD_FUNCTIONS:
            setattr(extremal, name, self.wrap("extremal.fold", getattr(extremal, name)))

        for name, wrapper in graph_wrappers.items():
            rebind(getattr(graph, name), wrapper)
        rebind(mods["canon"].canon, self.wrap("canon", mods["canon"].canon))
        enumeration = mods["enumeration"]
        rebind(
            enumeration.connected_graphs,
            self.wrap_generator("enumeration", enumeration.connected_graphs),
        )
        rebind(mods["graph6"].encode, self.wrap("graph6.encode", mods["graph6"].encode))
        families = mods["families"]
        for name in _public_functions(families, exclude=("parse_family",)):
            fn = getattr(families, name)
            rebind(fn, self.wrap("families.build", fn, True))
        formulas = mods["formulas"]
        for name in _public_functions(formulas):
            fn = getattr(formulas, name)
            rebind(fn, self.wrap("formulas", fn, True))
        for name in _public_functions(transforms):
            fn = getattr(transforms, name)
            if name.endswith("_sites"):
                rebind(fn, self.wrap("transforms.sites", fn, True, count_sites))
            else:
                rebind(fn, self.wrap("transforms.apply", fn, True))
        cli = mods["cli"]
        cli.main = self.wrap("cli", cli.main)
        graph.Graph.__init__ = self.wrap("graph.build", graph.Graph.__init__)
        gc.callbacks.append(self._gc_callback)

    def stop(self) -> None:
        gc.callbacks.remove(self._gc_callback)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n_names = len(self._names)
        calls = [0] * n_names
        total = [0.0] * n_names
        self_time = [0.0] * n_names
        covered = [0.0] * len(self.kind)
        canon_id = self._ids.get("canon", -1)
        enum_id = self._ids.get("enumeration", -1)
        in_enum = bytearray(len(self.kind))
        canon_in_enum = 0
        # Children close before their parents, so walk spans backwards.
        for i in range(len(self.kind) - 1, -1, -1):
            k, p = self.kind[i], self.parent[i]
            dur = self.end[i] - self.start[i]
            calls[k] += 1
            total[k] += dur
            self_time[k] += dur - covered[i]
            if p >= 0:
                covered[p] += dur
        for i, (k, p) in enumerate(zip(self.kind, self.parent)):
            in_enum[i] = k == enum_id or (p >= 0 and in_enum[p])
            if k == canon_id and in_enum[i]:
                canon_in_enum += 1

        def get(name: str, table) -> float:
            return table[self._ids[name]] if name in self._ids else 0

        emitted = self.counts["enumeration.emitted"]
        return {
            "canon.calls": get("canon", calls),
            "canon.s": get("canon", total),
            "enumeration.graphs_per_canon": emitted / canon_in_enum if canon_in_enum else 0.0,
            "enumeration.self_s": get("enumeration", self_time),
            "graph.build.calls": get("graph.build", calls),
            "graph.build_s": get("graph.build", total),
            "graph.ecc.calls": get("graph.ecc", calls),
            "graph.ecc_sources": self.counts["ecc_sources"],
            "graph.ecc_s": get("graph.ecc", total),
            "graph.cut.calls": get("graph.cut", calls),
            "graph.cut_s": get("graph.cut", total),
            "graph6.encode.calls": get("graph6.encode", calls),
            "graph6.encode_s": get("graph6.encode", total),
            "extremal.enumerate_s": get("extremal.enumerate", total),
            "extremal.invariants_s": get("extremal.invariants", total),
            "extremal.fold_s": get("extremal.fold", self_time),
            "extremal.witness_canon.calls": get("extremal.witness_canon", calls),
            "extremal.witness_canon_s": get("extremal.witness_canon", total),
            "families.build.calls": get("families.build", calls),
            "families.build_s": get("families.build", total),
            "formulas.calls": get("formulas", calls),
            "formulas_s": get("formulas", total),
            "transforms.sites.calls": get("transforms.sites", calls),
            "transforms.sites.found": self.counts["sites_found"],
            "transforms.sites_s": get("transforms.sites", total),
            "transforms.apply.calls": get("transforms.apply", calls),
            "transforms.apply_s": get("transforms.apply", total),
            "cli.self_s": get("cli", self_time),
            "runtime.gc.collections": self.counts["gc.collections"],
            "runtime.gc_s": self.counts["gc.ns"] / 1e9,
        }

    def write(self, path: str) -> None:
        """One tab-separated line per span: index, name, parent, start, end."""
        with open(path, "w") as f:
            f.write("span\tname\tparent\tstart_s\tend_s\n")
            names = self._names
            for i, (k, p, s, e) in enumerate(zip(self.kind, self.parent, self.start, self.end)):
                f.write(f"{i}\t{names[k]}\t{p}\t{s:.9f}\t{e:.9f}\n")
