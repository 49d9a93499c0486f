import functools
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from totecc import enumeration, families  # noqa: E402
from totecc.graph import Graph  # noqa: E402
from totecc.transforms import (  # noqa: E402
    GraftSite,
    MergeCyclesSite,
    RelocateSite,
    ShrinkSite,
)

# Published counts used as enumeration oracles.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}

RUN_N9 = os.environ.get("TOTECC_RUN_N9") == "1"


@functools.cache
def connected_graph_list(n: int) -> tuple[Graph, ...]:
    """Every class of order n, enumerated once per test session for the tests that reuse it."""
    return enumeration.connected_graph_list(n)


def random_connected_graph(rng: random.Random, n: int, extra_edges: int = 0) -> Graph:
    """Random connected graph: random recursive tree plus extra chords."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    missing = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(missing)
    edges.update(missing[:extra_edges])
    return Graph.from_edges(n, sorted(edges))


def random_tree(rng: random.Random, n: int) -> Graph:
    return random_connected_graph(rng, n, 0)


# Instance builders shared by the transform tests and the acceptance suite:
# each returns a graph with a known-valid rewrite site.

def attach_paths(base: Graph, hub: int, k: int, l: int):
    """Base graph with two new dangling paths of k and l vertices at hub."""
    n0 = base.n
    edges = base.edges()
    short = tuple(range(n0, n0 + k))
    long_ = tuple(range(n0 + k, n0 + k + l))
    for chain in (short, long_):
        prev = hub
        for v in chain:
            edges.append((prev, v))
            prev = v
    return Graph.from_edges(n0 + k + l, edges), GraftSite(hub, short, long_)


def attach_cycles(base: Graph, w: int, m1: int, m2: int):
    n0 = base.n
    edges = base.edges()
    ring1 = [w] + list(range(n0, n0 + m1 - 1))
    ring2 = [w] + list(range(n0 + m1 - 1, n0 + m1 + m2 - 2))
    for ring in (ring1, ring2):
        edges += [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
    g = Graph.from_edges(n0 + m1 + m2 - 2, edges)
    return g, MergeCyclesSite(w, frozenset(ring1), frozenset(ring2))


def attach_tadpole(base: Graph, u: int, r: int, girth: int):
    n0 = base.n
    tad = families.tadpole_l(r, girth)
    edges = base.edges()
    edges += [(n0 + a, n0 + b) for a, b in tad.edges()]
    pendant = n0 + r - 1
    edges.append((u, pendant))
    return Graph.from_edges(n0 + r, edges), ShrinkSite(u, pendant)


def glue_relocate(h1_size: int, h2_size: int, d: int, rng: random.Random):
    """Random H1 and H2 sharing vertex 0, with a dangling path of d-1 there."""
    h1 = random_connected_graph(rng, h1_size, rng.randrange(0, 3))
    h2 = random_connected_graph(rng, h2_size, rng.randrange(0, 3))
    edges = h1.edges()
    off = h1.n - 1
    for u, v in h2.edges():
        edges.append((u + off if u else 0, v + off if v else 0))
    n0 = h1.n + h2.n - 1
    path = tuple(range(n0, n0 + d - 1))
    prev = 0
    for v in path:
        edges.append((prev, v))
        prev = v
    g = Graph.from_edges(n0 + d - 1, edges)
    return g, RelocateSite(0, path, frozenset(range(1, h1.n)))
