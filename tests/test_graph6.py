"""graph6 codec: frozen reference strings and round trips."""

import random

import pytest

from conftest import connected_graph_list
from totecc import families, graph6
from totecc.graph import Graph

# Reference encodings per the published format description.
KNOWN = [
    (families.path(2), "A_"),
    (families.complete(4), "C~"),
    (families.complete(5), "D~{"),
    (families.cycle(5), "Dhc"),
]


@pytest.mark.parametrize("graph,expected", KNOWN, ids=[s for _, s in KNOWN])
def test_known_encodings(graph, expected):
    assert graph6.encode(graph) == expected
    assert graph6.decode(expected) == graph


def test_round_trip_enumerated():
    for n in range(1, 7):
        for g in connected_graph_list(n):
            assert graph6.decode(graph6.encode(g)) == g


def test_round_trip_long_form():
    # n >= 63 switches to the '~' + 3-byte order encoding
    for g in (families.complete(63), families.path(70), families.cycle(100),
              families.dumbbell(40, 41, 120)):
        s = graph6.encode(g)
        assert s.startswith("~")
        assert graph6.decode(s) == g


def test_round_trip_random_labelled():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randrange(1, 12)
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        g = Graph(n, tuple(rows))
        assert graph6.decode(graph6.encode(g)) == g


def test_header_stripped():
    assert graph6.decode(">>graph6<<C~") == families.complete(4)
    assert graph6.decode("  C~\n") == families.complete(4)


def test_errors():
    with pytest.raises(ValueError):
        graph6.decode("")
    with pytest.raises(ValueError):
        graph6.decode("C~~~")  # wrong body length
    with pytest.raises(ValueError):
        graph6.decode("C\x1c")  # character below the graph6 range
    with pytest.raises(ValueError):
        graph6.decode("?")  # order 0
