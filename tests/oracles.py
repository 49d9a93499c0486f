"""Slow reference computations that only the tests use."""

from totecc.graph import Graph, bfs_distances


def distance_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All-pairs distances via one BFS per vertex."""
    return tuple(bfs_distances(g, v).dist for v in range(g.n))
