"""Total eccentricity index toolkit for small graphs.

Exact invariants, the named extremal families, inequality-contracted
rewrites, closed forms, isomorph-free enumeration, and exhaustive
verification of the extremal statements they support.
"""

from .canon import CanonResult, automorphism_orbits, canon, canonical_form, canonical_graph
from .enumeration import connected_graph_list, connected_graphs
from .extremal import (
    ClassConstraint,
    ExtremalReport,
    Verdict,
    check_conjecture,
    count_class,
    filter_graphs,
    parse_constraint,
    search,
    verify_theorem,
)
from .families import FamilySpec, parse_family
from .graph import (
    BlockDecomposition,
    DisconnectedGraphError,
    DistanceRow,
    Graph,
    average_eccentricity,
    bfs_distances,
    blocks,
    center,
    cut_vertices,
    diameter,
    eccentricities,
    eccentricity,
    girth,
    is_connected,
    pendant_vertices,
    radius,
    total_eccentricity,
    wiener_index,
)
from .graph6 import decode as graph6_decode
from .graph6 import encode as graph6_encode

__all__ = [
    "BlockDecomposition",
    "CanonResult",
    "ClassConstraint",
    "DisconnectedGraphError",
    "DistanceRow",
    "ExtremalReport",
    "FamilySpec",
    "Graph",
    "Verdict",
    "automorphism_orbits",
    "average_eccentricity",
    "bfs_distances",
    "blocks",
    "canon",
    "canonical_form",
    "canonical_graph",
    "center",
    "check_conjecture",
    "connected_graph_list",
    "connected_graphs",
    "count_class",
    "cut_vertices",
    "diameter",
    "eccentricities",
    "eccentricity",
    "filter_graphs",
    "girth",
    "graph6_decode",
    "graph6_encode",
    "is_connected",
    "parse_constraint",
    "parse_family",
    "pendant_vertices",
    "radius",
    "search",
    "total_eccentricity",
    "verify_theorem",
    "wiener_index",
]
