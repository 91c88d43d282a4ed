"""Exact local metric dimension tooling for small graphs."""

from .dimension import (
    Constraint,
    ConstraintSystem,
    DimResult,
    LowerBounds,
    distinguisher_sets,
    is_local_resolving,
    is_resolving,
    local_metric_dimension,
    lower_bounds,
    metric_dimension,
)
from .enumeration import (
    CanonicalKey,
    Corpus,
    canonical_form,
    canonical_graph6,
    canonical_key,
    connected_graphs,
    read_corpus,
)
from .graphs import (
    DisconnectedError,
    DistanceMatrix,
    Graph,
    Graph6Error,
    bfs_distances,
    build,
    from_graph6,
    is_bipartite,
    is_connected,
    is_triangle_free,
    to_graph6,
)
from .invariants import TwinPartition, clique_number, max_clique, twin_partition
from .pattern import find_induced, is_gamma_free
from .verify import check_graph, run_suite

__version__ = "0.1.0"

__all__ = [
    "CanonicalKey",
    "Constraint",
    "ConstraintSystem",
    "Corpus",
    "DimResult",
    "DisconnectedError",
    "DistanceMatrix",
    "Graph",
    "Graph6Error",
    "LowerBounds",
    "TwinPartition",
    "bfs_distances",
    "build",
    "canonical_form",
    "canonical_graph6",
    "canonical_key",
    "check_graph",
    "clique_number",
    "connected_graphs",
    "distinguisher_sets",
    "find_induced",
    "from_graph6",
    "is_bipartite",
    "is_connected",
    "is_gamma_free",
    "is_local_resolving",
    "is_resolving",
    "is_triangle_free",
    "local_metric_dimension",
    "lower_bounds",
    "max_clique",
    "metric_dimension",
    "read_corpus",
    "run_suite",
    "to_graph6",
    "twin_partition",
    "__version__",
]
