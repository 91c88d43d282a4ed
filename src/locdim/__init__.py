"""Exact local metric dimension tooling for small graphs.

The package namespace is lazy (PEP 562): `import locdim` loads no
submodule, and a public name loads its home module when it is first used.
The name is looked up in that module on every access and never copied
here, so the package always hands out what the module holds.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "Constraint": "dimension",
    "ConstraintSystem": "dimension",
    "DimResult": "dimension",
    "LowerBounds": "dimension",
    "distinguisher_sets": "dimension",
    "is_local_resolving": "dimension",
    "is_resolving": "dimension",
    "local_metric_dimension": "dimension",
    "lower_bounds": "dimension",
    "metric_dimension": "dimension",
    "CanonicalKey": "enumeration",
    "Corpus": "enumeration",
    "canonical_form": "enumeration",
    "canonical_graph6": "enumeration",
    "canonical_key": "enumeration",
    "connected_graphs": "enumeration",
    "read_corpus": "enumeration",
    "DisconnectedError": "graphs",
    "DistanceMatrix": "graphs",
    "Graph": "graphs",
    "Graph6Error": "graphs",
    "bfs_distances": "graphs",
    "build": "graphs",
    "from_graph6": "graphs",
    "is_bipartite": "graphs",
    "is_connected": "graphs",
    "is_triangle_free": "graphs",
    "to_graph6": "graphs",
    "TwinPartition": "invariants",
    "clique_number": "invariants",
    "max_clique": "invariants",
    "twin_partition": "invariants",
    "find_induced": "pattern",
    "is_gamma_free": "pattern",
    "check_graph": "verify",
    "run_suite": "verify",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
