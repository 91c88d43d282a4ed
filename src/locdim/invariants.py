"""Clique number and true-twin structure."""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .graphs import Graph, bit_indices


def max_clique(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with one witness clique (the lexicographically
    smallest maximum clique as a sorted vertex tuple)."""
    size, mask = kernels.max_clique(g.n, g.adj)
    return size, tuple(bit_indices(mask))


def clique_number(g: Graph) -> int:
    return kernels.max_clique(g.n, g.adj)[0]


@dataclass(frozen=True)
class TwinPartition:
    """Partition of the vertices into true-twin classes (equal closed
    neighborhoods). Classes are sorted by their smallest member."""

    classes: tuple[tuple[int, ...], ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def sizes(self) -> tuple[int, ...]:
        """Class sizes, largest first."""
        return tuple(sorted((len(c) for c in self.classes), reverse=True))


def twin_partition(g: Graph) -> TwinPartition:
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.adj[v] | (1 << v), []).append(v)
    classes = sorted(tuple(vs) for vs in groups.values())
    return TwinPartition(tuple(classes))
