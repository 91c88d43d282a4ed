"""Clique number and true-twin structure."""

from __future__ import annotations

from typing import NamedTuple

from . import kernels
from .graphs import Graph


def max_clique(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with one witness clique (the lexicographically
    smallest maximum clique as a sorted vertex tuple). The witness is
    rebuilt greedily: v joins when its neighbors among the candidates hold
    a clique of the size left to fill, probed by one kernel call on the rows
    masked to them. An empty mask fails first, since all-zero rows still
    have clique number 1; a full witness leaves no candidates."""
    size = kernels.max_clique(g.n, g.adj)
    witness: list[int] = []
    cand = (1 << g.n) - 1
    for v in range(g.n):
        need = size - len(witness) - 1
        sub = cand & g.adj[v]
        if cand >> v & 1 and (need == 0 or sub and kernels.max_clique(
            g.n, [row & sub if sub >> u & 1 else 0 for u, row in enumerate(g.adj)]
        ) >= need):
            witness.append(v)
            cand = sub
    return size, tuple(witness)


def clique_number(g: Graph) -> int:
    return kernels.max_clique(g.n, g.adj)


class TwinPartition(NamedTuple):
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
    """The dict fills in vertex order and keeps insertion order, so each
    class enters at its smallest member and the classes come out sorted by
    it with no sort."""
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.adj[v] | (1 << v), []).append(v)
    # a list, not a generator: tuple() of a generator ran slower and raised
    # the pure order-8 suite's peak RSS by about 0.3 MB
    return TwinPartition(tuple([tuple(vs) for vs in groups.values()]))


def _twin_class_count(g: Graph) -> int:
    """twin_partition(g).class_count without building the partition: the
    number of distinct closed neighborhoods."""
    return len({row | 1 << v for v, row in enumerate(g.adj)})
