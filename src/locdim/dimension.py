"""Exact local (and ordinary) metric dimension.

A vertex set W locally resolves a connected graph when every edge with both
endpoints outside W has its endpoints at distinct distances from some member
of W. Since each endpoint distinguishes its own edge, W locally resolves iff
it hits every edge's distinguisher set, so the dimension is an exact minimum
hitting set over those sets. The ordinary metric dimension is the same
construction over all vertex pairs instead of edges.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from . import kernels
from .graphs import (
    DisconnectedError,
    DistanceMatrix,
    Graph,
    bfs_distances,
    bit_indices,
    is_connected,
)
from .invariants import clique_number, twin_partition

MODES = ("local", "full")


class LowerBounds(NamedTuple):
    """The paper's floors on the local dimension of a connected graph:
    reported and checked (C4, C5), never handed to the value search.

    twin: n minus the number of true-twin classes.
    log_clique: ceil(log2 omega).
    gap_raw: n - 2**(n - omega); may be negative, clamp before use.
    omega: the clique number the last two come from.
    """

    twin: int
    log_clique: int
    gap_raw: int
    omega: int

    @property
    def gap(self) -> int:
        return max(self.gap_raw, 0)

    @property
    def best(self) -> int:
        return max(self.twin, self.log_clique, self.gap)


class Constraint(NamedTuple):
    """Distinguisher set of one vertex pair, as a bitmask."""

    pair: tuple[int, int]
    mask: int


class ConstraintSystem(NamedTuple):
    n: int
    mode: str
    constraints: tuple[Constraint, ...]

    def masks(self) -> tuple[int, ...]:
        return tuple(c.mask for c in self.constraints)


class DimResult(NamedTuple):
    """value: the exact dimension; witness: the lexicographically smallest
    optimal set, sorted ascending; bounds: the graph's floors, reported
    beside a value that was solved without them."""

    value: int
    witness: tuple[int, ...]
    bounds: LowerBounds


def lower_bounds(g: Graph) -> LowerBounds:
    """The floors; a disconnected graph raises DisconnectedError. Solves
    and the sweep call _floors after the masks, whose walk refuses it."""
    if not is_connected(g):
        raise DisconnectedError("distances undefined: graph is disconnected")
    return _floors(g)


def _floors(g: Graph) -> LowerBounds:
    """lower_bounds for a graph _distinguisher_masks has already accepted."""
    omega = clique_number(g)
    return LowerBounds(
        twin=g.n - twin_partition(g).class_count,
        log_clique=(omega - 1).bit_length(),
        gap_raw=g.n - (1 << (g.n - omega)),
        omega=omega,
    )


def distinguisher_sets(g: Graph, mode: str = "local") -> ConstraintSystem:
    """One constraint per edge (local) or per vertex pair (full): the set of
    vertices seeing the two endpoints at different distances. Endpoints
    always belong to their own set, so no constraint is empty."""
    masks = _distinguisher_masks(g, mode)
    pairs = g.edges() if mode == "local" else itertools.combinations(range(g.n), 2)
    return ConstraintSystem(g.n, mode, tuple(map(Constraint, pairs, masks)))


def _check_vertex_set(g: Graph, vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    return mask


def _resolves(
    g: Graph,
    vertices: Iterable[int],
    dm: DistanceMatrix | None,
    pairs: Iterable[tuple[int, int]],
) -> bool:
    """Whether every (u, v) of pairs with both ends outside the set is split
    by some member, straight from the distances."""
    mask = _check_vertex_set(g, vertices)
    if dm is None:
        dm = bfs_distances(g)
    members = tuple(bit_indices(mask))
    return all(
        mask >> u & 1 or mask >> v & 1 or any(dm.d[u][w] != dm.d[v][w] for w in members)
        for u, v in pairs
    )


def is_local_resolving(
    g: Graph, vertices: Iterable[int], dm: DistanceMatrix | None = None
) -> bool:
    """Definition-level check, no hitting-set machinery: every edge with
    both endpoints outside the set must be split by some member."""
    return _resolves(g, vertices, dm, g.edges())


def is_resolving(
    g: Graph, vertices: Iterable[int], dm: DistanceMatrix | None = None
) -> bool:
    """Like is_local_resolving but over all vertex pairs, not just edges."""
    return _resolves(g, vertices, dm, itertools.combinations(range(g.n), 2))


def _distinguisher_masks(g: Graph, mode: str) -> list[int]:
    """The masks of distinguisher_sets(g, mode), from distance layers; a
    disconnected graph raises DisconnectedError.

    Frontier expansion over adj gives, for every vertex u, the masks L_u[d]
    of the vertices at distance d from u. A vertex w sees u and v at equal
    distance iff it lies in L_u[d] & L_v[d] for some d, so the
    distinguisher mask of (u, v) is the complement of the OR of those
    intersections. Pairs come u ascending, then v > u ascending, edges only
    in local mode.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    # its own walk, not graphs._layers: bfs_distances feeds is_local_resolving,
    # the oracle this solver is checked against, so the two share no code
    layers = []
    for u in range(n):
        seen = frontier = 1 << u
        by_distance = [frontier]
        while True:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
            if not frontier:
                break
            seen |= frontier
            by_distance.append(frontier)
        if seen != full:
            raise DisconnectedError("distances undefined: graph is disconnected")
        layers.append(by_distance)
    masks = []
    for u in range(n - 1):
        lu = layers[u]
        partners = adj[u] if mode == "local" else full
        partners >>= u + 1
        v = u
        while partners:
            step = (partners & -partners).bit_length()
            partners >>= step
            v += step
            same = 0
            for a, b in zip(lu, layers[v]):
                same |= a & b
            masks.append(full & ~same)
    return masks


def _values(graphs: Sequence[Graph], mode: str) -> list[int]:
    """The dimension in `mode` of each connected graph alone, one kernel
    call each and no witness: every graph's masks, then every search."""
    masks = [_distinguisher_masks(g, mode) for g in graphs]
    solve = kernels.min_hitting_set
    return [solve(g.n, m).bit_count() for g, m in zip(graphs, masks)]


def _value(g: Graph, mode: str) -> int:
    """_values of one graph, for callers that read only the value."""
    return _values([g], mode)[0]


def _solve(g: Graph, mode: str) -> DimResult:
    """The dimension in `mode`, its witness and the graph's floors. The
    masks come first, and their walk rejects a disconnected graph; the
    floors are computed beside the value, never fed to its search."""
    masks = _distinguisher_masks(g, mode)
    bounds = _floors(g)
    found = kernels.min_hitting_set(g.n, masks)
    mask = kernels.lex_min_hitting_set(g.n, masks, found)
    for i, c in enumerate(masks):
        if not c & mask:
            pair = distinguisher_sets(g, mode=mode).constraints[i].pair
            raise AssertionError(f"solver returned a non-hitting set for pair {pair}")
    return DimResult(found.bit_count(), tuple(bit_indices(mask)), bounds)


def local_metric_dimension(g: Graph) -> DimResult:
    """Exact local metric dimension of a connected graph (0 for n = 1)."""
    return _solve(g, "local")


def metric_dimension(g: Graph) -> DimResult:
    """Exact metric dimension of a connected graph."""
    return _solve(g, "full")
