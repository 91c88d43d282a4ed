"""Exact local (and ordinary) metric dimension.

A vertex set W locally resolves a connected graph when every edge with both
endpoints outside W has its endpoints at distinct distances from some member
of W. Since each endpoint distinguishes its own edge, W locally resolves iff
it hits every edge's distinguisher set, so the dimension is an exact minimum
hitting set over those sets. The ordinary metric dimension is the same
construction over all vertex pairs instead of edges.

A graph's distinguisher masks come from its own breadth-first layers. The
sweep builds them a chunk of graphs at a time instead: each graph's rows
sit in one field of a shared int, so one shift, AND, multiply and OR steps
a frontier in every graph of the chunk at once (the bit-parallel BFS of
Akiba, Iwata and Yoshida's pruned landmark labeling, one graph per field).
"""

from __future__ import annotations

import itertools
import sys
from array import array
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from . import kernels
from .graphs import (
    MAX_VERTICES,
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


# array typecode of each field width in bits
_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}
# _FIELD_WIDTH[n]: the least of 8, 16, 32 and 64 that holds n bits
_FIELD_WIDTH = tuple(
    8 if n <= 8 else 16 if n <= 16 else 32 if n <= 32 else 64 for n in range(MAX_VERTICES + 1)
)


def _chunk_masks(graphs: Sequence[Graph], mode: str) -> list[list[int]]:
    """_distinguisher_masks of every graph of a chunk; any disconnected
    graph raises DisconnectedError.

    The graphs that need the same field width share one bit-sliced walk
    (_sliced_masks), so one large graph does not widen, and lengthen, the
    walk of many small ones: one shared walk over a 62-vertex graph and
    255 of order 8 measured about 7 times slower than a walk per graph."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    groups: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        groups.setdefault(_FIELD_WIDTH[g.n], []).append(i)
    if len(groups) == 1:
        [width] = groups
        return _sliced_masks(graphs, mode, width)
    masks: list[list[int]] = [[] for _ in graphs]
    for width, members in groups.items():
        group = [graphs[i] for i in members]
        for i, built in zip(members, _sliced_masks(group, mode, width)):
            masks[i] = built
    return masks


def _sliced_masks(graphs: Sequence[Graph], mode: str, width: int) -> list[list[int]]:
    """The masks of a non-empty chunk of graphs of order at most width,
    from one bit-sliced walk.

    Graph i owns field i of every int, `width` bits wide, so adj[v] packs
    row v of every graph and full each graph's vertex set. For a source u
    the frontier steps in every graph at once: a vertex v live in some
    graph's frontier spreads the field-start bits of those graphs over
    their whole fields (times 2**width - 1, which carries into no
    neighbor) and ANDs them with adj[v]. Pair (u, v) then ORs the
    layer intersections once for the whole chunk, and the AND with the
    pair's selector keeps the fields of the graphs that have the pair (an
    edge in local mode, v below their order in full mode), each holding
    that graph's mask. The masks go out through one array, pair by pair
    with graph i at offset i; a graph's nonzero entries in pair order are
    its masks, since a pair's endpoints are in its own mask.
    """
    count = len(graphs)
    top = max(g.n for g in graphs)
    code = _FIELD_CODES[width]
    order = sys.byteorder
    size = count * width // 8
    field = (1 << width) - 1
    ones = int.from_bytes(array(code, [1]) * count, order)
    full = int.from_bytes(array(code, [(1 << g.n) - 1 for g in graphs]), order)
    pad = (0,) * top
    rows = array(code, itertools.chain.from_iterable(g.adj + pad[g.n :] for g in graphs))
    adj = [int.from_bytes(rows[v::top], order) for v in range(top)]
    # alive[v]: the whole field of every graph with a vertex v
    alive = [(full >> v & ones) * field & full for v in range(top)]
    layers = []
    for u in range(top):
        seen = frontier = full & ones << u
        by_distance = [frontier]
        while True:
            nxt = 0
            for v, row in enumerate(adj):
                live = frontier >> v & ones
                if live:
                    nxt |= live * field & row
            frontier = nxt & ~seen
            if not frontier:
                break
            seen |= frontier
            by_distance.append(frontier)
        # every graph has a vertex 0, and a graph that source 0 spans is
        # connected, so this one test covers the whole chunk
        if not u and seen != full:
            raise DisconnectedError("distances undefined: graph is disconnected")
        layers.append(by_distance)
    local = mode == "local"
    pieces = []
    for u in range(top - 1):
        lu = layers[u]
        row = adj[u]
        for v in range(u + 1, top):
            if local:
                chosen = row >> v & ones
                if not chosen:
                    continue
                chosen = chosen * field & full
            else:
                chosen = alive[v]
            same = 0
            for a, b in zip(lu, layers[v]):
                same |= a & b
            pieces.append((chosen ^ same & chosen).to_bytes(size, order))
    table = array(code, b"".join(pieces))
    return [list(filter(None, table[i::count])) for i in range(count)]


def _masks(graphs: Sequence[Graph], mode: str) -> list[list[int]]:
    """The masks of each graph: one bit-sliced walk for a chunk of two or
    more, the one-graph walk for one, which measured faster alone."""
    if len(graphs) > 1:
        return _chunk_masks(graphs, mode)
    return [_distinguisher_masks(g, mode) for g in graphs]


def _minima(graphs: Sequence[Graph], masks: Sequence[list[int]]) -> list[int]:
    """The size of a minimum hitting set of each graph's masks, one kernel
    call each and no witness."""
    solve = kernels.min_hitting_set
    return [solve(g.n, m).bit_count() for g, m in zip(graphs, masks)]


def _values(graphs: Sequence[Graph], mode: str) -> list[int]:
    """The dimension in `mode` of each connected graph alone: every graph's
    masks, then every search."""
    return _minima(graphs, _masks(graphs, mode))


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
