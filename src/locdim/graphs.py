"""Immutable simple graphs on up to 62 vertices, with graph6 serialization.

Adjacency is stored as one int bitmask per vertex, so neighborhood algebra
throughout the package is plain integer arithmetic. The 62-vertex ceiling
keeps every mask inside one machine word and every order inside a single
graph6 size byte.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

MAX_VERTICES = 62

GRAPH6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Raised for malformed graph6 text."""


class DisconnectedError(ValueError):
    """Raised when an operation needs distances but the graph is disconnected."""


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_order(n: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")


class Graph:
    """Undirected simple graph; adj[v] is the open-neighborhood bitmask.

    Immutable: both fields are checked once, here, the rows by one scan
    that raises for the first fault in row order; adj is stored as a tuple,
    assignment is refused, and equality and hashing go by (n, adj).
    Rows that are valid by construction skip the checks through
    _trusted_graph: those decoded from triangle bits, and a pickle, which
    holds just (n, adj), when it is loaded (in a pool worker, say).
    A graph that is its class's canonical labeling may also carry those
    bits as _canonical_bits (None otherwise), and then its pickle holds
    them too; they play no part in equality or hashing.
    """

    _canonical_bits: int | None = None

    def __init__(self, n: int, adj: Sequence[int]) -> None:
        _check_order(n)
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
        # past the refusing __setattr__; writing self.__dict__ instead would
        # make every later attribute read take the slower dict path
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        self._check_rows()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.adj) == (other.n, other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(n={self.n!r}, adj={self.adj!r})"

    def __reduce__(self):
        if self._canonical_bits is None:
            return _trusted_graph, (self.n, self.adj)
        return _trusted_graph, (self.n, self.adj, self._canonical_bits)

    def _check_rows(self) -> None:
        """Scan every row in order and raise for the first fault found: a
        vertex out of range, a self-loop, or a neighbor whose row lacks v."""
        adj = self.adj
        full = (1 << self.n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} mentions a vertex >= {self.n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                row ^= low

    @functools.cached_property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bit_indices(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self.n):
            for v in bit_indices(self.adj[u]):
                if v > u:
                    out.append((u, v))
        return out

    def relabel(self, perm: Sequence[int]) -> Graph:
        """Apply a permutation: vertex v becomes perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("relabeling is not a permutation of the vertices")
        rows = [0] * self.n
        for v in range(self.n):
            row = 0
            for u in bit_indices(self.adj[v]):
                row |= 1 << perm[u]
            rows[perm[v]] = row
        return Graph(self.n, rows)

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> Graph:
        """A copy with additional edges (duplicates collapse)."""
        return build(self.n, self.edges() + list(extra))

    def induced(self, keep: Sequence[int]) -> Graph:
        """Subgraph induced on `keep`, relabeled 0..len(keep)-1 in the given
        order (entries must be distinct)."""
        if len(set(keep)) != len(keep):
            raise ValueError("induced vertex list has repeats")
        for v in keep:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range for n={self.n}")
        pos = {v: i for i, v in enumerate(keep)}
        edges = []
        for u, v in self.edges():
            if u in pos and v in pos:
                edges.append((pos[u], pos[v]))
        return build(len(keep), edges)

    def complement(self) -> Graph:
        full = (1 << self.n) - 1
        rows = tuple((~self.adj[v] & full) & ~(1 << v) for v in range(self.n))
        return Graph(self.n, rows)


def _trusted_graph(
    n: int, adj: tuple[int, ...], canonical_bits: int | None = None
) -> Graph:
    """A Graph from n rows that are valid by construction (in range,
    loop-free, symmetric, a tuple), set in place without the checks; given
    canonical_bits, the rows must be the canonical labeling those bits
    encode."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    if canonical_bits is not None:
        object.__setattr__(g, "_canonical_bits", canonical_bits)
    return g


def build(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Create a graph from an edge list; duplicate edges collapse."""
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


# ------------------------------------------------------------------ graph6
#
# Layout: one size byte 63+n, then the upper triangle of the adjacency
# matrix in column-major pair order (0,1), (0,2), (1,2), (0,3), ... packed
# big-endian into 6-bit groups (zero padding at the end), each group emitted
# as the byte 63+value.


def triangle_bits(n: int, adj: Sequence[int]) -> int:
    """Pack the upper triangle into an int, first pair most significant."""
    bits = 0
    for j in range(1, n):
        for i in range(j):
            bits = (bits << 1) | ((adj[j] >> i) & 1)
    return bits


def twin_masks(adj: Sequence[int]) -> list[int]:
    """Bit u of entry v is set iff u != v are twins: adj[u] - {v} equals
    adj[v] - {u}. Covers adjacent (true) and non-adjacent (false) twins;
    swapping two twins is an automorphism."""
    n = len(adj)
    twins = [0] * n
    for u in range(n):
        row_u = adj[u]
        for v in range(u + 1, n):
            if row_u & ~(1 << v) == adj[v] & ~(1 << u):
                twins[u] |= 1 << v
                twins[v] |= 1 << u
    return twins


def _triangle_rows(n: int, bits: int) -> list[int]:
    """Adjacency rows of the n-vertex graph whose triangle bits are bits,
    which must fit in n(n-1)/2 bits. Column j is a j-bit slice whose most
    significant bit is vertex 0, so set bit b names vertex j-1-b; rows[j]
    is still 0 when its column is read, as only later columns touch it."""
    rows = [0] * n
    pos = n * (n - 1) // 2
    for j in range(1, n):
        pos -= j
        column = (bits >> pos) & ((1 << j) - 1)
        bit_j = 1 << j
        row = 0
        while column:
            low = column & -column
            i = j - low.bit_length()
            rows[i] |= bit_j
            row |= 1 << i
            column ^= low
        rows[j] = row
    return rows


def graph_from_triangle_bits(n: int, bits: int) -> Graph:
    """Inverse of triangle_bits. Rows built from triangle bits are valid by
    construction, so only n and the bits are checked."""
    if bits >> (n * (n - 1) // 2):
        raise ValueError(f"triangle bits out of range for n={n}")
    _check_order(n)
    return _trusted_graph(n, tuple(_triangle_rows(n, bits)))


def _triangle_graph6(n: int, bits: int) -> str:
    """graph6 text of the n-vertex graph whose triangle bits are bits."""
    m = n * (n - 1) // 2
    groups = (m + 5) // 6
    bits <<= groups * 6 - m
    out = [chr(63 + n)]
    for i in range(groups - 1, -1, -1):
        out.append(chr(63 + ((bits >> (6 * i)) & 63)))
    return "".join(out)


def to_graph6(g: Graph) -> str:
    return _triangle_graph6(g.n, triangle_bits(g.n, g.adj))


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].lstrip()
    if not s:
        raise Graph6Error("empty graph6 line")
    codes = [ord(ch) for ch in s]
    for pos, c in enumerate(codes):
        if not 63 <= c <= 126:
            raise Graph6Error(f"byte {c} at position {pos} outside graph6 range 63..126")
    if codes[0] == 126:
        raise Graph6Error(f"extended size prefix: orders above {MAX_VERTICES} unsupported")
    n = codes[0] - 63
    if n < 1:
        raise Graph6Error("graph6 order 0 not supported")
    m = n * (n - 1) // 2
    groups = (m + 5) // 6
    payload = codes[1:]
    if len(payload) < groups:
        raise Graph6Error(f"truncated payload: expected {groups} bytes for n={n}, got {len(payload)}")
    if len(payload) > groups:
        raise Graph6Error(f"payload too long: expected {groups} bytes for n={n}, got {len(payload)}")
    bits = 0
    for c in payload:
        bits = (bits << 6) | (c - 63)
    pad = groups * 6 - m
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    return graph_from_triangle_bits(n, bits >> pad)


# -------------------------------------------------------------- traversals


class DistanceMatrix(NamedTuple):
    """All-pairs hop distances of a connected graph."""

    n: int
    d: tuple[tuple[int, ...], ...]

    def dist(self, u: int, v: int) -> int:
        return self.d[u][v]


def _layers(adj: Sequence[int], seed: int) -> Iterator[int]:
    """Breadth-first layers as masks: the seed, then each set of vertices
    first reached one step further out. An empty seed yields nothing."""
    seen = frontier = seed
    while frontier:
        yield frontier
        nxt = 0
        while frontier:  # the layer is yielded, so it can be used up here
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        seen |= frontier


def _reach(adj: Sequence[int], start_mask: int) -> int:
    """Mask of vertices reachable from the seed mask: the layers are
    disjoint, so their sum is their union."""
    return sum(_layers(adj, start_mask))


def is_connected(g: Graph) -> bool:
    return _reach(g.adj, 1) == (1 << g.n) - 1


def bfs_distances(g: Graph) -> DistanceMatrix:
    """Bitset BFS from every vertex; rejects disconnected graphs, whose
    distances would be undefined."""
    rows = []
    for s in range(g.n):
        dist = [-1] * g.n
        for d, layer in enumerate(_layers(g.adj, 1 << s)):
            for v in bit_indices(layer):
                dist[v] = d
        if -1 in dist:
            raise DisconnectedError("distances undefined: graph is disconnected")
        rows.append(tuple(dist))
    return DistanceMatrix(g.n, tuple(rows))


def is_bipartite(g: Graph) -> bool:
    """True iff no BFS layer, seeded at each component's lowest vertex,
    holds an edge. Edges join a layer to itself or the next, so without one
    inside a layer the parities two-color; one in layer d closes an odd walk."""
    unseen = (1 << g.n) - 1
    while unseen:
        for layer in _layers(g.adj, unseen & -unseen):
            for v in bit_indices(layer):
                if g.adj[v] & layer:
                    return False
            unseen ^= layer
    return True


def is_triangle_free(g: Graph) -> bool:
    for u in range(g.n):
        for v in bit_indices(g.adj[u]):
            if v > u and g.adj[u] & g.adj[v]:
                return False
    return True
