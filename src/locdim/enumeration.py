"""Canonical forms and exhaustive streams of small connected graphs.

Canonical labeling minimizes the packed upper-triangle bit string over all
relabelings. The search is a DFS over minimum-column ties with a prefix cut;
the pure kernel also branches on one vertex per twin class and tries
low-degree vertices first (see locdim._pure.canonical_bits). It is still
exponential in the worst case, so it is deliberately capped at 8 vertices;
that covers every exhaustive sweep this package runs. Larger inputs must
arrive as pre-deduplicated corpora.

The order-n class stream attaches a new vertex to every class of order n-1
with every neighborhood that is not the image of a smaller one under a
permutation of the parent's twins, and collapses isomorphic children by
canonical key. Skipped neighborhoods only ever produce children isomorphic
to kept ones, so the stream is the same as without the skip.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from . import kernels
from .graphs import (
    GRAPH6_HEADER,
    Graph,
    Graph6Error,
    from_graph6,
    graph_from_triangle_bits,
    is_connected,
    to_graph6,
    twin_masks,
)

CANONICAL_MAX_VERTICES = 8

# classes of connected graphs per order, used as generator self-checks
CONNECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@dataclass(frozen=True, order=True)
class CanonicalKey:
    """Total order on isomorphism classes: (order, minimized triangle bits)."""

    n: int
    bits: int


def canonical_key(g: Graph) -> CanonicalKey:
    if g.n > CANONICAL_MAX_VERTICES:
        raise ValueError(
            f"canonical_key supports n <= {CANONICAL_MAX_VERTICES}, got {g.n}"
        )
    return CanonicalKey(g.n, kernels.canonical_bits(g.n, g.adj))


def canonical_form(g: Graph) -> Graph:
    """The canonically labeled representative of g's isomorphism class."""
    key = canonical_key(g)
    return graph_from_triangle_bits(key.n, key.bits)


def canonical_graph6(g: Graph) -> str:
    return to_graph6(canonical_form(g))


@functools.lru_cache(maxsize=None)
def _connected_class_bits(n: int) -> tuple[int, ...]:
    # Every connected graph on n >= 2 vertices keeps a connected remainder
    # after deleting some vertex (a leaf of a spanning tree), so attaching
    # one vertex with every non-empty neighborhood to every smaller class
    # reaches every class; canonical keys collapse the duplicates.
    #
    # Twins of the parent form classes on which the whole symmetric group
    # acts by automorphisms, so a neighborhood S and its image under any
    # permutation inside the classes give isomorphic children. Keeping only
    # the S whose intersection with each class is that class's lowest
    # members (v in S forces every lower twin u of v into S) leaves one
    # neighborhood per orbit and drops only duplicates.
    if n == 1:
        return (0,)
    top = 1 << (n - 1)
    seen: set[int] = set()
    for pbits in _connected_class_bits(n - 1):
        adj = graph_from_triangle_bits(n - 1, pbits).adj
        lower_twins = [
            (1 << v, twins & ((1 << v) - 1))
            for v, twins in enumerate(twin_masks(adj))
            if twins & ((1 << v) - 1)
        ]
        for nbhd in range(1, top):
            if any(nbhd & vbit and lower & ~nbhd for vbit, lower in lower_twins):
                continue
            rows = [row | top if (nbhd >> v) & 1 else row for v, row in enumerate(adj)]
            rows.append(nbhd)
            seen.add(kernels.canonical_bits(n, rows))
    return tuple(sorted(seen))


def connected_graphs(n: int) -> Iterator[Graph]:
    """All connected graphs on n vertices, one canonical representative per
    isomorphism class, in ascending key order."""
    if not 1 <= n <= 7:
        raise ValueError(f"connected_graphs supports 1 <= n <= 7, got {n}")
    for bits in _connected_class_bits(n):
        yield graph_from_triangle_bits(n, bits)


@functools.lru_cache(maxsize=None)
def connected_class_bits_by_filter(n: int) -> frozenset[int]:
    """Independent recount of the class stream: canonicalize every labeled
    connected graph on n vertices and return the distinct canonical bits.
    Exponential in n**2, meant for n <= 6."""
    if not 1 <= n <= 6:
        raise ValueError(f"filter recount supports 1 <= n <= 6, got {n}")
    keys: set[int] = set()
    for bits in range(1 << (n * (n - 1) // 2)):
        g = graph_from_triangle_bits(n, bits)
        if is_connected(g):
            keys.add(kernels.canonical_bits(n, g.adj))
    return frozenset(keys)


def connected_class_count_by_filter(n: int) -> int:
    """Number of classes found by connected_class_bits_by_filter."""
    return len(connected_class_bits_by_filter(n))


@dataclass(frozen=True)
class Corpus:
    """Decoded graphs in file order plus per-line decode errors."""

    graphs: tuple[Graph, ...]
    errors: tuple[str, ...]


def parse_corpus(text: str, strict: bool = False) -> Corpus:
    """Decode graph6 text, one graph per line. Blank lines and bare format
    headers are skipped, as is a header prefixing a line; malformed lines
    are collected (or raised when strict) with their line numbers."""
    graphs: list[Graph] = []
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped == GRAPH6_HEADER:
            continue
        try:
            graphs.append(from_graph6(stripped))
        except Graph6Error as exc:
            if strict:
                raise Graph6Error(f"line {lineno}: {exc}") from exc
            errors.append(f"line {lineno}: {exc}")
    return Corpus(tuple(graphs), tuple(errors))


def read_corpus(path: str | Path, strict: bool = False) -> Corpus:
    """parse_corpus over the text of a graph6 file."""
    return parse_corpus(Path(path).read_text(), strict)
