"""Canonical forms and exhaustive streams of small connected graphs.

Canonical labeling minimizes the packed upper-triangle bit string over all
relabelings. The least string opens with alpha zero columns, alpha the
independence number, since a labeling whose first alpha vertices are not
independent has a 1 there. So both kernels first branch on which maximum
independent set fills those positions (one per true-twin swap), leaving
its inner order open until the vertices placed after it fix it, and then
run a DFS over minimum-column ties with a prefix cut, one vertex per twin
class and low-degree vertices first (see locdim._pure.canonical_bits). It
is still exponential in the worst case, so it is deliberately capped at
CANONICAL_MAX_VERTICES vertices; that covers every exhaustive sweep this
package runs. Larger inputs must arrive as pre-deduplicated corpora.

The class streams come from orderly generation (R. C. Read, "Every one a
winner", 1978; I. A. Faradzev, 1978): every class is built exactly once,
from its own canonical string, and no set of seen graphs is kept. The
string is column-major: column j holds the adjacency of vertex j to
vertices 0..j-1, vertex 0 first. So the first (n-1)(n-2)/2 bits of a
graph's string are the string of the graph minus its last vertex, and that
prefix of a canonical string is itself canonical: a relabeling of the first
n-1 vertices with a smaller string, keeping the last vertex last, would
give the whole graph a smaller string. Every class of order n is therefore
a canonical graph of order n-1, connected or not, plus one column (the
star K_{1,n-1} grows from n-1 isolated vertices). The generator appends
columns to every such parent and keeps a child iff its own bits are its
class's canonical string; distinct children have distinct strings and
isomorphic graphs share one canonical string, so each class is accepted
exactly once. Two cheap necessary conditions skip most non-canonical
columns before the kernel runs (see _admissible_columns); the twin one
runs upward, a lower twin in the column forcing the higher one in,
because that keeps the smaller of two swapped columns.

The acceptance test is kernels.is_canonical(n, rows, own), not a full
canonical_bits search compared with own. It runs the same search over
partial labelings but stops at the first one whose string prefix is below
own's prefix of the same length. That already proves the child is not
canonical: the prefix is fixed by the vertices placed so far, so every
completion of that partial labeling is a whole string below own. A child
whose first alpha vertices are not independent is rejected at the first
prefix read, which is below 2^alpha where its own string's is not.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import NamedTuple

from . import kernels
from .graphs import (
    GRAPH6_HEADER,
    Graph,
    Graph6Error,
    _reach,
    _triangle_graph6,
    _triangle_rows,
    bit_indices,
    from_graph6,
    graph_from_triangle_bits,
    triangle_bits,
    twin_masks,
)

CANONICAL_MAX_VERTICES = 9

# classes of connected graphs per order (OEIS A001349); the `--gen` usage
# message reads them, and the tests check the generator against them
CONNECTED_CLASS_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080,
}

# (order, connected only) -> canonical triangle bits of the classes the
# generator accepted. An order that served as parents holds both entries.
# Every member is its class's canonical string, so canonical_key answers a
# graph whose own bits are in the connected entry without the kernel.
_CLASS_BITS: dict[tuple[int, bool], frozenset[int]] = {}


class CanonicalKey(NamedTuple):
    """Total order on isomorphism classes: (order, minimized triangle bits)."""

    n: int
    bits: int


def canonical_key(g: Graph) -> CanonicalKey:
    if g.n > CANONICAL_MAX_VERTICES:
        raise ValueError(
            f"canonical_key supports n <= {CANONICAL_MAX_VERTICES}, got {g.n}"
        )
    generated = _CLASS_BITS.get((g.n, True))
    if generated is not None:
        own = triangle_bits(g.n, g.adj)
        if own in generated:
            return CanonicalKey(g.n, own)
    return CanonicalKey(g.n, kernels.canonical_bits(g.n, g.adj))


def canonical_form(g: Graph) -> Graph:
    """The canonically labeled representative of g's isomorphism class."""
    key = canonical_key(g)
    return graph_from_triangle_bits(key.n, key.bits)


def canonical_graph6(g: Graph) -> str:
    key = canonical_key(g)
    return _triangle_graph6(key.n, key.bits)


def _admissible_columns(pbits: int, adj: Sequence[int]) -> Iterator[int]:
    """New-vertex columns (vertex 0 most significant) that pass two
    necessary conditions for the child of the canonical parent (pbits, adj)
    to be canonical; every column skipped gives a non-canonical child.

    Greedy column: moving the new vertex to position t keeps columns
    0..t-1 and makes column t the new column cut to vertices 0..t-1, so
    that cut must not be smaller than the parent's column t. Over all t
    this is one lower bound on the column value.

    Twin closure: swapping twins u < v of the parent is an automorphism, so
    it keeps the prefix and exchanges u and v in the new column. With u in
    the column and v out, the swap trades u's bit for v's less significant
    one and the string shrinks. So the kept columns are closed upward in
    each twin class: u in forces v in. The downward rule (v in forces u
    in) also keeps one column per orbit, but not the minimal one, and
    loses classes.
    """
    k = len(adj)
    m = k * (k - 1) // 2
    low = 0
    for t in range(1, k):
        parent_column = (pbits >> (m - t * (t + 1) // 2)) & ((1 << t) - 1)
        low = max(low, parent_column << (k - t))
    closure = []
    for v, twins in enumerate(twin_masks(adj)):
        below = twins & ((1 << v) - 1)
        if below:
            below_bits = sum(1 << (k - 1 - u) for u in bit_indices(below))
            closure.append((below_bits, 1 << (k - 1 - v)))
    for column in range(low, 1 << k):
        if not any(column & below and not column & bit for below, bit in closure):
            yield column


def _orderly_children(
    k: int, parents: frozenset[int], connected_only: bool
) -> list[tuple[int, bool]]:
    """(triangle bits, connected) of every canonical child of order k+1 of
    the canonical parents of order k, in generation order; disconnected
    children are not tested when connected_only."""
    n = k + 1
    top = 1 << k
    accepted = []
    for pbits in sorted(parents):
        adj = _triangle_rows(k, pbits)
        for column in _admissible_columns(pbits, adj):
            nbhd = sum(1 << v for v in range(k) if (column >> (k - 1 - v)) & 1)
            # connected iff the new vertex's neighbors reach every parent vertex
            connected = _reach(adj, nbhd) == top - 1
            if connected_only and not connected:
                continue
            rows = [row | top if (nbhd >> v) & 1 else row for v, row in enumerate(adj)]
            rows.append(nbhd)
            bits = (pbits << k) | column
            if kernels.is_canonical(n, rows, bits):
                accepted.append((bits, connected))
    return accepted


def _class_bits(n: int, connected_only: bool) -> frozenset[int]:
    """Canonical triangle bits of every class of order n, or of the
    connected ones, memoized in _CLASS_BITS."""
    key = (n, connected_only)
    if key not in _CLASS_BITS:
        if n == 1:
            accepted = [(0, True)]
        else:
            accepted = _orderly_children(n - 1, _class_bits(n - 1, False), connected_only)
        if not connected_only:
            _CLASS_BITS[key] = frozenset(bits for bits, _ in accepted)
        _CLASS_BITS.setdefault(
            (n, True), frozenset(bits for bits, connected in accepted if connected)
        )
    return _CLASS_BITS[key]


def connected_graphs(n: int) -> Iterator[Graph]:
    """All connected graphs on n vertices, one canonical representative per
    isomorphism class, in ascending key order."""
    if not 1 <= n <= CANONICAL_MAX_VERTICES:
        raise ValueError(
            f"connected_graphs supports 1 <= n <= {CANONICAL_MAX_VERTICES}, got {n}"
        )
    for bits in sorted(_class_bits(n, True)):
        yield graph_from_triangle_bits(n, bits)


class Corpus(NamedTuple):
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
    with open(path) as fh:
        return parse_corpus(fh.read(), strict)
