"""Named graph constructors and the family spec mini-grammar.

Deterministic labelings throughout: tests and witnesses rely on the exact
vertex numbering documented on each constructor.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .graphs import Graph, build

FAMILY_GRAMMAR = """\
family specs (lowercase, no spaces):
  kn(N)         complete graph, N >= 1            (shorthand: k5)
  cn(N)         cycle, N >= 3                     (shorthand: c5)
  pn(N)         path, N >= 1                      (shorthand: p5)
  knm(N,L,M)    complete graph minus a complete bipartite part,
                1 <= M <= L, L + M <= N - 1
  gamma1        first forbidden 6-vertex configuration
  gamma2        second forbidden 6-vertex configuration (gamma1 plus an edge)
  upsilon(MASK) 8-clique with three attachment vertices realizing all
                attachment subsets; MASK in 0..7 adds edges among the
                attachment vertices (bit 0: first-second, bit 1:
                first-third, bit 2: second-third)
  lambda        upsilon(0)
  apex(L)       apex vertex joined to L >= 2 disjoint triangles
"""


def complete(n: int) -> Graph:
    """K_n."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return build(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    """C_n with edges i ~ i+1 mod n."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return build(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """P_n with edges i ~ i+1."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return build(n, [(i, i + 1) for i in range(n - 1)])


def complete_minus_bipartite(n: int, lam: int, mu: int) -> Graph:
    """K_n minus the edges of a complete bipartite graph between vertex
    blocks L = 0..lam-1 and M = lam..lam+mu-1; the rest keep all edges.

    Valid for 1 <= mu <= lam and lam + mu <= n - 1 (the leftover block is
    what keeps the graph connected).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if not 1 <= mu <= lam:
        raise ValueError(f"need 1 <= mu <= lam, got lam={lam} mu={mu}")
    if lam + mu > n - 1:
        raise ValueError(f"need lam + mu <= n - 1, got {lam}+{mu} with n={n}")
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if u < lam and lam <= v < lam + mu:
                continue
            edges.append((u, v))
    return build(n, edges)


def gamma1() -> Graph:
    """Six vertices: a 4-clique 0..3 with two outside vertices 4, 5 where
    4 ~ {0, 1} and 5 ~ {0, 2}."""
    clique = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    return build(6, clique + [(0, 4), (1, 4), (0, 5), (2, 5)])


def gamma2() -> Graph:
    """gamma1 plus the edge between the two outside vertices."""
    return gamma1().with_edges([(4, 5)])


# Which attachment vertices (0, 1, 2 below, graph vertices 8, 9, 10) each
# clique vertex 0..7 is joined to; all eight subsets appear exactly once.
_ATTACHMENTS = ((), (0,), (1,), (2,), (0, 2), (0, 1), (1, 2), (0, 1, 2))


def upsilon(mask: int = 0) -> Graph:
    """An 8-clique 0..7 plus attachment vertices 8, 9, 10, where clique
    vertex i is joined to the attachment subset _ATTACHMENTS[i]. `mask`
    selects which of the three edges among the attachment vertices to add:
    bit 0 is 8-9, bit 1 is 8-10, bit 2 is 9-10."""
    if not 0 <= mask <= 7:
        raise ValueError(f"attachment edge mask must be in 0..7, got {mask}")
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    for i, subset in enumerate(_ATTACHMENTS):
        for j in subset:
            edges.append((i, 8 + j))
    for bit, (a, b) in enumerate(((8, 9), (8, 10), (9, 10))):
        if (mask >> bit) & 1:
            edges.append((a, b))
    return build(11, edges)


def lambda_graph() -> Graph:
    """upsilon with no edges among the attachment vertices."""
    return upsilon(0)


def apex_triangles(count: int) -> Graph:
    """`count` >= 2 disjoint triangles (vertices 3i, 3i+1, 3i+2) plus an
    apex vertex 3*count joined to everything."""
    if count < 2:
        raise ValueError(f"need at least 2 triangles, got {count}")
    n = 3 * count + 1
    apex = n - 1
    edges = []
    for i in range(count):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (a, c), (b, c)]
    edges += [(v, apex) for v in range(apex)]
    return build(n, edges)


# ------------------------------------------------------------- spec parsing

# name -> (parameter count, constructor). A family without parameters is
# written bare, one with parameters as a call.
_FAMILIES = {
    "kn": (1, complete),
    "cn": (1, cycle),
    "pn": (1, path),
    "knm": (3, complete_minus_bipartite),
    "gamma1": (0, gamma1),
    "gamma2": (0, gamma2),
    "lambda": (0, lambda_graph),
    "upsilon": (1, upsilon),
    "apex": (1, apex_triangles),
}
_SHORTHAND = re.compile(r"^([kcp])(\d+)$")
_CALL = re.compile(r"^([a-z0-9]+)\((\d+(?:,\d+)*)\)$")


class FamilySpec(NamedTuple):
    name: str
    params: tuple[int, ...]

    def build(self) -> Graph:
        return _FAMILIES[self.name][1](*self.params)


def parse_spec(text: str) -> FamilySpec:
    """Parse a family spec string; see FAMILY_GRAMMAR."""
    s = text.strip()
    if s in _FAMILIES and _FAMILIES[s][0] == 0:
        return FamilySpec(s, ())
    short = _SHORTHAND.match(s)
    if short:
        return FamilySpec(short.group(1) + "n", (int(short.group(2)),))
    call = _CALL.match(s)
    if call:
        name = call.group(1)
        params = tuple(int(p) for p in call.group(2).split(","))
        arity = _FAMILIES[name][0] if name in _FAMILIES else 0
        if arity == 0:
            raise ValueError(f"unknown family {name!r} in spec {text!r}")
        if len(params) != arity:
            raise ValueError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
        return FamilySpec(name, params)
    raise ValueError(f"cannot parse family spec {text!r}")


def from_spec(text: str) -> Graph:
    """Build the graph a family spec names (parameter errors propagate)."""
    return parse_spec(text).build()
