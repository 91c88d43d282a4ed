"""Shared naive oracles and generators.

Everything here is deliberately simple and independent of the package's
search kernels: subset enumeration instead of branch and bound, index-order
assignment instead of ordered backtracking, every permutation instead of a
pruned canonical search. Slow on purpose; only run at small orders. The
one exception is the labeled recount of the class stream, which uses the
canonical_bits kernel but none of the orderly generator it checks.

The compiled kernels are built here too: the `compiled` fixture compiles
src/locdim/_speedups.c once per session into a temporary directory, and
the `impl` fixture hands every backend-parametrized test each backend in
turn.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import random
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from locdim import _pure, kernels
from locdim.dimension import is_local_resolving, is_resolving
from locdim.enumeration import connected_graphs
from locdim.families import complete, cycle
from locdim.graphs import (
    Graph,
    bfs_distances,
    build,
    graph_from_triangle_bits,
    is_connected,
    triangle_bits,
)

SPEEDUPS_SOURCE = Path(__file__).resolve().parent.parent / "src" / "locdim" / "_speedups.c"


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """locdim._speedups built from its C source with gcc into a temporary
    directory, not into src/, so the package's own backend choice is left
    alone. Skips only when there is no C compiler."""
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("no C compiler (gcc) to build locdim._speedups")
    target = tmp_path_factory.mktemp("speedups") / (
        "_speedups" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    subprocess.run(
        [
            gcc, "-O3", "-shared", "-fPIC",
            "-I" + sysconfig.get_paths()["include"],
            str(SPEEDUPS_SOURCE), "-o", str(target),
        ],
        check=True,
    )
    spec = importlib.util.spec_from_file_location("locdim._speedups", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["pure", "compiled"])
def impl(request):
    """Each kernel backend in turn: locdim._pure, then the compiled build."""
    if request.param == "pure":
        return _pure
    return request.getfixturevalue("compiled")


def naive_clique(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Largest clique by trying subsets top-down; first hit at the winning
    size is the lexicographically smallest witness."""
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                return size, combo
    return 0, ()


def naive_dimension(g: Graph, mode: str = "local") -> tuple[int, tuple[int, ...]]:
    """Minimum over explicit enumeration of all vertex subsets, sizes
    ascending; the first resolving subset is the lexicographically smallest
    optimal witness."""
    check = is_local_resolving if mode == "local" else is_resolving
    dm = bfs_distances(g)
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if check(g, combo, dm):
                return size, combo
    raise AssertionError("no resolving set found, which is impossible")


def naive_distances(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """All-pairs hop distances by plain queue BFS over neighbour lists, -1
    where no path exists; independent of the package's bitmask BFS."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = [s]
        for u in queue:
            for v in nbrs[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        rows.append(dist)
    return rows


def naive_hitting_set(universe: int, masks) -> tuple[int, int]:
    """Smallest set of elements 0..universe-1 meeting every mask, by trying
    combinations of ascending size; the first hit is the lexicographically
    smallest optimum. Returns (size, witness_mask)."""
    for k in range(universe + 1):
        for combo in itertools.combinations(range(universe), k):
            chosen = sum(1 << v for v in combo)
            if all(m & chosen for m in masks):
                return k, chosen
    raise AssertionError("no hitting set: some mask is empty")


def naive_optima(universe: int, masks) -> list[int]:
    """Every minimum hitting set of masks over elements 0..universe-1, as
    masks, lexicographically smallest first."""
    size = naive_hitting_set(universe, masks)[0]
    optima = []
    for combo in itertools.combinations(range(universe), size):
        chosen = sum(1 << v for v in combo)
        if all(m & chosen for m in masks):
            optima.append(chosen)
    return optima


def assert_hitting_set(universe: int, masks, found: int, size: int, context=()) -> None:
    """The min_hitting_set contract: found is a mask within the universe,
    and within the union of the masks, that hits every mask and has `size`
    elements."""
    union = 0
    for m in masks:
        union |= m
    assert found >= 0 and not found >> universe, (found, universe, *context)
    assert not found & ~union, (found, union, *context)
    assert all(m & found for m in masks), (found, masks, *context)
    assert found.bit_count() == size, (found, size, *context)


def naive_induced_exists(host: Graph, pattern: Graph) -> bool:
    """Injective assignments in pattern-index order; prefix-inconsistent
    branches abandoned, nothing else pruned."""
    if pattern.n > host.n:
        return False
    assign = [-1] * pattern.n

    def rec(pos: int, used: int) -> bool:
        if pos == pattern.n:
            return True
        for h in range(host.n):
            if (used >> h) & 1:
                continue
            if all(
                pattern.has_edge(pos, q) == host.has_edge(h, assign[q])
                for q in range(pos)
            ):
                assign[pos] = h
                if rec(pos + 1, used | (1 << h)):
                    return True
        return False

    return rec(0, 0)


def reference_embedding(host: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """First induced embedding in find_induced's documented order: pattern
    vertices by degree descending (ties by index), host candidates
    ascending. Plain backtracking that checks every assigned pair and
    prunes nothing else. Returns the mapping pattern vertex -> host vertex,
    or None."""
    if pattern.n > host.n:
        return None
    order = sorted(range(pattern.n), key=lambda p: (-pattern.degree(p), p))
    assign: dict[int, int] = {}

    def rec(pos: int) -> bool:
        if pos == pattern.n:
            return True
        p = order[pos]
        for h in range(host.n):
            if h in assign.values():
                continue
            if all(
                pattern.has_edge(p, q) == host.has_edge(h, assign[q])
                for q in order[:pos]
            ):
                assign[p] = h
                if rec(pos + 1):
                    return True
                del assign[p]
        return False

    return tuple(assign[p] for p in range(pattern.n)) if rec(0) else None


def naive_canonical_bits(n: int, adj) -> int:
    """Minimum of triangle_bits over all n! relabelings, nothing pruned.
    Position i of a relabeling holds the original vertex perm[i]."""
    best = None
    for perm in itertools.permutations(range(n)):
        rows = [0] * n
        for i in range(n):
            row = adj[perm[i]]
            for j in range(n):
                if (row >> perm[j]) & 1:
                    rows[i] |= 1 << j
        bits = triangle_bits(n, rows)
        if best is None or bits < best:
            best = bits
    return best


def triangle_rows_by_pairs(n: int, bits: int) -> list[int]:
    """Adjacency rows of the n-vertex graph whose triangle bits are bits,
    testing one pair at a time in (0,1), (0,2), (1,2), (0,3), ... order,
    first pair most significant: the reference for the column slices of
    graphs._triangle_rows."""
    rows = [0] * n
    pos = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if (bits >> pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def naive_blocks(n: int, adj) -> set[int]:
    """The maximum independent sets whose every member is the lowest vertex
    of its true-twin class (equal closed neighborhoods), as masks, by
    testing every vertex subset. A subset is independent when its lowest
    member has no neighbor in it and the rest is independent."""
    closed = [adj[v] | 1 << v for v in range(n)]
    lowest = sum(1 << v for v in range(n) if closed[v] not in closed[:v])
    independent = [True] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        independent[s] = independent[s ^ low] and not adj[low.bit_length() - 1] & s
    alpha = max(s.bit_count() for s in range(1 << n) if independent[s])
    return {
        s
        for s in range(1 << n)
        if independent[s] and s.bit_count() == alpha and not s & ~lowest
    }


def matching(k: int) -> Graph:
    """kK2: k disjoint edges, vertex 2i joined to 2i + 1."""
    return build(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def petersen() -> Graph:
    """The Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, and
    spokes i to i + 5. No twins, independence number 4."""
    return build(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )


def complete_multipartite(*parts: int) -> Graph:
    """Vertices numbered part by part; two vertices are adjacent iff they
    lie in different parts. Two parts give the complete bipartite graphs,
    (1, k) the stars."""
    label = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(label)
    return build(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if label[u] != label[v]]
    )


def blow_up(base: Graph, sizes, cliques: bool) -> Graph:
    """Replace vertex i of base by sizes[i] copies: false twins (an
    independent set) or, with cliques, true twins. Copies of adjacent base
    vertices are all joined."""
    owner = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(owner)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if base.has_edge(owner[u], owner[v]) or (cliques and owner[u] == owner[v])
    ]
    return build(n, edges)


def twin_rich_graphs() -> list[Graph]:
    """Graphs with large twin classes, at most 7 vertices, and their
    complements (disjoint unions of cliques and other disconnected cases
    among them)."""
    graphs = [complete(n) for n in range(1, 8)]
    for parts in (
        (1, 2), (1, 3), (1, 5), (1, 6),
        (2, 2), (2, 3), (3, 3), (2, 5), (3, 4),
        (1, 1, 2), (2, 2, 2), (1, 2, 3), (1, 1, 2, 3), (2, 2, 3), (1, 1, 1, 1, 3),
    ):
        graphs.append(complete_multipartite(*parts))
    for sizes in ((2, 1, 1, 1, 1), (2, 2, 1, 1, 1), (2, 1, 2, 1, 1), (3, 1, 1, 1, 1)):
        for cliques in (False, True):
            graphs.append(blow_up(cycle(5), sizes, cliques))
    return graphs + [g.complement() for g in graphs]


def random_connected(rng: random.Random, n: int, p: float | None = None) -> Graph:
    """Uniform-ish random connected graph: resample until connected."""
    while True:
        density = p if p is not None else rng.uniform(0.25, 0.75)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        ]
        g = build(n, edges)
        if is_connected(g):
            return g


def stream_upto(max_n: int):
    """All connected graph classes with 1 <= n <= max_n, in order."""
    for n in range(1, max_n + 1):
        yield from connected_graphs(n)


@functools.lru_cache(maxsize=None)
def connected_class_bits_by_filter(n: int) -> frozenset[int]:
    """Independent recount of the class stream: canonicalize every labeled
    connected graph on n vertices and return the distinct canonical bits.
    It shares the canonical_bits kernel with the package but none of the
    orderly generator. Exponential in n**2, meant for n <= 6."""
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
