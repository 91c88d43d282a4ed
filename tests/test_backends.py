"""Pure and compiled kernels must be indistinguishable.

Both backends get the same randomized instances; any divergence in results
or in rejected inputs is a bug in one of them. The compiled module is the
one conftest builds from src/locdim/_speedups.c for this session.
"""

from __future__ import annotations

import gc
import hashlib
import random
import subprocess
import sys

import pytest
from conftest import complete_multipartite, matching, petersen, random_connected, twin_rich_graphs

from locdim import _pure
from locdim.dimension import distinguisher_sets, lower_bounds
from locdim.families import complete, cycle, gamma1, gamma2
from locdim.graphs import build, graph_from_triangle_bits, triangle_bits

SEED = 0x5EED


def _random_adj(rng: random.Random, n: int, p: float) -> list[int]:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def test_backend_reports_compiled(compiled):
    """In a fresh interpreter where the compiled build is importable as
    locdim._speedups, locdim.kernels uses it: BACKEND reads "compiled" and
    is_canonical is the compiled one."""
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('locdim._speedups', {compiled.__file__!r})\n"
        "sys.modules['locdim._speedups'] = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(sys.modules['locdim._speedups'])\n"
        "import locdim.kernels as k\n"
        "print(k.BACKEND, k.is_canonical is sys.modules['locdim._speedups'].is_canonical)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "compiled True"


BAD_INPUTS = {
    "max_clique-n63": lambda k: k.max_clique(63, [0] * 63),
    "induced_embedding-n63": lambda k: k.induced_embedding(63, [0] * 63, 1, [0]),
    "induced_embedding-pattern-n-1": lambda k: k.induced_embedding(3, [0] * 3, -1, []),
    "canonical_bits-n12": lambda k: k.canonical_bits(12, [0] * 12),
    "is_canonical-n12": lambda k: k.is_canonical(12, [0] * 12, 0),
    "min_hitting_set-bit64": lambda k: k.min_hitting_set(62, [1 << 64], 0),
    "min_hitting_set-negative": lambda k: k.min_hitting_set(3, [-2, 1], 0),
    "lex_min_hitting_set-universe63": lambda k: k.lex_min_hitting_set(63, [1], 1),
    "lex_min_hitting_set-bit64": lambda k: k.lex_min_hitting_set(62, [1 << 64], 1),
    "lex_min_hitting_set-negative": lambda k: k.lex_min_hitting_set(3, [-2, 1], 1),
    "lex_min_hitting_set-empty": lambda k: k.lex_min_hitting_set(4, [0b0101, 0], 1),
    "lex_min_hitting_set-outside": lambda k: k.lex_min_hitting_set(3, [0b1000], 0b1000),
    "lex_min_hitting_set-found-outside": lambda k: k.lex_min_hitting_set(3, [1], 0b1001),
    "lex_min_hitting_set-found-negative": lambda k: k.lex_min_hitting_set(3, [1], -1),
    "lex_min_hitting_set-found-bit64": lambda k: k.lex_min_hitting_set(62, [1], 1 << 64 | 1),
    "lex_min_hitting_set-found-misses": lambda k: k.lex_min_hitting_set(3, [0b01, 0b10], 0b01),
}


@pytest.mark.parametrize("call", list(BAD_INPUTS.values()), ids=list(BAD_INPUTS))
def test_out_of_range_input_rejected(impl, call):
    """Inputs past a kernel's fixed word or array size, and a found that
    is not a hitting set within the universe. min_hitting_set's universe 63,
    empty constraint and out-of-universe bit are in test_dimension's
    TestHittingSetValidation, on both backends too."""
    with pytest.raises(ValueError):
        call(impl)


def test_hitting_set_errors_match(compiled):
    """Both backends reject every bad hitting-set input above with the same
    message."""
    for name, call in BAD_INPUTS.items():
        if "hitting_set" not in name:
            continue
        messages = []
        for kernel in (_pure, compiled):
            with pytest.raises(ValueError) as caught:
                call(kernel)
            messages.append(str(caught.value))
        assert messages[0] == messages[1], name


def test_max_clique_agreement(compiled):
    """Clique numbers; the clique witness is rebuilt outside the kernels,
    in invariants.max_clique, and is checked on both backends in
    test_invariants."""
    rng = random.Random(SEED)
    for _ in range(300):
        n = rng.randint(1, 12)
        adj = _random_adj(rng, n, rng.uniform(0.1, 0.9))
        assert _pure.max_clique(n, adj) == compiled.max_clique(n, adj)
    # the 64-bit word's edge: vertex 61 is the top bit of every mask
    for p in (0.3, 0.6, 0.8):
        adj = _random_adj(rng, 62, p)
        assert _pure.max_clique(62, adj) == compiled.max_clique(62, adj)


def _dense_systems() -> list[tuple[int, list[int], int]]:
    """Local and full systems of G(28, p) draws, each with the graph's
    checked floors, which stand in for the witness rebuild's probe budgets:
    deep enough to reach the tree search, in the value search and in the
    rebuild's probes."""
    rng = random.Random(SEED + 5)
    systems = []
    for p in (0.6, 0.9):
        for _ in range(2):
            g = random_connected(rng, 28, p)
            best = lower_bounds(g).best
            for mode in ("local", "full"):
                systems.append((g.n, list(distinguisher_sets(g, mode=mode).masks()), best))
    return systems


def test_min_hitting_set_agreement(compiled):
    """The same hitting set from both backends, not only the same size, and
    the same witness lex_min_hitting_set rebuilds from it on each."""
    rng = random.Random(SEED + 1)
    cases = []
    for _ in range(300):
        universe = rng.randint(1, 16)
        count = rng.randint(1, 12)
        masks = []
        for _ in range(count):
            m = rng.getrandbits(universe)
            if not m:
                m = 1 << rng.randrange(universe)
            masks.append(m)
        cases.append((universe, masks, rng.randint(0, 1)))
    # universe 62 with bit 61 in use: sparse masks over the whole word, and
    # the top element forced into the witness by a singleton
    for _ in range(40):
        masks = [rng.getrandbits(62) & rng.getrandbits(62) & rng.getrandbits(62) or 1 << 61
                 for _ in range(20)]
        masks += [1 << 61, (1 << 60) | (1 << 59)]
        cases.append((62, masks, rng.randint(0, 1)))
    cases += _dense_systems()
    for universe, masks, lb in cases:
        found = _pure.min_hitting_set(universe, masks, lb)
        assert found == compiled.min_hitting_set(universe, masks, lb), (universe, masks, lb)
        witness = _pure.lex_min_hitting_set(universe, masks, found)
        assert witness == compiled.lex_min_hitting_set(universe, masks, found), (universe, masks)


def test_canonical_bits_agreement(compiled):
    rng = random.Random(SEED + 2)
    for _ in range(200):
        n = rng.randint(1, 7)
        adj = _random_adj(rng, n, rng.uniform(0.2, 0.8))
        assert _pure.canonical_bits(n, adj) == compiled.canonical_bits(n, adj)
    for g in twin_rich_graphs():
        assert _pure.canonical_bits(g.n, g.adj) == compiled.canonical_bits(g.n, g.adj)


def test_is_canonical_agreement(compiled):
    """Both early-exit tests against the full search compared with own."""
    rng = random.Random(SEED + 4)
    cases = []
    for _ in range(200):
        n = rng.randint(1, 9)
        cases.append((n, _random_adj(rng, n, rng.uniform(0.2, 0.8))))
    cases += [(g.n, list(g.adj)) for g in twin_rich_graphs()]
    for n, adj in cases:
        canon = _pure.canonical_bits(n, adj)
        own = triangle_bits(n, adj)
        for target in (own, canon):
            expected = canon == target
            assert _pure.is_canonical(n, adj, target) == expected
            assert compiled.is_canonical(n, adj, target) == expected


# sha256 of canonical_bits over _orders_nine_to_eleven(), one "n bits-in-hex"
# line per graph, as the search gave before it branched on maximum
# independent sets (every labeling order of a tie, both backends alike)
ORDERS_NINE_TO_ELEVEN_SHA256 = "a0b23437b1ae631c136ec103f2b34f9cbb7acf0b22c6715e10b76142129d21be"


def _orders_nine_to_eleven() -> list[tuple[int, list[int]]]:
    """300 seeded graphs, orders 9, 10 and 11 in turn, each at p 0.2, 0.5
    and 0.8; disconnected draws are kept."""
    rng = random.Random(2412)
    return [
        (9 + i % 3, _random_adj(rng, 9 + i % 3, (0.2, 0.5, 0.8)[i // 3 % 3]))
        for i in range(300)
    ]


def test_canonical_bits_pinned_above_the_permutation_oracle(impl):
    """Above the n! oracle's range, the strings of the earlier search are
    the oracle."""
    text = "\n".join(
        f"{n} {impl.canonical_bits(n, adj):x}" for n, adj in _orders_nine_to_eleven()
    )
    assert hashlib.sha256(text.encode()).hexdigest() == ORDERS_NINE_TO_ELEVEN_SHA256


# name -> (graph, least string) for families with many maximum independent
# sets, or many twins, or neither; the strings are the earlier search's
BLOCK_HEAVY = {
    "K2": (matching(1), 0x1),
    "2K2": (matching(2), 0xC),
    "3K2": (matching(3), 0x290),
    "4K2": (matching(4), 0x48840),
    "5K2": (matching(5), 0x44208100),
    "K11": (complete(11), (1 << 55) - 1),
    "E11": (build(11, []), 0),
    "K3,3,3": (complete_multipartite(3, 3, 3), 0x1FB9FFEFC),
    "K2,2,2,2,2": (complete_multipartite(2, 2, 2, 2, 2), 0xF7FBFFDFFFE),
    "K1,2,3,4": (complete_multipartite(1, 2, 3, 4), 0x7FBCFFFDFF),
    "K5,6": (complete_multipartite(5, 6), 0xFFF7E7E3F0),
    "K1,10": (complete_multipartite(1, 10), 0x3FF),
    "C9": (cycle(9), 0x4AA50C0),
    "C10": (cycle(10), 0xCA514180),
    "Petersen": (petersen(), 0x1A98934990),
}


@pytest.mark.parametrize("g, least", BLOCK_HEAVY.values(), ids=BLOCK_HEAVY)
def test_block_heavy_families(impl, g, least):
    rng = random.Random(SEED + 5)
    canon = graph_from_triangle_bits(g.n, least)
    assert impl.is_canonical(g.n, canon.adj, least)
    for _ in range(4):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert impl.canonical_bits(g.n, h.adj) == least
        own = triangle_bits(g.n, h.adj)
        assert impl.is_canonical(g.n, h.adj, own) == (own == least)


def test_is_canonical_rejects_a_short_zero_prefix(impl):
    """A labeling with an edge first has a 1 in column 1. With alpha >= 2
    the least string's columns 0..alpha-1 are all zero, so that labeling is
    not canonical, whatever follows."""
    rng = random.Random(SEED + 6)
    graphs = [g for g, _ in BLOCK_HEAVY.values() if g.edges()]
    graphs += [random_connected(rng, rng.randint(3, 11)) for _ in range(40)]
    for g in graphs:
        edges = g.edges()
        if len(edges) == g.n * (g.n - 1) // 2:
            continue
        u, v = edges[rng.randrange(len(edges))]
        order = [u, v] + [w for w in range(g.n) if w not in (u, v)]
        # vertex order[i] moves to position i
        perm = [0] * g.n
        for i, w in enumerate(order):
            perm[w] = i
        h = g.relabel(perm)
        own = triangle_bits(g.n, h.adj)
        assert own >> (g.n * (g.n - 1) // 2 - 1) == 1
        assert not impl.is_canonical(g.n, h.adj, own), g
        assert impl.canonical_bits(g.n, h.adj) < own


def test_induced_embedding_agreement(compiled):
    rng = random.Random(SEED + 3)
    for _ in range(300):
        hn = rng.randint(1, 10)
        pn = rng.randint(1, 5)
        host = _random_adj(rng, hn, rng.uniform(0.2, 0.8))
        pat = _random_adj(rng, pn, rng.uniform(0.2, 0.8))
        assert _pure.induced_embedding(hn, host, pn, pat) == compiled.induced_embedding(
            hn, host, pn, pat
        )
    # 62-vertex hosts, where the candidate masks use the word's top bits
    patterns = [(6, list(gamma1().adj)), (6, list(gamma2().adj))]
    patterns += [(pn, _random_adj(rng, pn, 0.5)) for pn in (3, 4, 5, 6)]
    # a star centred on vertex 61: the only image of a star pattern's centre
    star = [1 << 61] * 61 + [(1 << 61) - 1]
    patterns.append((4, [0b1110, 1, 1, 1]))
    for host in [_random_adj(rng, 62, p) for p in (0.1, 0.5, 0.9)] + [star]:
        for pn, pat in patterns:
            assert _pure.induced_embedding(62, host, pn, pat) == compiled.induced_embedding(
                62, host, pn, pat
            )


PURE_KERNEL_CALLS = [
    "max_clique",
    "min_hitting_set",
    "lex_min_hitting_set",
    "canonical_bits",
    "is_canonical",
    "induced_embedding",
    "induced_embedding_none",
]


def _pure_kernel_calls():
    """One call of each pure kernel, on an input that reaches its search."""
    g = random_connected(random.Random(SEED + 4), 9, 0.5)
    masks = distinguisher_sets(g).masks()
    found = _pure.min_hitting_set(g.n, masks)
    host, pattern = complete(4), build(3, [(0, 1), (1, 2)])
    gamma = gamma1()
    return {
        "max_clique": lambda: _pure.max_clique(g.n, g.adj),
        "min_hitting_set": lambda: _pure.min_hitting_set(g.n, masks),
        "lex_min_hitting_set": lambda: _pure.lex_min_hitting_set(g.n, masks, found),
        "canonical_bits": lambda: _pure.canonical_bits(g.n, g.adj),
        "is_canonical": lambda: _pure.is_canonical(g.n, g.adj, triangle_bits(g.n, g.adj)),
        # a path in gamma1 is found; an induced path in a clique is not
        "induced_embedding": lambda: _pure.induced_embedding(gamma.n, gamma.adj, 3, pattern.adj),
        "induced_embedding_none": lambda: _pure.induced_embedding(host.n, host.adj, 3, pattern.adj),
    }


@pytest.mark.parametrize("kernel", PURE_KERNEL_CALLS)
def test_pure_kernels_leave_no_reference_cycle(kernel):
    """A recursive closure refers to itself, so a kernel that kept one
    bound at return would leave a cycle that only the cyclic collector
    frees; with it disabled, one call leaves nothing to collect."""
    calls = _pure_kernel_calls()
    assert list(calls) == PURE_KERNEL_CALLS
    call = calls[kernel]
    gc.collect()
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
