"""Pure and compiled kernels must be indistinguishable.

Both backends get the same randomized instances; any divergence in results
or in rejected inputs is a bug in one of them. Skipped entirely when the
extension was not built.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
from conftest import twin_rich_graphs

from locdim import _pure, kernels
from locdim.graphs import triangle_bits

compiled = pytest.importorskip("locdim._speedups")

SEED = 0x5EED


def _random_adj(rng: random.Random, n: int, p: float) -> list[int]:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def test_backend_reports_compiled():
    assert kernels.BACKEND in ("pure", "compiled")
    if not os.environ.get("LOCDIM_NO_SPEEDUPS"):
        assert kernels.BACKEND == "compiled"


def test_env_override_forces_pure_backend():
    code = "import locdim.kernels as k; print(k.BACKEND)"
    env = dict(os.environ, LOCDIM_NO_SPEEDUPS="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "pure"


def test_max_clique_agreement():
    rng = random.Random(SEED)
    for _ in range(300):
        n = rng.randint(1, 12)
        adj = _random_adj(rng, n, rng.uniform(0.1, 0.9))
        assert _pure.max_clique(n, adj) == compiled.max_clique(n, adj)


def test_min_hitting_set_agreement():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        universe = rng.randint(1, 16)
        count = rng.randint(1, 12)
        masks = []
        for _ in range(count):
            m = rng.getrandbits(universe)
            if not m:
                m = 1 << rng.randrange(universe)
            masks.append(m)
        lb = rng.randint(0, 1)
        assert _pure.min_hitting_set(universe, masks, lb) == compiled.min_hitting_set(
            universe, masks, lb
        )


def test_canonical_bits_agreement():
    rng = random.Random(SEED + 2)
    for _ in range(200):
        n = rng.randint(1, 7)
        adj = _random_adj(rng, n, rng.uniform(0.2, 0.8))
        assert _pure.canonical_bits(n, adj) == compiled.canonical_bits(n, adj)
    for g in twin_rich_graphs():
        assert _pure.canonical_bits(g.n, g.adj) == compiled.canonical_bits(g.n, g.adj)


def test_is_canonical_agreement():
    """The pure early-exit test, and kernels' choice of it, against the
    compiled full search compared with own."""
    rng = random.Random(SEED + 4)
    cases = []
    for _ in range(200):
        n = rng.randint(1, 9)
        cases.append((n, _random_adj(rng, n, rng.uniform(0.2, 0.8))))
    cases += [(g.n, list(g.adj)) for g in twin_rich_graphs()]
    for n, adj in cases:
        canon = compiled.canonical_bits(n, adj)
        own = triangle_bits(n, adj)
        for target in (own, canon):
            expected = canon == target
            assert _pure.is_canonical(n, adj, target) == expected
            assert kernels.is_canonical(n, adj, target) == expected


@pytest.mark.parametrize("impl", [_pure, compiled], ids=["pure", "compiled"])
def test_canonical_bits_order_cap(impl):
    with pytest.raises(ValueError):
        impl.canonical_bits(12, [0] * 12)


def test_induced_embedding_agreement():
    rng = random.Random(SEED + 3)
    for _ in range(300):
        hn = rng.randint(1, 10)
        pn = rng.randint(1, 5)
        host = _random_adj(rng, hn, rng.uniform(0.2, 0.8))
        pat = _random_adj(rng, pn, rng.uniform(0.2, 0.8))
        assert _pure.induced_embedding(hn, host, pn, pat) == compiled.induced_embedding(
            hn, host, pn, pat
        )
