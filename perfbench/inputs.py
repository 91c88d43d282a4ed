"""Seeded inputs for the workloads. The same seed gives the same inputs.

corpus-8: all 11117 connected classes of order 8 (data/order8.g6, made by
make_corpus.py), each relabeled by a seeded random permutation, in seeded
random order, as graph6 lines.

dense: 27 connected G(n, p) graphs, three per cell of n in {20, 24, 28} and
p in {0.3, 0.6, 0.9}, drawn once from the fixed base seed 0; the run seed
only sets the order they are solved in. The solver's cost on one graph is
heavy-tailed and label-dependent. With the pure kernels on a 2-vCPU AMD
EPYC virtual machine, a fresh draw per seed moved the pass time from 1.7 s
to 11 s across seeds, and relabeling one n=32, p=0.9 graph moved its solve
time 3.5x, so per-seed draws cannot give steady figures.
"""

from __future__ import annotations

import random
from pathlib import Path

from oracle import bfs_rows

ORDER8 = Path(__file__).resolve().parent / "data" / "order8.g6"

DENSE_ORDERS = (20, 24, 28)
DENSE_DENSITIES = (0.3, 0.6, 0.9)
DENSE_PER_CELL = 3
DENSE_BASE_SEED = 0


def corpus8_lines(seed: int) -> list[str]:
    from locdim import from_graph6, to_graph6

    rng = random.Random(f"corpus-8:{seed}")
    lines = []
    for text in ORDER8.read_text().split():
        g = from_graph6(text)
        perm = list(range(g.n))
        rng.shuffle(perm)
        lines.append(to_graph6(g.relabel(perm)))
    rng.shuffle(lines)
    return lines


def _connected_gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if min(bfs_rows(n, edges)[0]) >= 0:
            return edges


def dense_instances(seed: int) -> list[dict]:
    """[{"n", "p", "edges"}], the fixed batch in the seed's order."""
    base = random.Random(DENSE_BASE_SEED)
    batch = [
        {"n": n, "p": p, "edges": _connected_gnp(base, n, p)}
        for n in DENSE_ORDERS
        for p in DENSE_DENSITIES
        for _ in range(DENSE_PER_CELL)
    ]
    random.Random(f"dense:{seed}").shuffle(batch)
    return batch
