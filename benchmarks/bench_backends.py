"""Compare the pure-Python kernels against the compiled extension.

Runs the same kernel workloads through both backends and prints a small
table. Inputs are built once, up front, so only kernel time is measured.
The compiled column needs the extension built in place first; delete the
built file afterwards, or every later run of the package uses it:

    python setup.py build_ext --inplace
    PYTHONPATH=src python benchmarks/bench_backends.py [--repeat N]
    rm src/locdim/_speedups.*.so
"""

from __future__ import annotations

import argparse
import random
import time

from locdim import _pure, enumeration, kernels
from locdim.dimension import distinguisher_sets
from locdim.enumeration import connected_graphs
from locdim.families import (
    apex_triangles,
    complete,
    complete_minus_bipartite,
    gamma1,
    gamma2,
    upsilon,
)
from locdim.graphs import Graph, is_connected

try:
    from locdim import _speedups
except ImportError:
    _speedups = None


def _random_adj(rng: random.Random, n: int, p: float) -> list[int]:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def build_workloads():
    rng = random.Random(1729)

    order6 = list(connected_graphs(6))
    relabelings = []
    for g in order6:
        for _ in range(25):
            perm = list(range(6))
            rng.shuffle(perm)
            relabelings.append(g.relabel(perm).adj)

    # every order-7 class (stars, complete multipartite and other twin-rich
    # graphs among them) plus extra copies of two graphs made of twin classes
    order7_relabelings = []
    twin_rich = [complete(7), complete_minus_bipartite(7, 3, 3)]
    for g, copies in [(g, 3) for g in connected_graphs(7)] + [(g, 25) for g in twin_rich]:
        for _ in range(copies):
            perm = list(range(7))
            rng.shuffle(perm)
            order7_relabelings.append(g.relabel(perm).adj)

    cliques = [_random_adj(rng, 55, 0.9) for _ in range(6)]

    systems = []
    for g in (
        complete_minus_bipartite(12, 5, 4),
        upsilon(0),
        upsilon(7),
        apex_triangles(4),
    ):
        systems.append((g.n, distinguisher_sets(g).masks()))
        systems.append((g.n, distinguisher_sets(g, "full").masks()))

    # dense systems, deep enough to exercise the tree search; solved with
    # no floor, as the value search runs them
    dense_systems = []
    for p in (0.6, 0.9):
        for _ in range(2):
            g = Graph(28, tuple(_random_adj(rng, 28, p)))
            while not is_connected(g):
                g = Graph(28, tuple(_random_adj(rng, 28, p)))
            for mode in ("local", "full"):
                dense_systems.append((g.n, distinguisher_sets(g, mode).masks()))

    # the is_canonical calls of orderly generation up to order 8, recorded
    # from a cold memo with the active backend; the same run gives the
    # order-8 classes
    enumeration._CLASS_BITS.clear()
    canonicity_calls = []
    active = kernels.is_canonical

    def record(n, adj, own):
        canonicity_calls.append((n, adj, own))
        return active(n, adj, own)

    kernels.is_canonical = record
    try:
        order8 = list(connected_graphs(8))
    finally:
        kernels.is_canonical = active
    order8_relabelings = []
    for g in order8:
        for _ in range(3):
            perm = list(range(8))
            rng.shuffle(perm)
            order8_relabelings.append(g.relabel(perm).adj)

    # G(n, p) graphs above the orders the exhaustive streams label, where
    # sparse graphs tie the most columns; disconnected draws are kept
    density_sets = [
        (n, p, [_random_adj(rng, n, p) for _ in range(60)])
        for n in (9, 10, 11)
        for p in (0.2, 0.5, 0.8)
    ]

    order7 = [g.adj for g in connected_graphs(7)]
    patterns = [gamma1().adj, gamma2().adj]

    def canonical(impl):
        for adj in relabelings:
            impl.canonical_bits(6, adj)

    def canonical7(impl):
        for adj in order7_relabelings:
            impl.canonical_bits(7, adj)

    def canonical8(impl):
        for adj in order8_relabelings:
            impl.canonical_bits(8, adj)

    def canonical_density(n, graphs):
        def run(impl):
            for adj in graphs:
                impl.canonical_bits(n, adj)

        return run

    def canonicity(impl):
        for n, adj, own in canonicity_calls:
            impl.is_canonical(n, adj, own)

    def generation(impl):
        # orderly generation from a cold memo: every class of orders 1-6 as
        # parents, then the connected classes of order 7
        enumeration._CLASS_BITS.clear()
        saved = kernels.canonical_bits, kernels.is_canonical
        kernels.canonical_bits = impl.canonical_bits
        kernels.is_canonical = impl.is_canonical
        try:
            list(connected_graphs(7))
        finally:
            kernels.canonical_bits, kernels.is_canonical = saved

    def clique(impl):
        for adj in cliques:
            impl.max_clique(55, adj)

    def hitting(impl):
        for n, masks in systems:
            impl.min_hitting_set(n, masks, 0)

    def hitting_dense(impl):
        for n, masks in dense_systems:
            impl.min_hitting_set(n, masks, 0)

    def embedding(impl):
        for host in order7:
            for pat in patterns:
                impl.induced_embedding(7, host, 6, pat)

    return [
        ("canonical labeling, 2800 relabeled order-6 graphs", canonical),
        (
            f"canonical labeling, {len(order7_relabelings)} relabeled order-7 classes",
            canonical7,
        ),
        (
            f"canonical labeling, {len(order8_relabelings)} relabeled order-8 classes",
            canonical8,
        ),
        *(
            (f"canonical labeling, 60 G({n}, {p}) graphs", canonical_density(n, graphs))
            for n, p, graphs in density_sets
        ),
        (
            f"canonicity test, the {len(canonicity_calls)} calls of generation to order 8",
            canonicity,
        ),
        ("class generation, orders 1-7 from a cold cache", generation),
        ("maximum clique, 6 dense 55-vertex graphs", clique),
        ("minimum hitting set, 8 dimension systems", hitting),
        ("minimum hitting set, dense G(n,p) systems", hitting_dense),
        ("induced embedding, both patterns over 853 hosts", embedding),
    ]


def measure(fn, impl, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn(impl)
        best = min(best, time.perf_counter() - started)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repeats, best-of")
    args = parser.parse_args()

    workloads = build_workloads()
    width = max(len(name) for name, _ in workloads)
    print(f"{'workload':<{width}} {'pure':>11} {'compiled':>11} {'speedup':>8}")
    for name, fn in workloads:
        pure_ms = 1000 * measure(fn, _pure, args.repeat)
        if _speedups is None:
            print(f"{name:<{width}} {pure_ms:>9.3f}ms {'-':>11} {'-':>8}")
            continue
        fast_ms = 1000 * measure(fn, _speedups, args.repeat)
        print(
            f"{name:<{width}} {pure_ms:>9.3f}ms {fast_ms:>9.3f}ms {pure_ms / fast_ms:>7.1f}x"
        )
    if _speedups is None:
        print("compiled extension not built; showing pure timings only")


if __name__ == "__main__":
    main()
