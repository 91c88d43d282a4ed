"""Independent checks for the dense workload.

The integer program is the classical one for the metric dimension
(Chartrand, Eroh, Johnson and Oellermann, 2000), restricted to adjacent
pairs for the local version (Okamoto et al., 2010): one 0/1 variable per
vertex, one covering row per pair, minimize the number of chosen vertices.
Distances come from this module's own BFS over the benchmark's edge lists,
so nothing here shares code with the solver. SciPy is a bench tool only.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence


def bfs_rows(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    """All-pairs hop distances by plain queue BFS; -1 marks unreachable."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        rows.append(dist)
    return rows


def pair_sets(n: int, edges: Sequence[tuple[int, int]], mode: str) -> list[list[int]]:
    """Vertices seeing each pair at different distances: one list per edge
    (local) or per vertex pair (full)."""
    dist = bfs_rows(n, edges)
    if mode == "local":
        pairs = [(min(u, v), max(u, v)) for u, v in edges]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [[w for w in range(n) if dist[w][u] != dist[w][v]] for u, v in pairs]


def ilp_value(n: int, edges: Sequence[tuple[int, int]], mode: str) -> int:
    """Optimum of the covering program, solved by scipy.optimize.milp."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    sets = pair_sets(n, edges, mode)
    a = np.zeros((len(sets), n))
    for i, ws in enumerate(sets):
        a[i, ws] = 1.0
    res = milp(
        c=np.ones(n),
        constraints=LinearConstraint(a, lb=1.0, ub=np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return int(round(res.fun))


def check_solve(g, mode: str, value: int, witness: tuple[int, ...], best: int, expected: int) -> str | None:
    """None when a solve's output is right, else the reason it is wrong.

    `best` is the solver's reported floor and `expected` the ILP optimum."""
    from locdim import is_local_resolving, is_resolving

    resolving = is_local_resolving if mode == "local" else is_resolving
    if len(witness) != value:
        return f"witness size {len(witness)} != value {value}"
    if not resolving(g, witness):
        return f"witness {list(witness)} does not resolve in {mode} mode"
    if value < best:
        return f"value {value} below floor {best}"
    if value != expected:
        return f"value {value} != ILP optimum {expected}"
    return None
