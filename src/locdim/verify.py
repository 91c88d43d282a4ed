"""Structural checks tying local metric dimension to clique number.

Eleven checks (C1..C11), each a statement that must hold for every
connected graph meeting its premise; a check whose premise fails is
recorded as inapplicable and vacuously true. run_suite evaluates them over
a stream of graphs a chunk at a time, optionally fanning the chunks out to
worker processes; everything is deterministic, so the machine-readable
output is byte-identical for any worker count. All verdicts compare exact
integers, never floats.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import NamedTuple

from .dimension import _floors, _masks, _minima, _value
from .enumeration import CANONICAL_MAX_VERTICES, canonical_graph6, connected_graphs
from .families import apex_triangles, complete_minus_bipartite
from .graphs import MAX_VERTICES, Graph, _triangle_graph6, bit_indices, is_bipartite, to_graph6
from .pattern import is_gamma_free


def complete_minus_bipartite_params(g: Graph) -> tuple[int, int] | None:
    """Recognize a complete graph minus the edges of a complete bipartite
    part: the complement must be exactly a complete bipartite graph on two
    disjoint blocks plus isolated vertices, with at least one vertex outside
    both blocks. Returns (lam, mu), lam >= mu >= 1, or None."""
    full = (1 << g.n) - 1
    comp = [(~g.adj[v] & full) & ~(1 << v) for v in range(g.n)]
    tailed = [v for v in range(g.n) if comp[v]]
    if not tailed:
        return None
    tailed_mask = 0
    for v in tailed:
        tailed_mask |= 1 << v
    a_mask = comp[tailed[0]]
    b_mask = tailed_mask & ~a_mask
    for v in bit_indices(a_mask):
        if comp[v] != b_mask:
            return None
    for v in bit_indices(b_mask):
        if comp[v] != a_mask:
            return None
    if (a_mask | b_mask) == full:
        # both blocks cover everything: the original graph is disconnected
        return None
    lam, mu = sorted((a_mask.bit_count(), b_mask.bit_count()), reverse=True)
    return lam, mu


def _graph_id(g: Graph) -> str:
    """Canonical graph6 where canonical labeling reaches, else the input's.
    A graph from connected_graphs carries its canonical bits, in a pool
    worker too, so only other input, a corpus say, is relabeled."""
    if g._canonical_bits is not None:
        return _triangle_graph6(g.n, g._canonical_bits)
    if g.n <= CANONICAL_MAX_VERTICES:
        return canonical_graph6(g)
    return to_graph6(g)


# graphs per unit of work: a run draws at most this many at a time, and
# each such chunk is one pool task. Each fact is computed over the whole
# chunk before the next, which keeps one layer's code and branches hot.
# Facts and verdicts per relabeled order-8 class, in process: graph by graph
# 153 us pure and 38 compiled; chunks of 8, 132 and 38; chunks of 32 to all
# 11117, 121-127 and 33-35. Pool wall at jobs=2 over the same classes did
# not tell chunks of 64 to 1024 apart on either backend (BENCH_27.json)
CHUNK = 256


def _chunks(graphs: Iterable[Graph], size: int = CHUNK) -> Iterator[list[Graph]]:
    """The stream in lists of at most `size` graphs, each drawn when asked for."""
    stream = iter(graphs)
    while chunk := list(itertools.islice(stream, size)):
        yield chunk


class GraphFacts:
    """Everything the checks consult about one graph, computed once.
    GraphFacts(g) is the one-graph chunk of _chunk_facts. The value is
    solved from the constraints alone, so C4 and C5 test the floors in
    `bounds` against it; omega and what derives from it are read off
    `bounds`. Only gamma_free waits for its first read: the checks read it
    only when omega = n-2, and it costs two embedding searches."""

    def __new__(cls, g: Graph) -> GraphFacts:
        return _chunk_facts([g])[0]

    @property
    def omega(self) -> int:
        return self.bounds.omega

    @property
    def is_complete(self) -> bool:
        return self.bounds.omega == self.n

    @property
    def triangle_free(self) -> bool:
        return self.bounds.omega <= 2

    @functools.cached_property
    def gamma_free(self) -> bool:
        return is_gamma_free(self.g)

    @property
    def classified_n_minus_3(self) -> bool:
        """Predicted member of the dim_local = n-3 class: a gamma-free graph
        with clique number n-2, the 5-cycle, or a clique-minus-biclique
        member with both blocks of size at least 2."""
        case_i = self.omega == self.n - 2 and self.gamma_free
        return case_i or self.is_cycle5 or self.is_split_extremal


def _chunk_facts(graphs: Sequence[Graph]) -> list[GraphFacts]:
    """The facts of each graph, one layer over the whole chunk before the
    next: local values, floors, graph ids, bipartiteness, the split test.
    The values come first, and every mask before any search: their walks
    (dimension._masks) raise DisconnectedError for a disconnected graph."""
    values = _minima(graphs, _masks(graphs, "local"))
    bounds = list(map(_floors, graphs))
    graph_ids = list(map(_graph_id, graphs))
    bipartite = list(map(is_bipartite, graphs))
    split = list(map(complete_minus_bipartite_params, graphs))
    new = object.__new__
    chunk = []
    for g, b, graph_id, dim_local, bip, params in zip(
        graphs, bounds, graph_ids, values, bipartite, split
    ):
        f = new(GraphFacts)
        f.g = g
        f.n = n = g.n
        f.bounds = b
        # the value alone: no check reads a witness
        f.dim_local = dim_local
        f.graph_id = graph_id
        f.bipartite = bip
        # the 5-cycle is the only connected 2-regular graph on 5 vertices
        f.is_cycle5 = n == 5 and all(g.degree(v) == 2 for v in range(5))
        # a clique-minus-biclique member with both removed blocks of size >= 2
        f.is_split_extremal = params is not None and params[1] >= 2
        chunk.append(f)
    return chunk


def _clique_ratio(dim_local: int, omega: int, n: int) -> tuple[bool, str]:
    """dim_local*(omega-1) <= (omega-2)*n in exact integers, with its
    details; callers apply their own premise."""
    lhs = dim_local * (omega - 1)
    rhs = (omega - 2) * n
    return lhs <= rhs, f"dim_local*(omega-1)={lhs} (omega-2)*n={rhs}"


class TheoremReport(NamedTuple):
    """One graph's verdicts as data: bit i of `applicable` and `holds`
    belongs to check `checks[i]`. An inapplicable check keeps its holds bit
    set (vacuously true). `details` holds the text of each violated check
    (applicable and not holding) in check order, so it is () whenever every
    check holds; a passing check's text is CHECKS[cid](GraphFacts(g))[2].
    A tuple, so a worker process sends back just these five fields."""

    graph_id: str
    checks: tuple[str, ...]
    applicable: int
    holds: int
    details: tuple[str, ...]


_NOT_APPLICABLE = "premise not met"


def _c1(f: GraphFacts) -> tuple[bool, bool, str]:
    """C1: dim_local = n-1 exactly for complete graphs."""
    ok = (f.dim_local == f.n - 1) == f.is_complete
    return True, ok, f"dim_local={f.dim_local} complete={f.is_complete}"


def _c2(f: GraphFacts) -> tuple[bool, bool, str]:
    """C2: dim_local = n-2 exactly when the clique number is n-1."""
    ok = (f.dim_local == f.n - 2) == (f.omega == f.n - 1)
    return True, ok, f"dim_local={f.dim_local} omega={f.omega}"


def _c3(f: GraphFacts) -> tuple[bool, bool, str]:
    """C3: dim_local = 1 exactly for bipartite graphs."""
    ok = (f.dim_local == 1) == f.bipartite
    return True, ok, f"dim_local={f.dim_local} bipartite={f.bipartite}"


def _c4(f: GraphFacts) -> tuple[bool, bool, str]:
    """C4: dim_local >= ceil(log2 omega) and >= n - 2**(n-omega)."""
    log_floor = f.bounds.log_clique
    gap_floor = f.bounds.gap_raw
    ok = f.dim_local >= log_floor and f.dim_local >= gap_floor
    return True, ok, f"dim_local={f.dim_local} log_floor={log_floor} gap_floor={gap_floor}"


def _c5(f: GraphFacts) -> tuple[bool, bool, str]:
    """C5: dim_local >= n minus the number of true-twin classes."""
    floor = f.bounds.twin
    ok = f.dim_local >= floor
    return True, ok, f"dim_local={f.dim_local} twin_floor={floor}"


def _c6(f: GraphFacts) -> tuple[bool, bool, str]:
    """C6: triangle-free: 5*dim_local <= 2*n."""
    if not f.triangle_free:
        return False, True, _NOT_APPLICABLE
    ok = 5 * f.dim_local <= 2 * f.n
    return True, ok, f"5*dim_local={5 * f.dim_local} 2n={2 * f.n}"


def _c7(f: GraphFacts) -> tuple[bool, bool, str]:
    """C7: omega <= n-3: dim_local <= n-3, equality only on the extremal family."""
    if f.n < 5 or f.omega > f.n - 3:
        return False, True, _NOT_APPLICABLE
    # omega <= n-3 makes the classification's first case false before it
    # reads gamma_free
    member = f.classified_n_minus_3
    ok = f.dim_local <= f.n - 3 and (f.dim_local == f.n - 3) == member
    return True, ok, f"dim_local={f.dim_local} ceiling={f.n - 3} extremal_member={member}"


def _c8(f: GraphFacts) -> tuple[bool, bool, str]:
    """C8: clique-regime bounds for omega in {n, n-1, n-2, n-3}."""
    gap = f.n - f.omega
    if gap > 3:
        return False, True, _NOT_APPLICABLE
    if gap == 0:
        ok = f.dim_local == f.n - 1
    elif gap == 1:
        ok = f.dim_local == f.n - 2
    elif gap == 2:
        ok = f.n - 4 <= f.dim_local <= f.n - 3
    else:
        ok = f.n - 8 <= f.dim_local <= f.n - 3
    return True, ok, f"dim_local={f.dim_local} omega={f.omega} regime=n-{gap}"


def _c9(f: GraphFacts) -> tuple[bool, bool, str]:
    """C9: dim_local = n-3 classification (three cases)."""
    if f.n < 5:
        return False, True, _NOT_APPLICABLE
    member = f.classified_n_minus_3
    ok = (f.dim_local == f.n - 3) == member
    return True, ok, f"dim_local={f.dim_local} n-3={f.n - 3} classified={member}"


def _c10(f: GraphFacts) -> tuple[bool, bool, str]:
    """C10: omega = n-2: dim_local in {n-4, n-3}, split by gamma-freeness."""
    if f.n < 5 or f.omega != f.n - 2:
        return False, True, _NOT_APPLICABLE
    in_range = f.n - 4 <= f.dim_local <= f.n - 3
    # in range, dim_local = n-4 exactly when it is not n-3
    ok = in_range and (f.dim_local == f.n - 3) == f.gamma_free
    return True, ok, f"dim_local={f.dim_local} gamma_free={f.gamma_free}"


def _c11(f: GraphFacts) -> tuple[bool, bool, str]:
    """C11: omega in {n-1, n-2, n-3}: dim_local*(omega-1) <= (omega-2)*n."""
    if f.omega < max(f.n - 3, 3) or f.omega > f.n - 1:
        return False, True, _NOT_APPLICABLE
    return (True, *_clique_ratio(f.dim_local, f.omega, f.n))


CHECKS: dict[str, Callable[[GraphFacts], tuple[bool, bool, str]]] = {
    "C1": _c1,
    "C2": _c2,
    "C3": _c3,
    "C4": _c4,
    "C5": _c5,
    "C6": _c6,
    "C7": _c7,
    "C8": _c8,
    "C9": _c9,
    "C10": _c10,
    "C11": _c11,
}

CHECK_IDS: tuple[str, ...] = tuple(CHECKS)


def normalize_checks(checks: Iterable[str] | None) -> tuple[str, ...]:
    """Validate a non-empty sequence of check ids (None: every check), in
    registry order; a bare string such as "C1" is refused, not split."""
    if checks is None:
        return CHECK_IDS
    if isinstance(checks, str):
        raise ValueError(f"check ids come as a sequence, not the string {checks!r}")
    requested = set()
    for cid in checks:
        if cid not in CHECKS:
            raise ValueError(f"unknown check id {cid!r}; known: {', '.join(CHECK_IDS)}")
        requested.add(cid)
    if not requested:
        raise ValueError("no check ids given")
    return tuple(cid for cid in CHECK_IDS if cid in requested)


def check_graph(g: Graph, checks: Sequence[str] | None = None) -> TheoremReport:
    """Evaluate the selected checks on one connected graph with n >= 3."""
    return _check_chunk([g], normalize_checks(checks))[0]


# (check functions, every primary fact a check reads) -> (applicable, holds,
# details). The checks are pure functions of those facts, and a sweep meets
# few distinct patterns of them (32 over the order-8 classes), so each
# pattern is evaluated once. The functions are part of the key, so a check
# replaced in CHECKS is evaluated anew. Emptied when full.
_VERDICTS: dict[tuple, tuple[int, int, tuple[str, ...]]] = {}
_VERDICTS_MAX = 4096


def _check_chunk(graphs: Sequence[Graph], ids: tuple[str, ...]) -> list[TheoremReport]:
    """check_graph over a chunk, on check ids normalize_checks has already
    returned: every graph's facts, then every verdict. A fault raises for
    the first faulty graph in input order, as one graph at a time would."""
    for i, g in enumerate(graphs):
        if g.n < 3:
            # a disconnected graph before it raises from its masks first
            _chunk_facts(graphs[:i])
            raise ValueError(f"checks need n >= 3, got n={g.n}")
    checks = tuple(map(CHECKS.__getitem__, ids))
    reports = []
    for facts in _chunk_facts(graphs):
        n, bounds = facts.n, facts.bounds
        key = (
            checks, n, facts.dim_local, bounds,
            facts.bipartite, facts.is_cycle5, facts.is_split_extremal,
            # the checks read gamma_free only when n >= 5 and omega = n-2
            n >= 5 and bounds.omega == n - 2 and facts.gamma_free,
        )
        verdict = _VERDICTS.get(key)
        if verdict is None:
            applicable = holds = 0
            details = []
            for i, check in enumerate(checks):
                a, h, text = check(facts)
                applicable |= a << i
                holds |= h << i
                if a and not h:
                    details.append(text)
            if len(_VERDICTS) >= _VERDICTS_MAX:
                _VERDICTS.clear()
            verdict = _VERDICTS[key] = (applicable, holds, tuple(details))
        reports.append(TheoremReport(facts.graph_id, ids, *verdict))
    return reports


class SuiteReport(NamedTuple):
    source: str
    checks: tuple[str, ...]
    reports: tuple[TheoremReport, ...]
    elapsed: float

    @property
    def graph_count(self) -> int:
        return len(self.reports)

    @property
    def violations(self) -> tuple[tuple[str, str, str], ...]:
        """(graph_id, check_id, details) of every applicable check that
        fails, sorted: the one reader of a report's violation text, which
        pairs the violated bits in order with `details`. Collected anew on
        each read; to_text reads it once."""
        out = []
        for rep in self.reports:
            violated = bit_indices(rep.applicable & ~rep.holds)
            for i, text in zip(violated, rep.details, strict=True):
                out.append((rep.graph_id, rep.checks[i], text))
        return tuple(sorted(out))

    @property
    def ok(self) -> bool:
        """No applicable check fails, read from the verdict bits alone, so
        the violations are not collected for it."""
        return not any(rep.applicable & ~rep.holds for rep in self.reports)

    def to_records(self) -> list[str]:
        """One tab-separated record per graph per check, in stream order:
        graph_id, check_id, applicable, holds."""
        # few distinct verdict patterns occur, so each one's suffixes are
        # formatted once and only the graph id is joined per record
        blocks: dict[tuple[tuple[str, ...], int, int], tuple[str, ...]] = {}
        lines: list[str] = []
        for rep in self.reports:
            key = (rep.checks, rep.applicable, rep.holds)
            block = blocks.get(key)
            if block is None:
                block = blocks[key] = tuple(
                    f"\t{cid}\t{rep.applicable >> i & 1}\t{rep.holds >> i & 1}"
                    for i, cid in enumerate(rep.checks)
                )
            graph_id = rep.graph_id
            lines += [graph_id + suffix for suffix in block]
        return lines

    def to_text(self) -> str:
        applicable = dict.fromkeys(self.checks, 0)
        holds = dict.fromkeys(self.checks, 0)
        patterns = Counter((rep.checks, rep.applicable, rep.holds) for rep in self.reports)
        for (ids, app_mask, holds_mask), count in patterns.items():
            for i in bit_indices(app_mask):
                cid = ids[i]
                if cid in applicable:
                    applicable[cid] += count
                    holds[cid] += count * (holds_mask >> i & 1)
        lines = [
            f"source: {self.source}",
            f"graphs: {self.graph_count}  checks: {len(self.checks)}  elapsed: {self.elapsed:.2f}s",
            f"{'check':<6} {'applicable':>10} {'holds':>10} {'violations':>10}",
        ]
        for cid in self.checks:
            bad = applicable[cid] - holds[cid]
            lines.append(f"{cid:<6} {applicable[cid]:>10} {holds[cid]:>10} {bad:>10}")
        violations = self.violations
        if not violations:
            lines.append("violations: none")
        else:
            lines.append(f"violations: {len(violations)}")
            for graph_id, cid, details in violations:
                lines.append(f"  {graph_id}  {cid}  {details}")
        return "\n".join(lines)


def run_suite(
    graphs: Iterable[Graph],
    checks: Sequence[str] | None = None,
    jobs: int = 1,
    source: str = "",
) -> SuiteReport:
    """Evaluate checks over a graph stream a chunk at a time, with optional
    process fan-out.

    _chunks cuts the stream into chunks, each checked by _check_chunk, one
    fact over the whole chunk before the next. One job draws the stream in
    chunks of CHUNK graphs and never holds it whole. More jobs list the
    input and cut it into chunks of CHUNK graphs, or of an equal share per
    job where that is smaller, so a short input still gives every worker a
    chunk; they map the chunks one task each, and an input of one chunk
    runs in this process. Report order follows the input order whatever the
    worker count, so to_records output is byte-identical for any `jobs`.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    ids = normalize_checks(checks)
    fn = functools.partial(_check_chunk, ids=ids)
    # before the input is listed, so the stream is timed at any job count
    started = time.perf_counter()
    if jobs > 1:
        graphs = list(graphs)
        chunks = list(_chunks(graphs, min(CHUNK, -(-len(graphs) // jobs))))
    else:
        chunks = _chunks(graphs)
    if jobs > 1 and len(chunks) > 1:
        # imported here: concurrent.futures.process pulls in multiprocessing,
        # which a serial run would pay for on every import of the package
        from concurrent.futures import ProcessPoolExecutor

        # a fork-started pool forks every worker at its first submit, so it
        # gets no more workers than there are chunks
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            reports = tuple(itertools.chain.from_iterable(pool.map(fn, chunks)))
    else:
        reports = tuple(itertools.chain.from_iterable(map(fn, chunks)))
    elapsed = time.perf_counter() - started
    return SuiteReport(source, ids, reports, elapsed)


def suite_over_order(
    n: int, checks: Sequence[str] | None = None, jobs: int = 1
) -> SuiteReport:
    """run_suite over the full stream of connected graphs of order n."""
    return run_suite(connected_graphs(n), checks=checks, jobs=jobs, source=f"gen-{n}")


# ------------------------------------------------------- family dimension


class FamilyTableRow(NamedTuple):
    n: int
    lam: int
    mu: int
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


class FamilyTableReport(NamedTuple):
    rows: tuple[FamilyTableRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_text(self) -> str:
        lines = [f"{'n':>3} {'lam':>4} {'mu':>4} {'expected':>9} {'actual':>7} ok"]
        for r in self.rows:
            lines.append(
                f"{r.n:>3} {r.lam:>4} {r.mu:>4} {r.expected:>9} {r.actual:>7} "
                f"{'yes' if r.ok else 'NO'}"
            )
        lines.append(f"rows: {len(self.rows)}  mismatches: {sum(not r.ok for r in self.rows)}")
        return "\n".join(lines)


def family_split_table(max_n: int = 10) -> FamilyTableReport:
    """Exact local dimension of every clique-minus-biclique member up to
    max_n vertices against the closed form: n-2 when the small block is a
    single vertex, n-3 otherwise. Needs 3 <= max_n <= 62."""
    if max_n < 3:
        raise ValueError(f"need max_n >= 3, got {max_n}")
    if max_n > MAX_VERTICES:
        raise ValueError(f"need max_n <= {MAX_VERTICES}, got {max_n}")
    rows = []
    for n in range(3, max_n + 1):
        for mu in range(1, n):
            for lam in range(mu, n - mu):
                g = complete_minus_bipartite(n, lam, mu)
                expected = n - 2 if mu == 1 else n - 3
                actual = _value(g, "local")
                rows.append(FamilyTableRow(n, lam, mu, expected, actual))
    return FamilyTableReport(tuple(rows))


# ------------------------------------------------------------- refutation


class RefutationRow(NamedTuple):
    triangles: int
    n: int
    dim_local: int
    ceiling: int

    @property
    def violated(self) -> bool:
        return self.dim_local > self.ceiling


class RefutationReport(NamedTuple):
    rows: tuple[RefutationRow, ...]

    @property
    def first_violation(self) -> int | None:
        for r in self.rows:
            if r.violated:
                return r.triangles
        return None

    def to_text(self) -> str:
        lines = [f"{'triangles':>9} {'n':>4} {'dim_local':>9} {'ceil((n+1)/2)':>13} violated"]
        for r in self.rows:
            lines.append(
                f"{r.triangles:>9} {r.n:>4} {r.dim_local:>9} {r.ceiling:>13} "
                f"{'YES' if r.violated else 'no'}"
            )
        if self.first_violation is None:
            lines.append("no violation found")
        else:
            lines.append(f"first violation at {self.first_violation} triangles")
        return "\n".join(lines)


def problem1_refutation(max_triangles: int = 4) -> RefutationReport:
    """Probe the apex-over-triangles family against the candidate ceiling
    dim_local <= ceil((n+1)/2). The family is planar and its local dimension
    grows like 2n/3, so the ceiling must fail once the family is large
    enough. Needs 2 <= max_triangles <= 20: apex(20) has 61 vertices."""
    if max_triangles < 2:
        raise ValueError(f"need max_triangles >= 2, got {max_triangles}")
    if 3 * max_triangles + 1 > MAX_VERTICES:
        raise ValueError(f"need max_triangles <= {(MAX_VERTICES - 1) // 3}, got {max_triangles}")
    rows = []
    for count in range(2, max_triangles + 1):
        g = apex_triangles(count)
        value = _value(g, "local")
        rows.append(RefutationRow(count, g.n, value, (g.n + 2) // 2))
    return RefutationReport(tuple(rows))


# ------------------------------------------------------------------- scan


class ScanReport(NamedTuple):
    total: int
    applicable: int
    violations: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = [f"scanned: {self.total}  applicable: {self.applicable}  violations: {len(self.violations)}"]
        for graph_id, details in self.violations:
            lines.append(f"  {graph_id}  {details}")
        return "\n".join(lines)


def scan_clique_ratio(
    graphs: Iterable[Graph], omega_values: Iterable[int] | None = None
) -> ScanReport:
    """Exact-integer scan of dim_local*(omega-1) <= (omega-2)*n over graphs
    meeting the n >= omega+1 >= 4 gate; omega_values optionally narrows the
    clique numbers scanned. An empty selection, or a requested omega below
    3, which the gate never lets through, raises ValueError before any
    graph is read. A chunk at a time, every graph's masks come first, and
    their walk rejects a disconnected graph; the gate then reads omega from
    each graph's floors, and only graphs that pass it are solved, from the
    masks already built, for the value alone and without those floors."""
    wanted = None if omega_values is None else set(omega_values)
    if wanted == set():
        raise ValueError("no omega values given")
    if wanted and min(wanted) < 3:
        raise ValueError(f"need omega >= 3, got {min(wanted)}")
    total = 0
    applicable = 0
    violations = []
    for chunk in _chunks(graphs):
        total += len(chunk)
        masks = _masks(chunk, "local")
        gated = [
            (g, m, b.omega)
            for g, m, b in zip(chunk, masks, map(_floors, chunk))
            if 3 <= b.omega < g.n and (wanted is None or b.omega in wanted)
        ]
        applicable += len(gated)
        values = _minima([g for g, _, _ in gated], [m for _, m, _ in gated])
        for (g, _, omega), dim_local in zip(gated, values):
            holds, details = _clique_ratio(dim_local, omega, g.n)
            if not holds:
                violations.append((_graph_id(g), details))
    return ScanReport(total, applicable, tuple(sorted(violations)))


# ------------------------------------------------------------------ audit


class AuditReport(NamedTuple):
    """Observed vs predicted membership of the dim_local = n-3 class over
    the full stream of one order (canonical graph6 ids, sorted)."""

    n: int
    observed: tuple[str, ...]
    predicted: tuple[str, ...]

    @property
    def missing(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.predicted) - set(self.observed)))

    @property
    def extra(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.observed) - set(self.predicted)))

    @property
    def ok(self) -> bool:
        return self.observed == self.predicted


def dimension_class_audit(n: int) -> AuditReport:
    """Enumerate order n and compare the graphs attaining dim_local = n-3
    against the predicted union: the 5-cycle, the clique-minus-biclique
    members with both blocks >= 2, and the gamma-free graphs with clique
    number n-2."""
    if not 5 <= n <= CANONICAL_MAX_VERTICES:
        raise ValueError(f"audit supports 5 <= n <= {CANONICAL_MAX_VERTICES}, got {n}")
    observed = []
    predicted = []
    for chunk in _chunks(connected_graphs(n)):
        for facts in _chunk_facts(chunk):
            if facts.dim_local == n - 3:
                observed.append(facts.graph_id)
            if facts.classified_n_minus_3:
                predicted.append(facts.graph_id)
    return AuditReport(n, tuple(sorted(observed)), tuple(sorted(predicted)))
