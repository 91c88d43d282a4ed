"""The structural check suite, its recognizers, and the derived reports."""

from __future__ import annotations

import concurrent.futures
import itertools
import pickle
import random
from types import SimpleNamespace

import pytest

import locdim.kernels
import locdim.verify as verify_mod
from locdim.enumeration import CANONICAL_MAX_VERTICES, canonical_key, connected_graphs
from locdim.families import (
    complete,
    complete_minus_bipartite,
    cycle,
    gamma1,
    gamma2,
    path,
)
from locdim.graphs import DisconnectedError, build, is_triangle_free
from locdim.verify import (
    CHECK_IDS,
    CHECKS,
    GraphFacts,
    SuiteReport,
    TheoremReport,
    check_graph,
    complete_minus_bipartite_params,
    dimension_class_audit,
    family_split_table,
    normalize_checks,
    problem1_refutation,
    run_suite,
    scan_clique_ratio,
    suite_over_order,
)


def _by_id(report: TheoremReport) -> dict[str, tuple[bool, bool]]:
    """check id -> (applicable, holds), read off the report's bits."""
    return {
        cid: (bool(report.applicable >> i & 1), bool(report.holds >> i & 1))
        for i, cid in enumerate(report.checks)
    }


class TestRecognizer:
    def test_recovers_block_sizes(self):
        assert complete_minus_bipartite_params(complete_minus_bipartite(6, 2, 2)) == (2, 2)
        assert complete_minus_bipartite_params(complete_minus_bipartite(9, 4, 3)) == (4, 3)
        assert complete_minus_bipartite_params(complete_minus_bipartite(5, 3, 1)) == (3, 1)

    def test_rejects_non_members(self):
        assert complete_minus_bipartite_params(complete(5)) is None
        assert complete_minus_bipartite_params(cycle(5)) is None
        assert complete_minus_bipartite_params(gamma1()) is None
        assert complete_minus_bipartite_params(build(4, [(0, 1), (0, 2), (0, 3)])) is None

    def test_rejects_blocks_covering_everything(self):
        # complement is a full biclique: the graph itself is disconnected
        two_edges = build(4, [(0, 1), (2, 3)])
        assert complete_minus_bipartite_params(two_edges) is None

    def test_agrees_with_canonical_membership(self):
        by_key = {}
        for n in range(3, 8):
            for mu in range(1, n):
                for lam in range(mu, n - mu):
                    g = complete_minus_bipartite(n, lam, mu)
                    by_key[canonical_key(g)] = (lam, mu)
        for n in range(3, 8):
            for g in connected_graphs(n):
                params = complete_minus_bipartite_params(g)
                expected = by_key.get(canonical_key(g))
                assert params == expected


class TestFacts:
    def test_cycle_facts(self):
        f = GraphFacts(cycle(5))
        assert (f.omega, f.dim_local) == (2, 2)
        assert f.is_cycle5 and not f.is_split_extremal and not f.is_complete
        assert f.bipartite is False and f.triangle_free is True
        assert f.gamma_free

    def test_gamma1_facts(self):
        f = GraphFacts(gamma1())
        assert (f.omega, f.dim_local) == (4, 2)
        assert not f.gamma_free
        assert not f.is_split_extremal

    def test_block_member_facts(self):
        f = GraphFacts(complete_minus_bipartite(6, 2, 2))
        assert f.is_split_extremal
        assert f.gamma_free
        assert f.dim_local == 3

    def test_clique_predicates_match_their_direct_tests(self):
        """Completeness and triangle-freeness are read off omega; over
        every class up to order 7 they agree with the edge count and the
        direct triangle test, and so do C1's verdict and C6's premise."""
        for n in range(1, 8):
            for g in connected_graphs(n):
                f = GraphFacts(g)
                complete = g.m == n * (n - 1) // 2
                assert f.is_complete == complete
                assert f.triangle_free == is_triangle_free(g)
                if n < 3:
                    continue
                assert CHECKS["C1"](f)[2].endswith(f" complete={complete}")
                rep = check_graph(g, ["C1", "C6"])
                assert bool(rep.applicable >> 1 & 1) == is_triangle_free(g)


class TestCheckGraph:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError, match="n >= 3"):
            check_graph(path(2))

    def test_cycle5_verdicts(self):
        rep = check_graph(cycle(5))
        res = _by_id(rep)
        assert all(holds for _, holds in res.values())
        assert rep.details == ()
        applicable = {cid for cid, (app, _) in res.items() if app}
        assert applicable == {"C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9"}
        facts = GraphFacts(cycle(5))
        assert CHECKS["C10"](facts)[2] == "premise not met"
        # triangle-free bound is tight here: 5*2 == 2*5
        assert "10" in CHECKS["C6"](facts)[2]

    def test_gamma1_verdicts(self):
        res = _by_id(check_graph(gamma1()))
        assert all(holds for _, holds in res.values())
        assert not res["C6"][0]
        assert not res["C7"][0]
        assert res["C8"][0] and res["C10"][0] and res["C11"][0]

    def test_complete_graph_verdicts(self):
        res = _by_id(check_graph(complete(6)))
        assert all(holds for _, holds in res.values())
        assert not res["C6"][0]
        assert not res["C7"][0]
        assert not res["C10"][0]
        assert not res["C11"][0]  # omega = n is out of the ratio's range

    def test_extremal_equality_cases(self):
        # the two ways to sit exactly at the n-3 ceiling with omega <= n-3
        for g in (cycle(5), complete_minus_bipartite(7, 3, 3)):
            res = _by_id(check_graph(g))
            assert res["C7"] == (True, True)
            assert res["C9"][1]

    def test_check_subset_keeps_registry_order(self):
        rep = check_graph(cycle(5), checks=("C3", "C1"))
        assert rep.checks == ("C1", "C3")

    @pytest.mark.parametrize("dim_local, holds", [(3, False), (4, True), (9, True), (10, False)])
    def test_c8_floor_for_omega_n_minus_3(self, dim_local, holds):
        # no plant reaches n - 8 <= dim_local through order 8, where the
        # floor is at most 0; n = 12, omega = 9 puts it at 4
        facts = SimpleNamespace(n=12, omega=9, dim_local=dim_local)
        assert verify_mod._c8(facts) == (
            True, holds, f"dim_local={dim_local} omega=9 regime=n-3"
        )

    def test_c7_never_reads_gamma_free(self, monkeypatch):
        """Under C7's premise (omega <= n-3) the n-3 classification is
        settled before gamma_free, which costs two embedding searches."""

        def unread(g):
            raise AssertionError("gamma_free read")

        monkeypatch.setattr(verify_mod, "is_gamma_free", unread)
        for g in [*connected_graphs(6), cycle(5), complete_minus_bipartite(7, 3, 3)]:
            f = GraphFacts(g)
            if f.omega <= f.n - 3:
                assert verify_mod._c7(f)[0]

    def test_suite_reads_gamma_free_only_where_a_check_does(self, monkeypatch):
        """Only C9 and C10 read gamma_free, both when n >= 5 and omega =
        n-2; the remembered verdicts are keyed on it there alone."""
        read = []
        monkeypatch.setattr(verify_mod, "is_gamma_free", lambda g: read.append(g) or True)
        graphs = [g for n in range(3, 7) for g in connected_graphs(n)]
        run_suite(graphs)
        assert read == [
            g for g in graphs if g.n >= 5 and GraphFacts(g).omega == g.n - 2
        ]


class TestNormalize:
    def test_default_is_everything(self):
        assert normalize_checks(None) == CHECK_IDS

    def test_duplicates_collapse(self):
        assert normalize_checks(["C2", "C2", "C1"]) == ("C1", "C2")

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown check id"):
            normalize_checks(["C1", "C99"])

    @pytest.mark.parametrize("empty", [[], (), iter([])])
    def test_empty_selection_is_an_error(self, empty):
        with pytest.raises(ValueError, match="no check ids given"):
            normalize_checks(empty)

    def test_suite_rejects_an_empty_selection_before_any_graph(self):
        def graphs():
            raise AssertionError("a graph was read")
            yield

        with pytest.raises(ValueError, match="no check ids given"):
            run_suite(graphs(), checks=[])


class TestSuite:
    def test_gen5_is_clean(self):
        report = suite_over_order(5)
        assert report.source == "gen-5"
        assert report.graph_count == 21
        assert report.ok and report.violations == ()
        assert "violations: none" in report.to_text()

    def test_records_shape(self):
        report = suite_over_order(5)
        records = report.to_records()
        assert len(records) == 21 * len(CHECK_IDS)
        for line in records:
            graph_id, cid, applicable, holds = line.split("\t")
            assert cid in CHECK_IDS
            assert applicable in "01" and holds in "01"
        # stream order is preserved
        ids = [line.split("\t")[0] for line in records[:: len(CHECK_IDS)]]
        assert ids == [r.graph_id for r in report.reports]

    def test_worker_fanout_changes_nothing(self):
        serial = run_suite(connected_graphs(4), jobs=1, source="x")
        fanned = run_suite(connected_graphs(4), jobs=2, source="x")
        assert serial.to_records() == fanned.to_records()

    def test_check_selection(self):
        report = run_suite(connected_graphs(4), checks=("C3", "C1"))
        assert report.checks == ("C1", "C3")
        assert all(rep.checks == ("C1", "C3") for rep in report.reports)
        assert all(rep.applicable < 4 and rep.holds < 4 for rep in report.reports)

    def test_jobs_domain(self):
        with pytest.raises(ValueError, match="jobs"):
            run_suite([cycle(5)], jobs=0)

    def test_violation_reporting(self):
        # a synthetic failing result must surface in every view
        bad = TheoremReport("X?", ("C1",), 0b1, 0b0, ("dim_local=9 complete=False",))
        report = SuiteReport("synthetic", ("C1",), (bad,), 0.0)
        assert not report.ok
        assert report.violations == (("X?", "C1", "dim_local=9 complete=False"),)
        assert "violations: 1" in report.to_text()
        assert report.to_records() == ["X?\tC1\t1\t0"]

    def test_inapplicable_is_not_a_violation(self):
        rep = TheoremReport("X?", ("C6",), 0b0, 0b1, ())
        report = SuiteReport("synthetic", ("C6",), (rep,), 0.0)
        assert report.ok and report.violations == ()

    def test_mixed_verdicts_in_every_view(self):
        """Three graphs, two checks, failures on both: the table counts,
        the sorted violation list and the records are pinned."""
        # bit 0 is C1, bit 1 is C6
        reps = (
            TheoremReport("X?", ("C1", "C6"), 0b01, 0b10, ("d1",)),
            TheoremReport("W?", ("C1", "C6"), 0b11, 0b01, ("d6",)),
            TheoremReport("A?", ("C1", "C6"), 0b11, 0b10, ("d1b",)),
        )
        report = SuiteReport("synthetic", ("C1", "C6"), reps, 1.5)
        assert report.to_text() == (
            "source: synthetic\n"
            "graphs: 3  checks: 2  elapsed: 1.50s\n"
            "check  applicable      holds violations\n"
            "C1              3          1          2\n"
            "C6              2          1          1\n"
            "violations: 3\n"
            "  A?  C1  d1b\n"
            "  W?  C6  d6\n"
            "  X?  C1  d1"
        )
        assert report.to_records() == [
            "X?\tC1\t1\t0", "X?\tC6\t0\t1",
            "W?\tC1\t1\t1", "W?\tC6\t1\t0",
            "A?\tC1\t1\t0", "A?\tC6\t1\t1",
        ]

    def test_violation_text_pairs_with_the_violated_bits_in_order(self):
        # C1 and C9 fail, C6 holds: details hold just the two failures' text
        rep = TheoremReport("G?", ("C1", "C6", "C9"), 0b111, 0b010, ("t1", "t9"))
        report = SuiteReport("synthetic", rep.checks, (rep,), 0.0)
        assert report.violations == (("G?", "C1", "t1"), ("G?", "C9", "t9"))
        short = TheoremReport("G?", ("C1", "C6", "C9"), 0b111, 0b010, ("t1",))
        with pytest.raises(ValueError):
            SuiteReport("synthetic", rep.checks, (short,), 0.0).violations

    def test_pool_returns_equal_reports(self):
        serial = run_suite(connected_graphs(6), jobs=1, source="x")
        fanned = run_suite(connected_graphs(6), jobs=2, source="x")
        assert serial.reports == fanned.reports
        assert serial.to_text().split("\n")[2:] == fanned.to_text().split("\n")[2:]

    @pytest.mark.parametrize("source", ["gen-7", "relabeled corpus"])
    def test_records_are_identical_for_one_two_and_three_jobs(self, source):
        graphs = list(connected_graphs(7))
        if source == "relabeled corpus":
            rng = random.Random(7)
            graphs = [g.relabel(rng.sample(range(g.n), g.n)) for g in graphs]
            rng.shuffle(graphs)
        records = [run_suite(graphs, jobs=jobs).to_records() for jobs in (1, 2, 3)]
        assert len(records[0]) == 853 * len(CHECK_IDS)
        assert records[0] == records[1] == records[2]

    def test_each_fact_pattern_is_checked_once(self, monkeypatch):
        calls = []
        c1 = CHECKS["C1"]

        def counted(facts):
            calls.append(facts.graph_id)
            return c1(facts)

        unpatched = run_suite(connected_graphs(7))
        monkeypatch.setitem(CHECKS, "C1", counted)
        assert run_suite(connected_graphs(7)).reports == unpatched.reports
        # the 853 order-7 classes show 20 distinct fact patterns
        assert len(calls) == 20

    def test_a_replaced_check_is_evaluated_anew(self, monkeypatch):
        """Verdicts remembered for the facts do not outlive the check
        that gave them."""
        graphs = list(connected_graphs(6))
        before = run_suite(graphs)
        assert before.ok
        monkeypatch.setitem(CHECKS, "C3", lambda facts: (True, False, "replaced"))
        after = run_suite(graphs)
        c3 = CHECK_IDS.index("C3")
        assert all(not rep.holds >> c3 & 1 for rep in after.reports)
        assert {details for _, cid, details in after.violations} == {"replaced"}
        assert len(after.violations) == len(graphs)
        monkeypatch.undo()
        assert run_suite(graphs).reports == before.reports

    def test_serial_run_consumes_its_input_lazily(self, monkeypatch):
        """A serial run draws its stream a chunk at a time: each chunk is
        checked before the next is drawn, so the run is never more than one
        chunk ahead of its checks and never holds the whole stream."""
        total = 3 * verify_mod.CHUNK + 1
        classes = list(connected_graphs(5))
        drawn = []

        def stream():
            for g in itertools.islice(itertools.cycle(classes), total):
                drawn.append(g)
                yield g

        check = verify_mod._check_chunk
        checked = []

        def check_as_drawn(graphs, ids):
            # exactly the graphs drawn since the last check, at most a chunk
            assert len(graphs) <= verify_mod.CHUNK
            assert graphs == drawn[len(checked):]
            checked.extend(graphs)
            return check(graphs, ids)

        monkeypatch.setattr(verify_mod, "_check_chunk", check_as_drawn)
        assert run_suite(stream(), jobs=1).graph_count == len(drawn) == total
        assert checked == drawn

    def test_pool_gets_no_more_workers_than_graphs(self, monkeypatch):
        """A pool asked for 1000 workers over the 2 order-3 classes is sized
        to 2. The pool is a recording stand-in that maps in this process, so
        no worker process is started."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        fanned = run_suite(connected_graphs(3), jobs=1000, source="x")
        assert sizes == [2]
        assert fanned.to_records() == run_suite(connected_graphs(3), source="x").to_records()


@pytest.fixture
def backend(monkeypatch, impl):
    """locdim.kernels pointed at each kernel backend in turn; forked pool
    workers inherit the patch."""
    for name in locdim.kernels.__all__:
        if name != "BACKEND":
            monkeypatch.setattr(locdim.kernels, name, getattr(impl, name))
    return impl


def _relabeled_order_seven(length: int = 853) -> list:
    """The order-7 classes relabeled and shuffled by a seeded RNG, repeated
    or cut to `length` graphs."""
    rng = random.Random(27)
    graphs = [g.relabel(rng.sample(range(g.n), g.n)) for g in connected_graphs(7)]
    rng.shuffle(graphs)
    return list(itertools.islice(itertools.cycle(graphs), length))


CHUNKED_INPUTS = {
    "orders 3-7": lambda: [g for n in range(3, 8) for g in connected_graphs(n)],
    "relabeled order 7": _relabeled_order_seven,
    "CHUNK - 1": lambda: _relabeled_order_seven(verify_mod.CHUNK - 1),
    "CHUNK": lambda: _relabeled_order_seven(verify_mod.CHUNK),
    "CHUNK + 1": lambda: _relabeled_order_seven(verify_mod.CHUNK + 1),
}


class TestChunks:
    @pytest.mark.parametrize("source", CHUNKED_INPUTS)
    def test_chunked_suite_equals_per_graph_checks(self, backend, source):
        """The suite checks a chunk at a time, one fact over the chunk
        before the next; its reports equal check_graph's, one graph at a
        time, at every job count."""
        graphs = CHUNKED_INPUTS[source]()
        expected = [check_graph(g) for g in graphs]
        for jobs in (1, 2, 3):
            assert list(run_suite(graphs, jobs=jobs).reports) == expected, jobs

    def test_chunk_facts_equal_one_graph_facts(self, backend):
        graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
        chunked = verify_mod._chunk_facts(graphs)
        assert [vars(f) for f in chunked] == [vars(GraphFacts(g)) for g in graphs]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("first", ["n < 3", "disconnected"])
    def test_the_earlier_fault_in_a_chunk_wins(self, first, jobs):
        """A chunk holding a graph with n < 3 and a disconnected graph
        raises for whichever comes first in input order."""
        short = path(2)
        disconnected = build(4, [(0, 1), (2, 3)])
        faults = [short, disconnected] if first == "n < 3" else [disconnected, short]
        ok = list(connected_graphs(5))
        graphs = [*ok[:5], faults[0], *ok[5:10], faults[1], *ok[10:]]
        assert len(graphs) < verify_mod.CHUNK
        if first == "n < 3":
            raises = pytest.raises(ValueError, match=r"^checks need n >= 3, got n=2$")
        else:
            raises = pytest.raises(DisconnectedError, match="graph is disconnected")
        with raises:
            run_suite(graphs, jobs=jobs)
        with raises:
            for g in graphs:
                check_graph(g)


class TestReportData:
    def test_pickle_carries_no_check_text(self):
        rep = check_graph(gamma1())
        data = pickle.dumps(rep)
        assert b"dim_local" not in data and b"premise" not in data
        back = pickle.loads(data)
        assert type(back) is TheoremReport and back == rep

    def test_pickled_reports_stay_small(self):
        # verdict bits and the graph id, no check text
        reports = suite_over_order(7).reports
        total = sum(len(pickle.dumps(rep)) for rep in reports)
        assert total <= 130 * len(reports)

    def test_bits_match_the_check_functions(self):
        for n in range(3, 8):
            for g in connected_graphs(n):
                facts = GraphFacts(g)
                direct = [fn(facts) for fn in CHECKS.values()]
                rep = check_graph(g)
                assert rep.checks == CHECK_IDS
                assert rep.applicable == sum(a << i for i, (a, _, _) in enumerate(direct))
                assert rep.holds == sum(h << i for i, (_, h, _) in enumerate(direct))
                assert rep.details == ()


class TestFamilyTable:
    def test_exact_up_to_seven(self):
        report = family_split_table(7)
        assert len(report.rows) == 22
        assert report.ok
        for row in report.rows:
            assert row.expected == (row.n - 2 if row.mu == 1 else row.n - 3)
            assert row.actual == row.expected
        assert "mismatches: 0" in report.to_text()

    def test_domain(self):
        with pytest.raises(ValueError):
            family_split_table(2)

    def test_too_large_is_rejected_before_any_solve(self, monkeypatch):
        def unsolved(g, mode):
            raise AssertionError("a member was solved")

        monkeypatch.setattr(verify_mod, "_value", unsolved)
        with pytest.raises(ValueError, match="need max_n <= 62, got 63"):
            family_split_table(63)


class TestRefutation:
    def test_first_violation_at_four_triangles(self):
        report = problem1_refutation(4)
        assert [(r.triangles, r.n, r.dim_local, r.ceiling) for r in report.rows] == [
            (2, 7, 4, 4),
            (3, 10, 6, 6),
            (4, 13, 8, 7),
        ]
        assert [r.violated for r in report.rows] == [False, False, True]
        assert report.first_violation == 4
        assert "first violation at 4 triangles" in report.to_text()

    def test_no_violation_below_threshold(self):
        report = problem1_refutation(3)
        assert report.first_violation is None
        assert "no violation found" in report.to_text()

    def test_domain(self):
        with pytest.raises(ValueError):
            problem1_refutation(1)

    def test_too_large_is_rejected_before_any_solve(self, monkeypatch):
        # apex(20) has 61 vertices, apex(21) would need 64
        def unsolved(g, mode):
            raise AssertionError("a member was solved")

        monkeypatch.setattr(verify_mod, "_value", unsolved)
        with pytest.raises(ValueError, match="need max_triangles <= 20, got 21"):
            problem1_refutation(21)


class TestScan:
    def test_gates(self):
        report = scan_clique_ratio([complete(4), cycle(4), gamma1()])
        assert report.total == 3
        assert report.applicable == 1  # only gamma1 meets n >= omega+1 >= 4
        assert report.ok

    def test_omega_filter(self):
        report = scan_clique_ratio([gamma1(), gamma2()], omega_values=[5])
        assert report.applicable == 0

    @pytest.mark.parametrize("omega", [-3, 0, 1, 2])
    def test_omega_below_three_is_rejected_before_any_graph(self, omega):
        def graphs():
            raise AssertionError("a graph was read")
            yield

        with pytest.raises(ValueError, match=f"need omega >= 3, got {omega}"):
            scan_clique_ratio(graphs(), omega_values=[5, omega, 3])

    def test_solves_only_graphs_past_the_gate(self, monkeypatch):
        solved = []
        kernel = locdim.kernels.min_hitting_set
        monkeypatch.setattr(
            locdim.kernels,
            "min_hitting_set",
            lambda n, masks, lower=0: solved.append(n) or kernel(n, masks, lower),
        )
        report = scan_clique_ratio(connected_graphs(6), omega_values=[6])
        assert (report.total, report.applicable, solved) == (112, 0, [])
        report = scan_clique_ratio([complete(4), cycle(4), gamma1()])
        assert (report.applicable, solved) == (1, [gamma1().n])

    def test_gen5_is_clean(self):
        report = scan_clique_ratio(connected_graphs(5))
        assert report.total == 21
        assert report.ok
        assert "violations: 0" in report.to_text()


class TestAudit:
    def test_order_five(self):
        report = dimension_class_audit(5)
        assert report.ok
        assert report.missing == () and report.extra == ()
        assert len(report.observed) == 12

    @pytest.mark.parametrize("n", [4, CANONICAL_MAX_VERTICES + 1])
    def test_domain(self, n):
        with pytest.raises(ValueError):
            dimension_class_audit(n)
