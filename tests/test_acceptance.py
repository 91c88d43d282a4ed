"""Acceptance gate: the eight criteria this package must meet.

Each test prints one PASS line with its measured numbers. Wall-clock limits
are asserted only on the compiled backend; the pure backend runs the same
work unbounded so correctness is still exercised everywhere.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from pathlib import Path

from conftest import naive_dimension, random_connected, stream_upto

from locdim import kernels
from locdim.cli import main
from locdim.dimension import (
    distinguisher_sets,
    local_metric_dimension,
    lower_bounds,
    metric_dimension,
)
from locdim.enumeration import connected_graphs
from locdim.families import apex_triangles, upsilon
from locdim.graphs import is_bipartite, is_triangle_free, to_graph6
from locdim.invariants import clique_number, twin_partition
from locdim.verify import (
    dimension_class_audit,
    family_split_table,
    problem1_refutation,
    run_suite,
    suite_over_order,
)

FIXTURE = Path(__file__).parent / "data" / "dim_class_audit.json"

TIMED = kernels.BACKEND == "compiled"


def _within(elapsed: float, limit: float) -> None:
    if TIMED:
        assert elapsed < limit, f"took {elapsed:.2f}s, limit {limit}s"


def test_criterion_1_exhaustive_check_suite(tmp_path):
    started = time.perf_counter()
    small = [suite_over_order(n) for n in (5, 6)]
    elapsed_small = time.perf_counter() - started
    assert [r.graph_count for r in small] == [21, 112]
    for report in small:
        assert report.ok, report.to_text()
    _within(elapsed_small, 10.0)

    corpus_path = tmp_path / "order7.g6"
    corpus_path.write_text(
        "".join(to_graph6(g) + "\n" for g in connected_graphs(7))
    )
    started = time.perf_counter()
    code = main(["verify", "--corpus", str(corpus_path), "--format", "records"])
    elapsed_large = time.perf_counter() - started
    assert code == 0
    _within(elapsed_large, 60.0)
    print(
        f"ACCEPTANCE 1 PASS: 0 violations over 21+112 classes in "
        f"{elapsed_small:.2f}s and over the 853-graph order-7 corpus in "
        f"{elapsed_large:.2f}s"
    )


def test_criterion_2_family_dimension_table():
    started = time.perf_counter()
    report = family_split_table(10)
    elapsed = time.perf_counter() - started
    assert len(report.rows) == 70
    for row in report.rows:
        assert row.expected == (row.n - 2 if row.mu == 1 else row.n - 3)
        assert row.actual == row.expected, report.to_text()
    _within(elapsed, 30.0)
    print(f"ACCEPTANCE 2 PASS: 70/70 block-family rows exact in {elapsed:.2f}s")


def test_criterion_3_attachment_family_floor():
    started = time.perf_counter()
    for mask in range(8):
        g = upsilon(mask)
        assert g.n == 11
        assert clique_number(g) == 8
        assert local_metric_dimension(g).value == 3 == g.n - 8
    elapsed = time.perf_counter() - started
    _within(elapsed, 10.0)
    print(
        f"ACCEPTANCE 3 PASS: all 8 attachment-family graphs have local "
        f"dimension 3 = n-8 in {elapsed:.2f}s"
    )


def test_criterion_4_apex_family_refutation():
    started = time.perf_counter()
    for count in (2, 3, 4):
        g = apex_triangles(count)
        assert clique_number(g) == 4
        assert local_metric_dimension(g).value == 2 * count
    report = problem1_refutation(4)
    assert report.first_violation == 4
    last = report.rows[-1]
    assert (last.n, last.dim_local, last.ceiling) == (13, 8, 7)
    elapsed = time.perf_counter() - started
    _within(elapsed, 10.0)
    print(
        f"ACCEPTANCE 4 PASS: apex family hits 2*count for count in 2..4 and "
        f"breaks the midpoint ceiling at count=4 (8 > 7) in {elapsed:.2f}s"
    )


def test_criterion_5_solver_equals_subset_search():
    classes = 0
    for g in stream_upto(6):
        classes += 1
        local = local_metric_dimension(g)
        assert (local.value, local.witness) == naive_dimension(g, "local")
        full = metric_dimension(g)
        assert (full.value, full.witness) == naive_dimension(g, "full")
    assert classes == 143
    print(
        "ACCEPTANCE 5 PASS: solver matches all-subsets search (values and "
        "witnesses, both modes) on all 143 classes with n <= 6"
    )


def test_criterion_6_property_suite():
    rng = random.Random(0xD1E5E1)
    pool = list(stream_upto(6)) + [
        random_connected(rng, rng.randint(7, 10)) for _ in range(500)
    ]
    for g in pool:
        result = local_metric_dimension(g)
        value = result.value
        if g.n >= 2:
            assert (value == 1) == is_bipartite(g)
        assert value <= metric_dimension(g).value
        bounds = lower_bounds(g)
        assert value >= bounds.twin
        assert value >= bounds.log_clique
        assert value >= bounds.gap
        # the triangle-free ceiling starts at n = 3: K_2 has dimension 1
        if g.n >= 3 and is_triangle_free(g):
            assert 5 * value <= 2 * g.n
        masks = {c.pair: c.mask for c in distinguisher_sets(g).constraints}
        for cls in twin_partition(g).classes:
            for u, v in itertools.combinations(cls, 2):
                assert masks[(u, v)] == (1 << u) | (1 << v)
    print(
        f"ACCEPTANCE 6 PASS: bipartite iff dimension 1, local <= full, all "
        f"three floors, triangle-free ceiling, and twin-pair distinguishers "
        f"hold on {len(pool)} graphs (143 classes + 500 random, n up to 10)"
    )


def test_criterion_7_classification_audit():
    with open(FIXTURE) as fh:
        pinned = json.load(fh)
    for n in (5, 6):
        report = dimension_class_audit(n)
        assert report.ok, f"missing={report.missing} extra={report.extra}"
        assert list(report.observed) == pinned[str(n)]
    print(
        "ACCEPTANCE 7 PASS: the dimension n-3 classes at n=5 (12 graphs) and "
        "n=6 (23 graphs) match the prediction and the pinned fixture"
    )


def test_criterion_8_record_determinism(capsys):
    outputs = []
    for jobs in ("1", "4"):
        code = main(
            ["verify", "--gen", "5", "--format", "records", "--jobs", jobs]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 21 * 11

    direct = [
        run_suite(connected_graphs(6), jobs=jobs).to_records() for jobs in (1, 4)
    ]
    assert direct[0] == direct[1]
    with capsys.disabled():
        print(
            "\nACCEPTANCE 8 PASS: verify records are byte-identical across "
            "--jobs 1 and --jobs 4 (gen-5 via CLI, gen-6 in-process)"
        )
