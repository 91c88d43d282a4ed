"""Self-tests for the benchmark's own code.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import compare  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer, layer_metrics, load_spans  # noqa: E402

from locdim import build, connected_graphs, from_graph6, metric_dimension  # noqa: E402
from locdim import local_metric_dimension  # noqa: E402


def test_corpus8_inputs_are_deterministic_per_seed():
    first = inputs.corpus8_lines(5)
    assert first == inputs.corpus8_lines(5)
    assert first != inputs.corpus8_lines(6)
    assert len(first) == len(set(first)) == 11117


def test_dense_inputs_are_deterministic_per_seed():
    first = inputs.dense_instances(5)
    assert first == inputs.dense_instances(5)
    assert first != inputs.dense_instances(6)
    cells = sorted((inst["n"], inst["p"]) for inst in first)
    assert cells == sorted(
        (n, p) for n in inputs.DENSE_ORDERS for p in inputs.DENSE_DENSITIES
        for _ in range(inputs.DENSE_PER_CELL)
    )
    for inst in first:
        assert min(oracle.bfs_rows(inst["n"], inst["edges"])[0]) >= 0


@pytest.mark.parametrize("mode, solve", [("local", local_metric_dimension), ("full", metric_dimension)])
def test_dense_oracle_accepts_the_solver_and_rejects_a_tampered_value(mode, solve):
    inst = next(i for i in inputs.dense_instances(0) if i["n"] == 20 and i["p"] == 0.6)
    g = build(inst["n"], [tuple(e) for e in inst["edges"]])
    r = solve(g)
    expected = oracle.ilp_value(inst["n"], inst["edges"], mode)
    assert oracle.check_solve(g, mode, r.value, r.witness, r.bounds.best, expected) is None
    assert oracle.check_solve(g, mode, r.value + 1, r.witness, r.bounds.best, expected)
    spare = next(v for v in range(g.n) if v not in r.witness)
    padded = tuple(sorted(r.witness + (spare,)))
    assert "ILP optimum" in oracle.check_solve(g, mode, r.value + 1, padded, r.bounds.best, expected)


def test_dense_oracle_rejects_a_non_resolving_witness():
    path4 = build(4, [(0, 1), (1, 2), (2, 3)])
    assert oracle.check_solve(path4, "full", 1, (0,), 1, 1) is None
    # vertex 1 sees 0 and 2 at the same distance
    assert "does not resolve" in oracle.check_solve(path4, "full", 1, (1,), 1, 1)


def test_percentile_reporter_states_count_and_picks_the_highest_supported_tail():
    assert stats.tail_percentile(10) is None
    assert stats.tail_percentile(27) == 62  # rank 17 of 27
    assert stats.tail_percentile(100) == 90
    summary = stats.summarize([float(v) for v in range(100)])
    assert summary == {"samples": 100, "p50": 49.5, "p90": 89.0}
    # 11 samples: only the lowest has ten beyond it, which is no tail
    assert stats.tail_percentile(11) == 9
    assert stats.summarize([float(v) for v in range(11)]) == {"samples": 11, "p50": 5.0}


def test_tracer_collects_worker_spans_from_the_pool(tmp_path):
    import locdim.kernels
    import locdim.verify

    graphs = list(connected_graphs(5))
    originals = (locdim.verify.check_graph, locdim.verify.max_clique, locdim.kernels.max_clique)
    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        assert locdim.verify.check_graph is not originals[0]
        locdim.verify.run_suite(graphs, jobs=2)
    finally:
        tracer.uninstall()
    tracer.dump()
    spans = load_spans(tmp_path)
    checks = [s for s in spans if s[2] == "verify.check_graph"]
    assert len(checks) == len(graphs)
    assert {s[5] for s in checks} - {tracer.origin}, "no span came from a worker"
    layers = layer_metrics(spans, ops=1)
    assert layers["graphs.bfs_distances.calls_per_graph"] == 2
    assert layers["verify.pool.bytes_per_graph"] > 0
    assert (locdim.verify.check_graph, locdim.verify.max_clique, locdim.kernels.max_clique) == originals


def test_compare_refuses_results_from_different_backends(tmp_path, capsys):
    def write(name, backend):
        stamp = {"stamp": {"workload": "dense-local", "backend": backend}}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"graphs_per_s": {"value": 1.0, "unit": "1/s"}}}
        path = tmp_path / name
        path.write_text(json.dumps(stamp) + "\n" + json.dumps(result) + "\n")
        return path

    base = write("base.txt", "pure")
    assert compare.main([str(base), str(write("same.txt", "pure"))]) == 0
    assert compare.main([str(base), str(write("other.txt", "compiled"))]) == 2
    assert "backend" in capsys.readouterr().err


def test_order8_corpus_is_the_committed_class_list():
    lines = inputs.ORDER8.read_text().split()
    assert len(lines) == 11117
    assert lines == sorted(lines)
    assert from_graph6(lines[0]).n == 8
