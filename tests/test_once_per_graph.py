"""Each verb computes each answer once.

The clique number and the true-twin partition are computed once per
graph: by the floors, whose LowerBounds every consumer reads.
Connectivity is tested once per graph too: solves, the sweep and scan
build the distinguisher masks first, whose walk refuses a disconnected
graph, and only the public lower_bounds runs graphs.is_connected. The
sweep and the solves build no checked Graph.
The sweep, and `dim` without --witness, solve each graph with one
hitting-set call and never rebuild a witness, a suite run normalizes its
check ids once, and the human verify report collects its violations once.
No floor reaches a value search, and a witness is rebuilt by one
lex_min_hitting_set call, whose probes run inside the kernel.

The family tools (problem1_refutation behind `refute-problem1`, and
family_split_table) solve each member with one unseeded hitting-set call
and compute neither floors nor a witness. `pattern --host` runs one
induced search per gamma and reads gamma-freeness off the two, and
`family` calls no kernel."""

from __future__ import annotations

import random
import sys

import pytest
from conftest import random_connected

import locdim.kernels
from locdim import dimension, invariants, pattern, verify
from locdim.cli import main
from locdim.enumeration import connected_graphs, read_corpus
from locdim.families import from_spec
from locdim.graphs import Graph, is_connected, to_graph6
from locdim.pattern import is_gamma_free
from locdim.verify import (
    GraphFacts,
    check_graph,
    family_split_table,
    problem1_refutation,
    run_suite,
    scan_clique_ratio,
)


def _counted(tally: dict[str, int], name: str, fn):
    """fn, adding one to tally[name] on every call."""

    def wrapper(*args, **kwargs):
        tally[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def counts(monkeypatch):
    """Call counters on kernels.max_clique, and on twin_partition and
    is_connected in every locdim module whose own namespace holds them.
    The package resolves these names lazily from their modules, so it sees
    the wrappers without a patch."""
    tally = {"max_clique": 0, "twin_partition": 0, "is_connected": 0}
    monkeypatch.setattr(
        locdim.kernels, "max_clique", _counted(tally, "max_clique", locdim.kernels.max_clique)
    )
    for name, original in [
        ("twin_partition", invariants.twin_partition),
        ("is_connected", is_connected),
    ]:
        wrapped = _counted(tally, name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("locdim") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapped)
    return tally


def test_check_graph_computes_each_once(counts):
    graphs = list(connected_graphs(5))
    for g in graphs:
        check_graph(g)
    n = len(graphs)
    assert counts == {"max_clique": n, "twin_partition": n, "is_connected": 0}


def test_suite_and_facts_compute_each_once(counts):
    stream = list(connected_graphs(6))
    n = len(stream)
    assert run_suite(stream).graph_count == n
    assert counts == {"max_clique": n, "twin_partition": n, "is_connected": 0}
    for g in stream:
        GraphFacts(g)
    assert counts == {"max_clique": 2 * n, "twin_partition": 2 * n, "is_connected": 0}


@pytest.mark.parametrize("solve", [dimension.local_metric_dimension, dimension.metric_dimension])
def test_solve_computes_each_once_and_tests_no_connectivity(counts, solve):
    stream = list(connected_graphs(5))
    for g in stream:
        solve(g)
    n = len(stream)
    assert counts == {"max_clique": n, "twin_partition": n, "is_connected": 0}


def test_lower_bounds_tests_connectivity_once_per_call(counts):
    stream = list(connected_graphs(5))
    for g in stream:
        dimension.lower_bounds(g)
        dimension.lower_bounds(g)
    n = 2 * len(stream)
    assert counts == {"max_clique": n, "twin_partition": n, "is_connected": n}


@pytest.mark.parametrize("mode", ["local", "full"])
def test_dim_computes_each_once_per_line(counts, capsys, tmp_path, mode):
    target = tmp_path / "order5.g6"
    target.write_text("".join(to_graph6(g) + "\n" for g in connected_graphs(5)))
    # without the witness, then with it: 21 lines each
    for extra in ([], ["--witness"]):
        assert main(["dim", "--input", str(target), "--mode", mode, *extra]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 21
    assert counts == {"max_clique": 42, "twin_partition": 42, "is_connected": 0}


def test_scan_computes_each_once(counts):
    graphs = list(connected_graphs(5))
    assert scan_clique_ratio(graphs).total == len(graphs)
    n = len(graphs)
    assert counts == {"max_clique": n, "twin_partition": n, "is_connected": 0}


@pytest.fixture
def walks(monkeypatch):
    """Call counters on dimension._chunk_masks, the chunk builder, and
    dimension._distinguisher_masks, the one-graph walk."""
    tally = {"chunk": 0, "one_graph": 0}
    monkeypatch.setattr(
        dimension, "_chunk_masks", _counted(tally, "chunk", dimension._chunk_masks)
    )
    monkeypatch.setattr(
        dimension,
        "_distinguisher_masks",
        _counted(tally, "one_graph", dimension._distinguisher_masks),
    )
    return tally


def test_sweeps_build_each_chunks_masks_in_one_call(walks):
    # 853 order-7 classes: three chunks of 256 and one of 85
    assert run_suite(connected_graphs(7)).graph_count == 853
    assert walks == {"chunk": 4, "one_graph": 0}
    assert scan_clique_ratio(connected_graphs(7)).total == 853
    assert walks == {"chunk": 8, "one_graph": 0}
    assert verify.dimension_class_audit(7).ok
    assert walks == {"chunk": 12, "one_graph": 0}


def test_one_graph_calls_keep_the_one_graph_walk(walks):
    for g in connected_graphs(5):
        check_graph(g)
        dimension.local_metric_dimension(g)
    assert walks == {"chunk": 0, "one_graph": 42}


@pytest.fixture
def solves(monkeypatch):
    """The lower_bound of every kernels.min_hitting_set call, in call order
    ("floors"), and a call counter on the witness rebuild,
    kernels.lex_min_hitting_set."""
    tally = {"rebuilds": 0, "floors": []}
    kernel = locdim.kernels.min_hitting_set

    def recorded(universe, constraints, lower_bound=0):
        tally["floors"].append(lower_bound)
        return kernel(universe, constraints, lower_bound)

    monkeypatch.setattr(locdim.kernels, "min_hitting_set", recorded)
    monkeypatch.setattr(
        locdim.kernels,
        "lex_min_hitting_set",
        _counted(tally, "rebuilds", locdim.kernels.lex_min_hitting_set),
    )
    return tally


def test_check_graph_solves_once_and_never_rebuilds(solves):
    graphs = list(connected_graphs(5))
    for g in graphs:
        check_graph(g)
    n = len(graphs)
    assert solves == {"rebuilds": 0, "floors": [0] * n}


def test_scan_never_rebuilds(solves):
    report = scan_clique_ratio(connected_graphs(5))
    assert report.applicable > 0
    n = report.applicable
    assert solves == {"rebuilds": 0, "floors": [0] * n}


@pytest.mark.parametrize("solve", [dimension.local_metric_dimension, dimension.metric_dimension])
def test_value_search_of_a_solve_is_unseeded(solves, solve):
    for g in connected_graphs(5):
        solves.update(rebuilds=0, floors=[])
        solve(g)
        # one unseeded value search, and one rebuild that probes inside
        assert solves == {"rebuilds": 1, "floors": [0]}, g


def test_dim_witness_rebuilds_once_per_line(solves, capsys, tmp_path):
    target = tmp_path / "order5.g6"
    target.write_text("".join(to_graph6(g) + "\n" for g in connected_graphs(5)))
    assert main(["dim", "--input", str(target), "--witness"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21 and all(" witness=" in line for line in lines)
    assert solves == {"rebuilds": 21, "floors": [0] * 21}


@pytest.mark.parametrize("mode", ["local", "full"])
def test_dim_without_witness_never_rebuilds(solves, capsys, tmp_path, mode):
    target = tmp_path / "order5.g6"
    target.write_text("".join(to_graph6(g) + "\n" for g in connected_graphs(5)))
    assert main(["dim", "--input", str(target), "--mode", mode]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21 and not any(" witness=" in line for line in lines)
    assert solves == {"rebuilds": 0, "floors": [0] * 21}


def test_family_tools_solve_each_member_once_for_the_value(counts, solves):
    members = len(problem1_refutation(5).rows) + len(family_split_table(7).rows)
    assert members == 4 + 22
    assert solves == {"rebuilds": 0, "floors": [0] * members}
    assert counts == {"max_clique": 0, "twin_partition": 0, "is_connected": 0}


NAMED_HOSTS = ["gamma1", "gamma2", "knm(9,4,2)", "upsilon(7)", "lambda", "apex(4)"]


@pytest.mark.parametrize("host", NAMED_HOSTS)
def test_pattern_searches_each_gamma_once(monkeypatch, capsys, host):
    tally = {"induced_embedding": 0}
    search = _counted(tally, "induced_embedding", locdim.kernels.induced_embedding)
    monkeypatch.setattr(locdim.kernels, "induced_embedding", search)
    assert main(["pattern", "--host", host]) == 0
    assert capsys.readouterr().out.count("\n") == 4
    assert tally == {"induced_embedding": 2}


def test_pattern_gamma_free_line_is_is_gamma_free(capsys):
    hosts = [(to_graph6(g), g) for n in range(1, 7) for g in connected_graphs(n)]
    hosts += [(spec, from_spec(spec)) for spec in NAMED_HOSTS]
    assert len(hosts) == 143 + 6
    answers = set()
    for text, g in hosts:
        assert main(["pattern", "--host", text]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"gamma-free: {'yes' if is_gamma_free(g) else 'no'}", text
        answers.add(last)
    assert answers == {"gamma-free: yes", "gamma-free: no"}


def test_family_calls_no_kernel(monkeypatch, capsys):
    tally = dict.fromkeys([name for name in locdim.kernels.__all__ if name != "BACKEND"], 0)
    for name in tally:
        monkeypatch.setattr(
            locdim.kernels, name, _counted(tally, name, getattr(locdim.kernels, name))
        )
    specs = ["k5", "cn(6)", "p4", *NAMED_HOSTS]
    for spec in specs:
        for extra in ([], ["--edges"]):
            assert main(["family", spec, *extra]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 * len(specs)
    assert tally == dict.fromkeys(tally, 0)


def test_run_suite_normalizes_the_check_ids_once(monkeypatch):
    tally = {"normalize_checks": 0}
    monkeypatch.setattr(
        verify, "normalize_checks", _counted(tally, "normalize_checks", verify.normalize_checks)
    )
    assert run_suite(connected_graphs(5)).graph_count == 21
    assert tally == {"normalize_checks": 1}


def test_human_verify_collects_the_violations_once(monkeypatch, capsys):
    # to_text prints them, then the exit code reads report.ok
    tally = {"violations": 0}
    collect = verify.SuiteReport.violations.fget
    monkeypatch.setattr(
        verify.SuiteReport, "violations", property(_counted(tally, "violations", collect))
    )
    assert main(["verify", "--gen", "5"]) == 0
    assert "violations: none" in capsys.readouterr().out
    assert tally == {"violations": 1}


def _refuse_checked_graphs(monkeypatch):
    """Graph.__init__ raises from here on, once the gamma patterns, the one
    checked construction a sweep may need, are cached. A raise reaches the
    parent from a forked pool worker too, where a counter would not."""
    pattern._gamma_patterns()

    def refuse(self, n, adj):
        raise AssertionError("a hot path built a checked Graph")

    monkeypatch.setattr(Graph, "__init__", refuse)


def test_suite_builds_no_checked_graph(monkeypatch):
    _refuse_checked_graphs(monkeypatch)
    assert run_suite(connected_graphs(7)).graph_count == 853


@pytest.mark.parametrize("jobs", [1, 2])
def test_corpus_suite_builds_no_checked_graph(monkeypatch, tmp_path, jobs):
    rng = random.Random(28)
    lines = [to_graph6(g.relabel(rng.sample(range(7), 7))) for g in connected_graphs(7)]
    target = tmp_path / "order7.g6"
    target.write_text("\n".join(lines) + "\n")
    _refuse_checked_graphs(monkeypatch)
    corpus = read_corpus(target, strict=True)
    assert run_suite(corpus.graphs, jobs=jobs).graph_count == 853


@pytest.mark.parametrize("solve", [dimension.local_metric_dimension, dimension.metric_dimension])
def test_dense_solve_builds_no_checked_graph(monkeypatch, solve):
    g = random_connected(random.Random(0), 24, 0.9)
    _refuse_checked_graphs(monkeypatch)
    assert solve(g).value > 0
