"""The clique number and the true-twin partition are computed once per
graph: by dimension.lower_bounds, whose LowerBounds every consumer reads.
The sweep, and `dim` without --witness, solve each graph with one
hitting-set call and never rebuild a witness, a suite run normalizes its
check ids once, and the human verify report collects its violations once.
No floor reaches a value search: only the witness rebuild hands the kernel
a lower bound."""

from __future__ import annotations

import sys

import pytest

import locdim.kernels
from locdim import dimension, invariants, verify
from locdim.cli import main
from locdim.enumeration import connected_graphs
from locdim.graphs import to_graph6
from locdim.verify import check_graph, run_suite, scan_clique_ratio


def _counted(tally: dict[str, int], name: str, fn):
    """fn, adding one to tally[name] on every call."""

    def wrapper(*args, **kwargs):
        tally[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def counts(monkeypatch):
    """Call counters on kernels.max_clique and on twin_partition in every
    locdim module whose own namespace holds it. The package resolves the
    name lazily from invariants, so it sees the wrapper without a patch."""
    tally = {"max_clique": 0, "twin_partition": 0}
    monkeypatch.setattr(
        locdim.kernels, "max_clique", _counted(tally, "max_clique", locdim.kernels.max_clique)
    )
    original = invariants.twin_partition
    wrapped = _counted(tally, "twin_partition", original)
    for name, module in list(sys.modules.items()):
        if name.startswith("locdim") and vars(module).get("twin_partition") is original:
            monkeypatch.setattr(module, "twin_partition", wrapped)
    return tally


def test_check_graph_computes_each_once(counts):
    graphs = list(connected_graphs(5))
    for g in graphs:
        check_graph(g)
    assert counts == {"max_clique": len(graphs), "twin_partition": len(graphs)}


@pytest.mark.parametrize("mode", ["local", "full"])
def test_dim_computes_each_once_per_line(counts, capsys, tmp_path, mode):
    target = tmp_path / "order5.g6"
    target.write_text("".join(to_graph6(g) + "\n" for g in connected_graphs(5)))
    assert main(["dim", "--input", str(target), "--mode", mode]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21
    assert counts == {"max_clique": 21, "twin_partition": 21}


def test_scan_computes_each_once(counts):
    graphs = list(connected_graphs(5))
    assert scan_clique_ratio(graphs).total == len(graphs)
    assert counts == {"max_clique": len(graphs), "twin_partition": len(graphs)}


@pytest.fixture
def solves(monkeypatch):
    """The lower_bound of every kernels.min_hitting_set call, in call order
    ("floors"), and a call counter on the witness rebuild."""
    tally = {"_lex_witness": 0, "floors": []}
    kernel = locdim.kernels.min_hitting_set

    def recorded(universe, constraints, lower_bound=0):
        tally["floors"].append(lower_bound)
        return kernel(universe, constraints, lower_bound)

    monkeypatch.setattr(locdim.kernels, "min_hitting_set", recorded)
    monkeypatch.setattr(
        dimension, "_lex_witness", _counted(tally, "_lex_witness", dimension._lex_witness)
    )
    return tally


def test_check_graph_solves_once_and_never_rebuilds(solves):
    graphs = list(connected_graphs(5))
    for g in graphs:
        check_graph(g)
    n = len(graphs)
    assert solves == {"_lex_witness": 0, "floors": [0] * n}


def test_scan_never_rebuilds(solves):
    report = scan_clique_ratio(connected_graphs(5))
    assert report.applicable > 0
    n = report.applicable
    assert solves == {"_lex_witness": 0, "floors": [0] * n}


@pytest.mark.parametrize("solve", [dimension.local_metric_dimension, dimension.metric_dimension])
def test_value_search_of_a_solve_is_unseeded(solves, solve):
    for g in connected_graphs(5):
        solves["floors"].clear()
        solve(g)
        # the calls after the first are the rebuild's probes, with budgets
        assert solves["floors"][0] == 0, g


def test_dim_witness_rebuilds_once_per_line(solves, capsys, tmp_path):
    target = tmp_path / "order5.g6"
    target.write_text("".join(to_graph6(g) + "\n" for g in connected_graphs(5)))
    assert main(["dim", "--input", str(target), "--witness"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21 and all(" witness=" in line for line in lines)
    assert solves["_lex_witness"] == 21


@pytest.mark.parametrize("mode", ["local", "full"])
def test_dim_without_witness_never_rebuilds(solves, capsys, tmp_path, mode):
    target = tmp_path / "order5.g6"
    target.write_text("".join(to_graph6(g) + "\n" for g in connected_graphs(5)))
    assert main(["dim", "--input", str(target), "--mode", mode]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21 and not any(" witness=" in line for line in lines)
    assert solves == {"_lex_witness": 0, "floors": [0] * 21}


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
