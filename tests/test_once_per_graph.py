"""Each verb computes each answer once.

The clique number and the true-twin partition are computed once per
graph: by dimension.lower_bounds, whose LowerBounds every consumer reads.
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

import sys

import pytest

import locdim.kernels
from locdim import dimension, invariants, verify
from locdim.cli import main
from locdim.enumeration import connected_graphs
from locdim.families import from_spec
from locdim.graphs import to_graph6
from locdim.pattern import is_gamma_free
from locdim.verify import (
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
    assert counts == {"max_clique": 0, "twin_partition": 0}


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
