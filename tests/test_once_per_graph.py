"""The clique number and the true-twin partition are computed once per
graph: by dimension.lower_bounds, whose LowerBounds every consumer reads."""

from __future__ import annotations

import sys

import pytest

import locdim.kernels
from locdim import invariants
from locdim.cli import main
from locdim.enumeration import connected_graphs
from locdim.graphs import to_graph6
from locdim.verify import check_graph, scan_clique_ratio


@pytest.fixture
def counts(monkeypatch):
    """Call counters on kernels.max_clique and on twin_partition in every
    locdim module that holds it."""
    tally = {"max_clique": 0, "twin_partition": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        locdim.kernels, "max_clique", counted("max_clique", locdim.kernels.max_clique)
    )
    original = invariants.twin_partition
    wrapped = counted("twin_partition", original)
    for name, module in list(sys.modules.items()):
        if name.startswith("locdim") and getattr(module, "twin_partition", None) is original:
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
