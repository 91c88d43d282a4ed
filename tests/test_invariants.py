"""Clique number and twin partitions against brute-force enumeration."""

from __future__ import annotations

import itertools
import random

import pytest
from conftest import naive_clique, stream_upto

from locdim import kernels
from locdim.dimension import lower_bounds
from locdim.enumeration import connected_graphs
from locdim.families import complete, complete_minus_bipartite, cycle, path
from locdim.graphs import DisconnectedError, build
from locdim.invariants import clique_number, max_clique, twin_partition


class TestClique:
    def test_known_values(self):
        assert clique_number(complete(6)) == 6
        assert clique_number(cycle(5)) == 2
        assert clique_number(cycle(6)) == 2
        assert clique_number(path(1)) == 1
        assert clique_number(complete_minus_bipartite(9, 3, 2)) == 7

    def test_witness_is_a_clique(self):
        g = complete_minus_bipartite(9, 4, 3)
        size, witness = max_clique(g)
        assert size == 6
        assert len(witness) == size
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(witness, 2))

    def test_matches_subset_search_small_orders(self):
        for g in stream_upto(6):
            assert max_clique(g) == naive_clique(g)

    def test_matches_subset_search_order_seven(self):
        for g in connected_graphs(7):
            size, witness = max_clique(g)
            nsize, nwitness = naive_clique(g)
            assert size == nsize
            assert witness == nwitness


@pytest.fixture
def clique_kernel(impl, monkeypatch):
    """Point kernels.max_clique, which the witness rebuild probes, at each
    backend in turn."""
    monkeypatch.setattr(kernels, "max_clique", impl.max_clique)
    return impl


class TestCliqueWitness:
    """The witness is rebuilt in invariants.max_clique from clique-number
    probes; subset search is the oracle, on both kernel backends."""

    def test_isolated_vertex_before_the_clique(self, clique_kernel):
        # vertex 0 has no neighbors, so its probe has an empty candidate
        # mask; all-zero rows would still report clique number 1
        assert max_clique(build(3, [(1, 2)])) == (2, (1, 2))

    def test_every_labeled_graph_up_to_five(self, clique_kernel):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = build(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
                assert max_clique(g) == naive_clique(g), g.edges()

    def test_seeded_random_graphs_up_to_ten(self, clique_kernel):
        rng = random.Random(0xC1)
        for _ in range(300):
            n = rng.randint(1, 10)
            p = rng.uniform(0.1, 0.9)
            g = build(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            assert max_clique(g) == naive_clique(g), g.edges()


class TestTwins:
    def test_complete_graph_is_one_class(self):
        tp = twin_partition(complete(5))
        assert tp.class_count == 1
        assert tp.classes == ((0, 1, 2, 3, 4),)

    def test_cycle_has_no_twins(self):
        tp = twin_partition(cycle(5))
        assert tp.class_count == 5
        assert tp.sizes() == (1, 1, 1, 1, 1)

    def test_block_structure(self):
        # removed-biclique blocks and the untouched rest are the classes
        tp = twin_partition(complete_minus_bipartite(9, 4, 3))
        assert tp.sizes() == (4, 3, 2)
        assert tp.classes == ((0, 1, 2, 3), (4, 5, 6), (7, 8))

    def test_path_classes(self):
        # P_3: the two leaves share the middle as closed neighborhood? No:
        # N[0]={0,1}, N[2]={1,2}, so all three are singletons
        assert twin_partition(path(3)).class_count == 3
        # K_2 is a single twin pair
        assert twin_partition(path(2)).classes == ((0, 1),)

    def test_twin_lower_bound_values(self):
        assert lower_bounds(complete(6)).twin == 5
        assert lower_bounds(cycle(5)).twin == 0
        assert lower_bounds(complete_minus_bipartite(9, 4, 3)).twin == 6

    def test_twin_lower_bound_rejects_disconnected(self):
        with pytest.raises(DisconnectedError):
            lower_bounds(build(4, [(0, 1), (2, 3)]))

    def test_classes_come_out_ordered_by_smallest_member(self):
        # twin_partition relies on dict insertion order instead of sorting
        rng = random.Random(20)
        graphs = list(stream_upto(7))
        for _ in range(300):
            n = rng.randint(2, 30)
            p = rng.choice((0.3, 0.7, 0.9))
            graphs.append(
                build(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            )
        for g in graphs:
            classes = twin_partition(g).classes
            assert classes == tuple(sorted(classes)), g.edges()
            assert all(list(cls) == sorted(cls) for cls in classes)

    def test_partition_properties(self):
        for g in stream_upto(6):
            tp = twin_partition(g)
            seen = sorted(v for cls in tp.classes for v in cls)
            assert seen == list(range(g.n))
            for cls in tp.classes:
                for u, v in itertools.combinations(cls, 2):
                    assert g.has_edge(u, v)
                    assert g.adj[u] | (1 << u) == g.adj[v] | (1 << v)
            # classes are maximal: members of different classes differ
            reps = [cls[0] for cls in tp.classes]
            for u, v in itertools.combinations(reps, 2):
                assert g.adj[u] | (1 << u) != g.adj[v] | (1 << v)
