"""Induced-subgraph detection against an unpruned backtracking oracle."""

from __future__ import annotations

import itertools
import random

import pytest
from conftest import naive_induced_exists, reference_embedding, stream_upto
from hypothesis import given, settings
from hypothesis import strategies as st

from locdim.enumeration import connected_graphs
from locdim.families import complete, complete_minus_bipartite, cycle, gamma1, gamma2, path
from locdim.graphs import Graph, build, graph_from_triangle_bits
from locdim.pattern import find_induced, is_gamma_free


@st.composite
def graphs(draw: st.DrawFn, max_n: int = 9) -> Graph:
    n = draw(st.integers(1, max_n))
    bits = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_triangle_bits(n, bits)


def _is_valid_embedding(host: Graph, pattern: Graph, mapping: tuple[int, ...]) -> bool:
    if len(set(mapping)) != pattern.n:
        return False
    return all(
        pattern.has_edge(p, q) == host.has_edge(mapping[p], mapping[q])
        for p, q in itertools.combinations(range(pattern.n), 2)
    )


class TestFindInduced:
    def test_graph_contains_itself(self):
        for g in (gamma1(), cycle(6), path(3)):
            mapping = find_induced(g, g)
            assert mapping is not None
            assert _is_valid_embedding(g, g, mapping)

    def test_gammas_do_not_contain_each_other(self):
        # same order, different size: the only candidate uses every vertex
        assert find_induced(gamma2(), gamma1()) is None
        assert find_induced(gamma1(), gamma2()) is None

    def test_clique_in_clique(self):
        mapping = find_induced(complete(6), complete(4))
        assert mapping is not None
        assert _is_valid_embedding(complete(6), complete(4), mapping)

    def test_cycle_not_in_clique(self):
        # C_4 has a non-edge, K_4 does not
        assert find_induced(complete(4), cycle(4)) is None

    def test_path_in_cycle(self):
        assert find_induced(cycle(5), path(4)) is not None
        assert find_induced(cycle(5), path(5)) is None

    def test_host_smaller_than_pattern(self):
        assert find_induced(path(3), path(4)) is None

    def test_single_vertex_pattern(self):
        assert find_induced(path(3), path(1)) is not None

    def test_mapping_is_deterministic(self):
        assert find_induced(cycle(6), path(3)) == find_induced(cycle(6), path(3))

    def test_induced_subgraphs_are_found(self):
        # any induced subgraph of g must be reported present
        g = complete_minus_bipartite(7, 3, 2)
        for keep in itertools.combinations(range(7), 4):
            sub = g.induced(keep)
            mapping = find_induced(g, sub)
            assert mapping is not None
            assert _is_valid_embedding(g, sub, mapping)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_agrees_with_unpruned_search(self, n):
        g1, g2 = gamma1(), gamma2()
        for host in connected_graphs(n):
            for pat in (g1, g2):
                found = find_induced(host, pat)
                assert (found is not None) == naive_induced_exists(host, pat)
                if found is not None:
                    assert _is_valid_embedding(host, pat, found)

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=7), graphs(max_n=4))
    def test_agrees_with_unpruned_search_random(self, host: Graph, pat: Graph):
        found = find_induced(host, pat)
        assert (found is not None) == naive_induced_exists(host, pat)
        if found is not None:
            assert _is_valid_embedding(host, pat, found)


class TestExactMapping:
    """find_induced returns the first mapping of its documented search
    order, not merely a valid one: a pruned or reordered search that finds
    another embedding would break agreement between the backends."""

    PATTERNS = (gamma1(), gamma2(), path(3), path(4), cycle(4), cycle(5))

    def test_every_host_up_to_order_six(self):
        # a graph or its complement is connected, so these cover every class
        rng = random.Random(6)
        for g in stream_upto(6):
            for host in (g, g.complement()):
                perm = list(range(host.n))
                rng.shuffle(perm)
                for h in (host, host.relabel(perm)):
                    for pat in self.PATTERNS:
                        assert find_induced(h, pat) == reference_embedding(h, pat)

    def test_random_hosts_up_to_order_nine(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(1, 9)
            p = rng.uniform(0.15, 0.85)
            host = build(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            for pat in self.PATTERNS:
                assert find_induced(host, pat) == reference_embedding(host, pat)


class TestGammaFree:
    def test_gammas_are_not_gamma_free(self):
        assert not is_gamma_free(gamma1())
        assert not is_gamma_free(gamma2())

    def test_small_graphs_are_gamma_free(self):
        assert is_gamma_free(cycle(5))
        assert is_gamma_free(complete(6))
        assert is_gamma_free(path(2))

    def test_block_family_is_gamma_free(self):
        # non-edges of these graphs form a biclique, which cannot realize
        # the non-edge shape of either forbidden configuration
        assert is_gamma_free(complete_minus_bipartite(9, 4, 1))
        assert is_gamma_free(complete_minus_bipartite(9, 4, 2))
        assert is_gamma_free(complete_minus_bipartite(6, 2, 2))

    def test_supergraphs_of_gamma1_are_flagged(self):
        host = build(7, gamma1().edges() + [(6, 0)])
        assert not is_gamma_free(host)
        assert find_induced(host, gamma1()) is not None
