"""Graph construction, graph6 codec, traversals, predicates.

The codec tests check against a reference decoder written straight from the
format definition, sharing no code with the package.
"""

from __future__ import annotations

import pickle
import random
import re

import pytest
from conftest import naive_distances, triangle_rows_by_pairs
from hypothesis import example, given
from hypothesis import strategies as st

from locdim.graphs import (
    DisconnectedError,
    Graph,
    Graph6Error,
    _reach,
    _trusted_graph,
    bfs_distances,
    bit_indices,
    build,
    from_graph6,
    graph_from_triangle_bits,
    is_bipartite,
    is_connected,
    is_triangle_free,
    to_graph6,
    triangle_bits,
    twin_masks,
)

K5_G6 = "D~{"
C5_G6 = "Dhc"

C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


@st.composite
def graphs(draw: st.DrawFn, max_n: int = 12) -> Graph:
    n = draw(st.integers(1, max_n))
    bits = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_triangle_bits(n, bits)


def _decode_by_hand(text: str) -> tuple[int, set[tuple[int, int]]]:
    """Reference graph6 decoder: size byte, then the upper triangle in
    column order (0,1),(0,2),(1,2),(0,3),... six bits per byte, high bit
    first, offset 63."""
    values = [ord(ch) - 63 for ch in text]
    n = values[0]
    stream: list[int] = []
    for v in values[1:]:
        stream.extend((v >> k) & 1 for k in range(5, -1, -1))
    edges = set()
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if stream[pos]:
                edges.add((i, j))
            pos += 1
    return n, edges


class TestConstruction:
    def test_build_triangle(self):
        g = build(3, [(0, 1), (1, 2), (0, 2)])
        assert g.n == 3
        assert g.m == 3
        assert g.degree(0) == 2
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert g.neighbors(1) == (0, 2)
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_duplicate_edges_collapse(self):
        g = build(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    @pytest.mark.parametrize("n", [0, -1, 63])
    def test_order_out_of_range(self, n):
        with pytest.raises(ValueError, match="vertex count"):
            build(n, [])

    def test_edge_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build(3, [(0, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build(3, [(1, 1)])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (2, 0))

    def test_row_mentions_missing_vertex(self):
        with pytest.raises(ValueError, match="mentions a vertex"):
            Graph(2, (4, 0))

    def test_validation_reports_the_first_fault_in_row_order(self):
        """The one-pass check accepts exactly the rows a full scan accepts,
        and a rejection names the first fault a full scan meets."""

        def first_fault(n, rows):
            for v, row in enumerate(rows):
                if row >> n:
                    return f"adjacency row {v} mentions a vertex >= {n}"
                if (row >> v) & 1:
                    return f"self-loop at vertex {v}"
                for u in range(n):
                    if (row >> u) & 1 and not (rows[u] >> v) & 1:
                        return f"asymmetric adjacency between {u} and {v}"
            return None

        rng = random.Random(5)
        faults = set()
        for _ in range(3000):
            n = rng.randint(1, 8)
            rows = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.5:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
            for _ in range(rng.randint(0, 3)):
                rows[rng.randrange(n)] ^= 1 << rng.randrange(n + 1)
            expected = first_fault(n, rows)
            if expected is None:
                assert Graph(n, tuple(rows)).adj == tuple(rows)
                continue
            with pytest.raises(ValueError) as info:
                Graph(n, tuple(rows))
            assert str(info.value) == expected
            faults.add(expected.split()[0])
        assert faults == {"adjacency", "self-loop", "asymmetric"}

    def test_wrong_row_count(self):
        with pytest.raises(ValueError, match="adjacency rows"):
            Graph(3, (0, 0))

    def test_relabel_roundtrip(self):
        g = build(4, [(0, 1), (1, 2), (2, 3)])
        perm = [2, 0, 3, 1]
        h = g.relabel(perm)
        assert h.m == g.m
        assert sorted(h.degree(v) for v in range(4)) == sorted(
            g.degree(v) for v in range(4)
        )
        inverse = [0] * 4
        for v, p in enumerate(perm):
            inverse[p] = v
        assert h.relabel(inverse) == g

    def test_relabel_rejects_non_permutation(self):
        g = build(3, [(0, 1)])
        with pytest.raises(ValueError, match="permutation"):
            g.relabel([0, 0, 1])

    def test_with_edges(self):
        g = build(3, [(0, 1)]).with_edges([(1, 2), (0, 1)])
        assert g.edges() == [(0, 1), (1, 2)]

    def test_induced_keeps_order(self):
        g = build(5, C5_EDGES)
        h = g.induced([3, 2, 4])
        # 3~2 and 3~4 in the cycle, 2 and 4 are not adjacent
        assert h.edges() == [(0, 1), (0, 2)]

    def test_induced_rejects_repeats(self):
        g = build(3, [(0, 1)])
        with pytest.raises(ValueError, match="repeats"):
            g.induced([0, 0])

    @pytest.mark.parametrize("bad", [99, -1, 3])
    def test_induced_rejects_out_of_range(self, bad):
        g = build(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=f"vertex {bad} out of range for n=3"):
            g.induced([0, bad])

    def test_complement_of_complete_is_empty(self):
        g = build(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert g.complement().m == 0


class TestValueSemantics:
    def test_equality_and_hash_go_by_the_fields(self):
        g = build(3, [(0, 1), (1, 2)])
        h = Graph(3, (2, 5, 2))
        assert g == h and hash(g) == hash(h) == hash((3, (2, 5, 2)))
        assert g != build(3, [(0, 1), (0, 2)])
        assert g != (3, (2, 5, 2))
        assert len({g, h, build(3, [(0, 2), (1, 2)])}) == 2

    def test_list_rows_are_kept_as_a_tuple(self):
        rows = [2, 5, 2]
        g = Graph(3, rows)
        assert g.adj == (2, 5, 2) and type(g.adj) is tuple
        assert g == Graph(3, (2, 5, 2)) and hash(g) == hash(Graph(3, (2, 5, 2)))
        rows[0] = 0
        assert g.adj == (2, 5, 2)

    def test_repr(self):
        assert repr(build(3, [(0, 1), (1, 2)])) == "Graph(n=3, adj=(2, 5, 2))"

    def test_assignment_is_refused(self):
        g = build(3, [(0, 1)])
        with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
            g.n = 4
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            g.extra = 1
        with pytest.raises(AttributeError, match="cannot delete field 'adj'"):
            del g.adj
        assert g.n == 3 and g.adj == (2, 1, 0)

    def test_pickle_round_trip_skips_the_checks(self, monkeypatch):
        g = build(8, [(i, i + 1) for i in range(7)])
        data = pickle.dumps(g)
        assert len(data) == 72
        assert g.m == 7  # now cached, but the pickle holds (n, adj) alone
        assert pickle.dumps(g) == data

        def refuse(self):
            raise AssertionError("an unpickled graph was validated again")

        monkeypatch.setattr(Graph, "_check_rows", refuse)
        back = pickle.loads(data)
        assert back == g and hash(back) == hash(g) and back.m == 7
        with pytest.raises(AttributeError):
            back.n = 1

    def test_canonical_bits_ride_along_and_survive_a_pickle(self):
        # the 5-cycle's canonical labeling, as the class stream yields it
        plain = graph_from_triangle_bits(5, 0b0011011100)
        marked = _trusted_graph(5, plain.adj, 0b0011011100)
        assert plain._canonical_bits is None and marked._canonical_bits == 0b0011011100
        assert marked == plain and hash(marked) == hash(plain)
        back = pickle.loads(pickle.dumps(marked))
        assert back == plain and back._canonical_bits == 0b0011011100
        assert pickle.loads(pickle.dumps(plain))._canonical_bits is None


class TestGraph6:
    def test_k5_encoding(self):
        k5 = build(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        assert to_graph6(k5) == K5_G6

    def test_c5_encoding(self):
        assert to_graph6(build(5, C5_EDGES)) == C5_G6

    def test_k1_encoding(self):
        assert to_graph6(build(1, [])) == "@"
        assert from_graph6("@").n == 1

    def test_empty_graph_on_five(self):
        g = from_graph6("D??")
        assert g.n == 5 and g.m == 0

    def test_no_padding_orders(self):
        # m divisible by 6 leaves no padding bits at all
        k4 = build(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert to_graph6(k4) == "C~"
        assert from_graph6("C~") == k4

    def test_header_tolerated(self):
        assert from_graph6(">>graph6<<" + K5_G6).m == 10

    @pytest.mark.parametrize(
        "bad, match",
        [
            ("", "empty"),
            ("D~(", "outside graph6 range"),
            ("~??", "extended size prefix"),
            ("D~", "truncated"),
            ("D~{{", "too long"),
            ("D~~", "padding"),
            (chr(62), "outside graph6 range"),
        ],
    )
    def test_malformed_rejected(self, bad, match):
        with pytest.raises(Graph6Error, match=match):
            from_graph6(bad)

    def test_errors_are_value_errors(self):
        with pytest.raises(ValueError):
            from_graph6("D~")

    @given(graphs())
    def test_roundtrip(self, g: Graph):
        assert from_graph6(to_graph6(g)) == g

    @given(graphs())
    def test_hand_decoder_agrees(self, g: Graph):
        n, edges = _decode_by_hand(to_graph6(g))
        assert n == g.n
        assert edges == set(g.edges())

    @given(graphs())
    def test_triangle_bits_roundtrip(self, g: Graph):
        assert graph_from_triangle_bits(g.n, triangle_bits(g.n, g.adj)) == g

    @given(st.integers(1, 62).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    ))
    @example((62, (1 << 1891) - 1))
    @example((62, 1 << 1890))
    @example((62, 1))
    def test_trusted_construction_matches_the_checked_one(self, n_bits):
        """graph_from_triangle_bits skips Graph's row checks: the rows it
        builds equal the pair-by-pair reference, which Graph(n, rows)
        accepts, and pass the checks themselves."""
        n, bits = n_bits
        g = graph_from_triangle_bits(n, bits)
        checked = Graph(n, triangle_rows_by_pairs(n, bits))
        assert g == checked and hash(g) == hash(checked)
        assert type(g.adj) is tuple
        g._check_rows()  # raises for a faulty row

    def test_triangle_bits_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            graph_from_triangle_bits(3, 1 << 3)

    @pytest.mark.parametrize(
        "n, bits, message",
        [
            (62, 1 << 1891, "triangle bits out of range for n=62"),
            (4, -1, "triangle bits out of range for n=4"),
            (0, 1, "triangle bits out of range for n=0"),
            (0, 0, "vertex count must be in 1..62, got 0"),
            (-1, 0, "vertex count must be in 1..62, got -1"),
            (63, 0, "vertex count must be in 1..62, got 63"),
        ],
    )
    def test_triangle_bits_rejects_bad_input(self, n, bits, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            graph_from_triangle_bits(n, bits)


class TestTraversals:
    def test_path_distances(self):
        g = build(5, [(i, i + 1) for i in range(4)])
        dm = bfs_distances(g)
        assert dm.dist(0, 4) == 4
        assert dm.dist(4, 0) == 4
        assert dm.dist(2, 2) == 0

    def test_cycle_distances(self):
        dm = bfs_distances(build(5, C5_EDGES))
        assert dm.dist(0, 2) == 2
        assert dm.dist(0, 3) == 2
        assert dm.dist(1, 4) == 2

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedError):
            bfs_distances(build(2, []))
        with pytest.raises(DisconnectedError):
            bfs_distances(build(4, [(0, 1), (2, 3)]))

    def test_is_connected(self):
        assert is_connected(build(1, []))
        assert is_connected(build(3, [(0, 1), (1, 2)]))
        assert not is_connected(build(3, [(0, 1)]))

    @given(graphs(max_n=9))
    def test_distance_axioms(self, g: Graph):
        if not is_connected(g):
            with pytest.raises(DisconnectedError):
                bfs_distances(g)
            return
        dm = bfs_distances(g)
        for u in range(g.n):
            assert dm.dist(u, u) == 0
            for v in range(u + 1, g.n):
                assert dm.dist(u, v) == dm.dist(v, u) >= 1
                assert (dm.dist(u, v) == 1) == g.has_edge(u, v)
                for w in range(g.n):
                    assert dm.dist(u, v) <= dm.dist(u, w) + dm.dist(w, v)

    @given(graphs(max_n=9))
    def test_distances_match_a_queue_bfs(self, g: Graph):
        # the oracle reads edges through has_edge alone, not the mask walk
        edges = [(u, v) for v in range(g.n) for u in range(v) if g.has_edge(u, v)]
        expected = naive_distances(g.n, edges)
        if any(-1 in row for row in expected):
            with pytest.raises(DisconnectedError):
                bfs_distances(g)
            return
        assert bfs_distances(g).d == tuple(map(tuple, expected))

    @given(graphs(max_n=9), st.integers(0, (1 << 9) - 1))
    def test_reach_is_the_closure_of_the_seed(self, g: Graph, bits: int):
        # grow the seed one neighbour at a time until nothing new joins
        for seed in (0, bits & ((1 << g.n) - 1)):
            closure = {v for v in range(g.n) if seed >> v & 1}
            grown = True
            while grown:
                grown = False
                for u in range(g.n):
                    if u not in closure and any(g.has_edge(u, v) for v in closure):
                        closure.add(u)
                        grown = True
            assert _reach(g.adj, seed) == sum(1 << v for v in closure)


class TestPredicates:
    @pytest.mark.parametrize("n, expected", [(4, True), (5, False), (6, True), (7, False)])
    def test_cycle_bipartite(self, n, expected):
        g = build(n, [(i, (i + 1) % n) for i in range(n)])
        assert is_bipartite(g) is expected

    def test_bipartite_handles_components(self):
        assert is_bipartite(build(4, [(0, 1), (2, 3)]))
        assert not is_bipartite(build(5, [(0, 1), (2, 3), (3, 4), (2, 4)]))

    def test_triangle_free(self):
        assert is_triangle_free(build(5, C5_EDGES))
        assert is_triangle_free(build(4, [(0, 1), (0, 2), (0, 3)]))
        assert not is_triangle_free(build(3, [(0, 1), (1, 2), (0, 2)]))

    def test_twin_masks(self):
        # a star's leaves are false twins, a triangle's vertices true twins,
        # and the cycle C5 has none
        assert twin_masks(build(4, [(0, 1), (0, 2), (0, 3)]).adj) == [0, 0b1100, 0b1010, 0b0110]
        assert twin_masks(build(3, [(0, 1), (1, 2), (0, 2)]).adj) == [0b110, 0b101, 0b011]
        assert twin_masks(build(5, C5_EDGES).adj) == [0] * 5

    @given(graphs(max_n=8))
    def test_twin_swap_is_automorphism(self, g: Graph):
        for v, twins in enumerate(twin_masks(g.adj)):
            for u in bit_indices(twins):
                perm = list(range(g.n))
                perm[u], perm[v] = v, u
                assert g.relabel(perm) == g

    @given(graphs(max_n=8))
    def test_bipartite_iff_no_odd_cycle(self, g: Graph):
        # odd closed walks exist iff some edge joins two vertices whose
        # distance parities agree in that component; checked by brute force
        # over all triangles-or-longer odd cycles via DFS would be heavy, so
        # compare against the definitional 2-coloring search instead
        colors = [-1] * g.n
        ok = True
        for s in range(g.n):
            if colors[s] != -1:
                continue
            colors[s] = 0
            stack = [s]
            while stack:
                v = stack.pop()
                for u in bit_indices(g.adj[v]):
                    if colors[u] == -1:
                        colors[u] = colors[v] ^ 1
                        stack.append(u)
                    elif colors[u] == colors[v]:
                        ok = False
        assert is_bipartite(g) is ok


@given(st.integers(0, (1 << 20) - 1))
def test_bit_indices_reconstructs_mask(mask: int):
    got = list(bit_indices(mask))
    assert got == sorted(got)
    assert sum(1 << i for i in got) == mask
