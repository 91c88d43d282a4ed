"""Canonical forms and the exhaustive connected-graph streams.

The stream counts are cross-checked against the published sequences of
graph classes per order (all graphs and connected graphs), against an
independent recount that canonicalizes every labeled connected graph
directly, against the networkx graph atlas, and at order 8 against the
committed class corpus of the benchmark.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from conftest import (
    complete_multipartite,
    connected_class_bits_by_filter,
    connected_class_count_by_filter,
    matching,
    naive_blocks,
    naive_canonical_bits,
    petersen,
    twin_rich_graphs,
)

import locdim.kernels
from locdim import _pure, enumeration
from locdim.enumeration import (
    CANONICAL_MAX_VERTICES,
    CONNECTED_CLASS_COUNTS,
    CanonicalKey,
    Corpus,
    canonical_form,
    canonical_graph6,
    canonical_key,
    connected_graphs,
    read_corpus,
)
from locdim.families import complete, cycle, path
from locdim.graphs import (
    Graph6Error,
    _triangle_graph6,
    build,
    from_graph6,
    graph_from_triangle_bits,
    is_connected,
    to_graph6,
    triangle_bits,
    twin_masks,
)

# classes of all graphs per order, connected or not (OEIS A000088)
GRAPH_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


class TestCanonical:
    def test_key_orders_by_n_first(self):
        assert canonical_key(path(2)) < canonical_key(path(3))
        assert CanonicalKey(3, 7) < CanonicalKey(4, 0)
        # then by bits, as a tuple sorts
        keys = [CanonicalKey(4, 9), CanonicalKey(3, 7), CanonicalKey(4, 2), CanonicalKey(3, 1)]
        assert sorted(keys) == [(3, 1), (3, 7), (4, 2), (4, 9)]
        assert CanonicalKey(5, 3) == CanonicalKey(n=5, bits=3)

    def test_relabeling_preserves_key(self):
        rng = random.Random(11)
        for n in range(2, 7):
            for g in connected_graphs(n):
                key = canonical_key(g)
                for _ in range(8):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    assert canonical_key(g.relabel(perm)) == key

    def test_distinct_classes_get_distinct_keys(self):
        for n in range(1, 7):
            keys = {canonical_key(g) for g in connected_graphs(n)}
            assert len(keys) == CONNECTED_CLASS_COUNTS[n]

    def test_canonical_form_is_idempotent(self):
        for g in (cycle(6), complete(4), path(5)):
            h = canonical_form(g)
            assert canonical_form(h) == h
            assert canonical_key(h) == canonical_key(g)

    def test_canonical_graph6_of_cycle(self):
        a = build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        b = a.relabel([2, 4, 1, 3, 0])
        assert canonical_graph6(a) == canonical_graph6(b)

    def test_order_cap(self):
        with pytest.raises(ValueError, match=str(CANONICAL_MAX_VERTICES)):
            canonical_key(complete(10))


class TestCanonicalOracle:
    """The pure kernel against the n! oracle, which shares none of its
    pruning: the independent-set blocks, twin classes, degree order and
    the prefix cut."""

    def test_every_labeled_graph_up_to_order_five(self):
        assert _pure.canonical_bits(0, []) == naive_canonical_bits(0, []) == 0
        for n in range(1, 6):
            for bits in range(1 << (n * (n - 1) // 2)):
                adj = graph_from_triangle_bits(n, bits).adj
                assert _pure.canonical_bits(n, adj) == naive_canonical_bits(n, adj)

    def test_random_orders_six_and_seven(self):
        rng = random.Random(2014)
        for n, count in ((6, 30), (7, 8)):
            for _ in range(count):
                p = rng.uniform(0.15, 0.85)
                g = build(
                    n,
                    [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
                )
                assert _pure.canonical_bits(n, g.adj) == naive_canonical_bits(n, g.adj)

    def test_twin_rich_families(self):
        rng = random.Random(1998)
        for g in twin_rich_graphs():
            expected = naive_canonical_bits(g.n, g.adj)
            assert _pure.canonical_bits(g.n, g.adj) == expected
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert _pure.canonical_bits(g.n, g.relabel(perm).adj) == expected

    def test_order_eleven_twin_classes(self):
        # 11! relabelings tie here; one branch per twin class keeps it fast
        assert _pure.canonical_bits(11, complete(11).adj) == (1 << 55) - 1
        assert _pure.canonical_bits(11, [0] * 11) == 0
        g = complete_multipartite(5, 6)
        perm = [3, 9, 0, 7, 1, 10, 5, 2, 8, 4, 6]
        assert _pure.canonical_bits(11, g.relabel(perm).adj) == _pure.canonical_bits(
            11, g.adj
        )

    def test_order_cap(self):
        with pytest.raises(ValueError):
            _pure.canonical_bits(12, [0] * 12)


class TestIsCanonical:
    """The early-exit test against the full search it replaces in the
    generator: is_canonical(n, adj, own) == (canonical_bits(n, adj) == own)
    for own the graph's own string and for its canonical string."""

    @staticmethod
    def _agree(n, adj):
        canon = _pure.canonical_bits(n, adj)
        own = triangle_bits(n, adj)
        assert _pure.is_canonical(n, adj, own) == (canon == own)
        assert _pure.is_canonical(n, adj, canon)

    def test_every_labeled_graph_up_to_order_five(self):
        accepted = 0
        for n in range(0, 6):
            for bits in range(1 << (n * (n - 1) // 2)):
                adj = graph_from_triangle_bits(n, bits).adj if n else []
                self._agree(n, adj)
                accepted += _pure.is_canonical(n, adj, bits)
        # every class of orders 0..5 (OEIS A000088) is accepted exactly once
        assert accepted == 1 + sum(GRAPH_CLASS_COUNTS[n] for n in range(1, 6))

    def test_random_orders_six_to_nine(self):
        rng = random.Random(1978)
        for n in range(6, 10):
            for _ in range(60):
                p = rng.uniform(0.1, 0.9)
                g = build(
                    n,
                    [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
                )
                self._agree(n, g.adj)
                # the canonically labeled copy, which must be accepted
                canon = graph_from_triangle_bits(n, _pure.canonical_bits(n, g.adj))
                self._agree(n, canon.adj)

    def test_twin_rich_families(self):
        rng = random.Random(1980)
        for g in twin_rich_graphs():
            self._agree(g.n, g.adj)
            perm = list(range(g.n))
            rng.shuffle(perm)
            self._agree(g.n, g.relabel(perm).adj)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            _pure.is_canonical(12, [0] * 12, 0)


class TestBlocks:
    """The maximum independent sets the canonical search branches on, one
    per true-twin swap, against subset search (conftest.naive_blocks)."""

    @staticmethod
    def _agree(n, adj):
        blocks = _pure._blocks(n, adj, twin_masks(adj))
        assert len(blocks) == len(set(blocks)), (n, adj)
        assert set(blocks) == naive_blocks(n, adj), (n, adj)

    def test_every_labeled_graph_up_to_order_six(self):
        for n in range(1, 7):
            for bits in range(1 << (n * (n - 1) // 2)):
                self._agree(n, graph_from_triangle_bits(n, bits).adj)

    def test_random_graphs_up_to_order_eleven(self):
        rng = random.Random(1965)
        for n in range(7, 12):
            for _ in range(40):
                p = rng.uniform(0.1, 0.9)
                g = build(
                    n,
                    [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
                )
                self._agree(n, g.adj)

    def test_block_heavy_families(self):
        rng = random.Random(1973)
        graphs = [matching(5), complete(11), build(11, []), petersen(), cycle(9), cycle(10)]
        graphs += [complete_multipartite(*parts) for parts in ((3, 3, 3), (1, 2, 3, 4), (5, 6))]
        for g in graphs:
            self._agree(g.n, g.adj)
            perm = list(range(g.n))
            rng.shuffle(perm)
            self._agree(g.n, g.relabel(perm).adj)

    def test_one_block_per_true_twin_swap(self):
        # 2**5 maximum independent sets, all one swap of true twins apart
        assert _pure._blocks(10, matching(5).adj, twin_masks(matching(5).adj)) == [
            0b0101010101
        ]
        # a false-twin class lies wholly inside or outside: the parts of
        # K_{3,3,3} are the three blocks
        g = complete_multipartite(3, 3, 3)
        assert sorted(_pure._blocks(9, g.adj, twin_masks(g.adj))) == [
            0b000000111,
            0b000111000,
            0b111000000,
        ]


class TestStreams:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_class_counts(self, n):
        graphs = list(connected_graphs(n))
        assert len(graphs) == CONNECTED_CLASS_COUNTS[n]

    def test_class_count_order_seven(self):
        assert sum(1 for _ in connected_graphs(7)) == CONNECTED_CLASS_COUNTS[7]

    def test_members_are_connected_and_canonical(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                assert g.n == n
                assert is_connected(g)
                assert canonical_form(g) == g

    def test_stream_is_sorted_and_duplicate_free(self):
        keys = [canonical_key(g) for g in connected_graphs(6)]
        assert keys == sorted(set(keys))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_labeled_recount_agrees(self, n):
        assert connected_class_count_by_filter(n) == CONNECTED_CLASS_COUNTS[n]

    def test_labeled_recount_agrees_order_six(self):
        assert connected_class_count_by_filter(6) == CONNECTED_CLASS_COUNTS[6]

    def test_class_set_matches_labeled_filter_order_six(self):
        stream = {triangle_bits(g.n, g.adj) for g in connected_graphs(6)}
        assert stream == connected_class_bits_by_filter(6)

    def test_order_eight_matches_the_class_corpus(self):
        corpus = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "order8.g6"
        expected = {from_graph6(line).adj for line in corpus.read_text().split()}
        stream = [g.adj for g in connected_graphs(8)]
        assert len(stream) == CONNECTED_CLASS_COUNTS[8]
        assert set(stream) == expected

    @pytest.mark.parametrize("n", [0, 10])
    def test_stream_domain(self, n):
        # refused at the call, before the stream is drawn
        with pytest.raises(ValueError, match=f"got {n}"):
            connected_graphs(n)

    def test_stream_is_the_sorted_class_bits_rebuilt(self, monkeypatch):
        """Generated from an empty memo, order by order, and again from the
        memo once order 8 has been generated: the graphs graph_from_triangle_bits
        rebuilds from the sorted class bits, each carrying its bits."""
        monkeypatch.setattr(enumeration, "_CLASS_BITS", {})
        for n in range(1, 9):
            assert (n, True) not in enumeration._CLASS_BITS
            generated = list(connected_graphs(n))
            bits = sorted(enumeration._CLASS_BITS[(n, True)])
            assert len(bits) == CONNECTED_CLASS_COUNTS[n]
            assert generated == [graph_from_triangle_bits(n, b) for b in bits]
            assert [g._canonical_bits for g in generated] == bits
            assert all(triangle_bits(n, g.adj) == g._canonical_bits for g in generated)
        for n in range(1, 9):
            rebuilt = list(connected_graphs(n))
            bits = sorted(enumeration._CLASS_BITS[(n, True)])
            assert rebuilt == [graph_from_triangle_bits(n, b) for b in bits]
            assert [g._canonical_bits for g in rebuilt] == bits

    def test_recount_domain(self):
        with pytest.raises(ValueError):
            connected_class_count_by_filter(7)


class TestOrderlyGeneration:
    """The generator's every-class sets behind the connected streams."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_graph_counts(self, n):
        assert len(enumeration._class_bits(n)) == GRAPH_CLASS_COUNTS[n]

    def test_all_graphs_match_the_networkx_atlas(self):
        nx = pytest.importorskip("networkx")
        atlas: dict[int, set[int]] = {n: set() for n in range(1, 8)}
        for h in nx.graph_atlas_g()[1:]:
            n = h.number_of_nodes()
            adj = [0] * n
            for u, v in h.edges():
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            atlas[n].add(_pure.canonical_bits(n, adj))
        for n in range(1, 8):
            assert enumeration._class_bits(n) == atlas[n]

    @pytest.mark.parametrize("connected_only", [False, True])
    def test_no_class_accepted_twice(self, connected_only):
        for k in range(1, 7):
            children = enumeration._orderly_children(
                k, enumeration._class_bits(k), connected_only
            )
            accepted = [bits for bits, _, _ in children]
            assert len(accepted) == len(set(accepted))

    def test_prefilters_only_reject_non_canonical_children(self):
        rejected = 0
        for k in range(1, 6):
            for pbits in enumeration._class_bits(k):
                adj = graph_from_triangle_bits(k, pbits).adj
                kept = set(enumeration._admissible_columns(pbits, adj))
                for column in range(1 << k):
                    if column in kept:
                        continue
                    rejected += 1
                    rows = list(adj) + [0]
                    for v in range(k):
                        if (column >> (k - 1 - v)) & 1:
                            rows[v] |= 1 << k
                            rows[k] |= 1 << v
                    bits = (pbits << k) | column
                    assert _pure.canonical_bits(k + 1, rows) < bits
        assert rejected > 0

    def test_canonical_key_answers_stream_graphs_from_the_generator(self, monkeypatch):
        stream = list(connected_graphs(6))
        calls = []
        kernel = locdim.kernels.canonical_bits
        monkeypatch.setattr(
            locdim.kernels, "canonical_bits", lambda n, adj: calls.append(n) or kernel(n, adj)
        )
        for g in stream:
            assert canonical_key(g) == CanonicalKey(6, triangle_bits(6, g.adj))
        assert calls == []
        rng = random.Random(5)
        for g in stream:
            perm = list(range(6))
            rng.shuffle(perm)
            assert canonical_key(g.relabel(perm)) == canonical_key(g)

    def test_ungenerated_order_skips_the_lookup(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_CLASS_BITS", {})

        def no_lookup(n, adj):
            raise AssertionError("triangle_bits called for an order never generated")

        monkeypatch.setattr(enumeration, "triangle_bits", no_lookup)
        g = cycle(5).relabel([2, 4, 1, 3, 0])
        assert canonical_key(g).bits == naive_canonical_bits(5, g.adj)


class TestTriangleGraph6:
    """The graph6 encoder that works on triangle bits, which canonical
    graph ids use without building a Graph, against the Graph path and
    the decoder."""

    def _check(self, n: int, bits: int) -> None:
        g = graph_from_triangle_bits(n, bits)
        text = _triangle_graph6(n, bits)
        assert text == to_graph6(g)
        assert from_graph6(text) == g

    def test_every_class_up_to_order_seven(self):
        for n in range(1, 8):
            for bits in enumeration._class_bits(n):
                self._check(n, bits)

    def test_random_graphs_of_every_order(self):
        # every order up to 62 covers each value m mod 6 takes (0, 1, 3, 4),
        # so every padding width of the last 6-bit group
        rng = random.Random(6)
        for n in range(1, 63):
            for _ in range(3):
                self._check(n, rng.getrandbits(n * (n - 1) // 2))


class TestCorpus:
    def test_roundtrip(self, tmp_path):
        target = tmp_path / "five.g6"
        graphs = list(connected_graphs(5))
        target.write_text("".join(to_graph6(g) + "\n" for g in graphs))
        corpus = read_corpus(target)
        assert corpus == Corpus(tuple(graphs), ())

    def test_blank_lines_and_header_skipped(self, tmp_path):
        target = tmp_path / "messy.g6"
        target.write_text(">>graph6<<\n\nD~{\n   \nDhc\n")
        corpus = read_corpus(target)
        assert [g.n for g in corpus.graphs] == [5, 5]
        assert corpus.errors == ()

    def test_errors_carry_line_numbers(self, tmp_path):
        target = tmp_path / "bad.g6"
        target.write_text("D~{\nD~\nDhc\n")
        corpus = read_corpus(target)
        assert len(corpus.graphs) == 2
        assert len(corpus.errors) == 1
        assert corpus.errors[0].startswith("line 2:")

    def test_strict_raises(self, tmp_path):
        target = tmp_path / "bad.g6"
        target.write_text("D~{\nD~\n")
        with pytest.raises(Graph6Error, match="line 2"):
            read_corpus(target, strict=True)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_corpus(tmp_path / "absent.g6")
