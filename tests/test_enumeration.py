"""Canonical forms and the exhaustive connected-graph streams.

The stream counts are cross-checked two ways: against the published
sequence of connected graph classes per order, and against an independent
recount that canonicalizes every labeled connected graph directly.
"""

from __future__ import annotations

import random

import pytest

from conftest import complete_multipartite, naive_canonical_bits, twin_rich_graphs

from locdim import _pure
from locdim.enumeration import (
    CANONICAL_MAX_VERTICES,
    CONNECTED_CLASS_COUNTS,
    CanonicalKey,
    Corpus,
    canonical_form,
    canonical_graph6,
    canonical_key,
    connected_class_bits_by_filter,
    connected_class_count_by_filter,
    connected_graphs,
    read_corpus,
)
from locdim.families import complete, cycle, path
from locdim.graphs import (
    Graph6Error,
    build,
    graph_from_triangle_bits,
    is_connected,
    to_graph6,
    triangle_bits,
)


class TestCanonical:
    def test_key_orders_by_n_first(self):
        assert canonical_key(path(2)) < canonical_key(path(3))
        assert CanonicalKey(3, 7) < CanonicalKey(4, 0)

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
            canonical_key(complete(9))


class TestCanonicalOracle:
    """The pure kernel against the n! oracle, which shares none of its
    pruning: twin classes, degree order and the prefix cut."""

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

    @pytest.mark.parametrize("n", [0, 8])
    def test_stream_domain(self, n):
        with pytest.raises(ValueError):
            list(connected_graphs(n))

    def test_recount_domain(self):
        with pytest.raises(ValueError):
            connected_class_count_by_filter(7)


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
