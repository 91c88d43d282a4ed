"""Named constructors and the family spec grammar."""

from __future__ import annotations

import re

import pytest

from locdim.families import (
    _ATTACHMENTS,
    FamilySpec,
    apex_triangles,
    complete,
    complete_minus_bipartite,
    cycle,
    from_spec,
    gamma1,
    gamma2,
    lambda_graph,
    parse_spec,
    path,
    upsilon,
)
from locdim.graphs import is_connected
from locdim.invariants import twin_partition


class TestConstructors:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_complete_edge_count(self, n):
        assert complete(n).m == n * (n - 1) // 2

    def test_cycle_and_path(self):
        assert cycle(6).m == 6
        assert path(6).m == 5
        assert path(1).m == 0
        assert complete(3) == cycle(3)

    @pytest.mark.parametrize("fn, bad", [(complete, 0), (cycle, 2), (path, 0)])
    def test_basic_domains(self, fn, bad):
        with pytest.raises(ValueError):
            fn(bad)

    def test_complete_minus_bipartite_shape(self):
        g = complete_minus_bipartite(9, 4, 3)
        assert g.n == 9
        assert g.m == 9 * 8 // 2 - 4 * 3
        # no edges between the blocks, all edges inside and to the rest
        for u in range(4):
            for v in range(4, 7):
                assert not g.has_edge(u, v)
        assert g.has_edge(0, 1) and g.has_edge(4, 5) and g.has_edge(0, 8)
        assert is_connected(g)

    @pytest.mark.parametrize(
        "n, lam, mu",
        [(5, 0, 1), (5, 1, 2), (5, 2, 3), (9, 8, 1), (2, 1, 1)],
    )
    def test_complete_minus_bipartite_domain(self, n, lam, mu):
        with pytest.raises(ValueError):
            complete_minus_bipartite(n, lam, mu)

    def test_gamma_pair(self):
        g1, g2 = gamma1(), gamma2()
        assert (g1.n, g1.m) == (6, 10)
        assert (g2.n, g2.m) == (6, 11)
        assert not g1.has_edge(4, 5)
        assert g2.has_edge(4, 5)
        assert g2 == g1.with_edges([(4, 5)])

    def test_attachment_subsets_cover_everything(self):
        assert len(set(_ATTACHMENTS)) == 8
        assert {frozenset(s) for s in _ATTACHMENTS} == {
            frozenset(s)
            for s in [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        }

    def test_upsilon_shape(self):
        g = upsilon(0)
        assert g.n == 11
        assert g.m == 40
        # clique vertices: 7 clique edges plus their attachment subset
        for i in range(8):
            assert g.degree(i) == 7 + len(_ATTACHMENTS[i])
        for a in (8, 9, 10):
            assert g.degree(a) == 4

    def test_upsilon_masks_add_attachment_edges(self):
        assert upsilon(0) == lambda_graph()
        assert upsilon(7).m == 43
        assert upsilon(1).has_edge(8, 9)
        assert not upsilon(1).has_edge(8, 10)
        assert upsilon(4).has_edge(9, 10)
        assert len({upsilon(mask).adj for mask in range(8)}) == 8

    @pytest.mark.parametrize("mask", [-1, 8])
    def test_upsilon_mask_domain(self, mask):
        with pytest.raises(ValueError):
            upsilon(mask)

    def test_apex_shape(self):
        g = apex_triangles(3)
        assert g.n == 10
        assert g.m == 3 * 3 + 9
        apex = g.n - 1
        assert g.degree(apex) == 9
        assert g.has_edge(0, 1) and g.has_edge(3, 4) and not g.has_edge(2, 3)

    def test_apex_twin_structure(self):
        # each triangle is one true-twin class, the apex its own
        tp = twin_partition(apex_triangles(4))
        assert tp.sizes() == (3, 3, 3, 3, 1)

    @pytest.mark.parametrize("count", [0, 1])
    def test_apex_domain(self, count):
        with pytest.raises(ValueError):
            apex_triangles(count)


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text, name, params",
        [
            ("k5", "kn", (5,)),
            ("c12", "cn", (12,)),
            ("p3", "pn", (3,)),
            ("kn(5)", "kn", (5,)),
            ("knm(9,4,3)", "knm", (9, 4, 3)),
            ("gamma1", "gamma1", ()),
            ("gamma2", "gamma2", ()),
            ("lambda", "lambda", ()),
            ("upsilon(3)", "upsilon", (3,)),
            ("apex(4)", "apex", (4,)),
            ("  c5 ", "cn", (5,)),
        ],
    )
    def test_parse(self, text, name, params):
        assert parse_spec(text) == FamilySpec(name, params)

    def test_shorthand_builds_the_same_graph(self):
        assert from_spec("k5") == from_spec("kn(5)") == complete(5)
        assert from_spec("lambda") == upsilon(0)

    @pytest.mark.parametrize(
        "text",
        ["", "q5", "K5", "kn()", "kn(2,3)", "knm(9,4)", "zeta(3)", "kn (5)", "apex"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_spec(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("gamma1(3)", "unknown family 'gamma1' in spec 'gamma1(3)'"),
            ("zeta(3)", "unknown family 'zeta' in spec 'zeta(3)'"),
            ("apex", "cannot parse family spec 'apex'"),
            ("kn()", "cannot parse family spec 'kn()'"),
            ("kn(2,3)", "family 'kn' takes 1 parameter(s), got 2"),
            ("knm(9,4)", "family 'knm' takes 3 parameter(s), got 2"),
        ],
    )
    def test_rejection_messages(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_spec(text)

    def test_constructor_errors_propagate(self):
        with pytest.raises(ValueError, match="cycle"):
            from_spec("c2")
        with pytest.raises(ValueError, match="triangles"):
            from_spec("apex(1)")

    def test_building_is_deterministic(self):
        assert from_spec("upsilon(5)") == from_spec("upsilon(5)")
        assert from_spec("knm(8,3,2)").edges() == from_spec("knm(8,3,2)").edges()
