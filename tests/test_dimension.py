"""Local and full metric dimension: constraint construction, bounds, exact
values, and agreement with the all-subsets definition."""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from conftest import (
    assert_hitting_set,
    naive_dimension,
    naive_distances,
    naive_hitting_set,
    naive_optima,
    random_connected,
    stream_upto,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import locdim.graphs
import locdim.kernels
from locdim import _pure
from locdim.dimension import (
    LowerBounds,
    _chunk_masks,
    _distinguisher_masks,
    _value,
    distinguisher_sets,
    is_local_resolving,
    is_resolving,
    local_metric_dimension,
    lower_bounds,
    metric_dimension,
)
from locdim.enumeration import connected_graphs
from locdim.families import (
    apex_triangles,
    complete,
    complete_minus_bipartite,
    cycle,
    gamma1,
    path,
    upsilon,
)
from locdim.graphs import DisconnectedError, Graph, bfs_distances, build

STAR = build(4, [(0, 1), (0, 2), (0, 3)])


@st.composite
def connected(draw: st.DrawFn, min_n: int = 2, max_n: int = 8) -> Graph:
    """Random spanning tree plus extra edges, so always connected."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if (extra >> pos) & 1:
                edges.add((i, j))
            pos += 1
    return build(n, sorted(edges))


class TestConstraints:
    def test_cycle_edge_distinguishers(self):
        system = distinguisher_sets(cycle(5))
        by_pair = {c.pair: c.mask for c in system.constraints}
        # vertex 3 is equidistant from 0 and 1; everyone else splits them
        assert by_pair[(0, 1)] == 0b10111

    def test_local_counts_edges(self):
        g = gamma1()
        system = distinguisher_sets(g)
        assert system.mode == "local"
        assert len(system.constraints) == g.m

    def test_full_counts_pairs(self):
        g = gamma1()
        system = distinguisher_sets(g, mode="full")
        assert len(system.constraints) == g.n * (g.n - 1) // 2

    def test_endpoints_belong_to_own_set(self):
        for g in (cycle(6), gamma1(), STAR):
            for c in distinguisher_sets(g, mode="full").constraints:
                u, v = c.pair
                assert (c.mask >> u) & 1 and (c.mask >> v) & 1

    def test_twin_pair_sets_are_exactly_the_pair(self):
        for c in distinguisher_sets(complete(4)).constraints:
            u, v = c.pair
            assert c.mask == (1 << u) | (1 << v)

    def test_bipartite_edges_are_split_by_everyone(self):
        # adjacent vertices in a bipartite graph have different distance
        # parity from any vertex, so every distinguisher set is everything
        for g in (path(4), cycle(6)):
            full = (1 << g.n) - 1
            assert all(c.mask == full for c in distinguisher_sets(g).constraints)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            distinguisher_sets(cycle(5), mode="global")

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            distinguisher_sets(build(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("mode", ["local", "full"])
    def test_value_and_sets_reject_disconnected(self, mode):
        # two components: the distances between them are undefined
        g = build(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedError):
            distinguisher_sets(g, mode=mode)
        with pytest.raises(DisconnectedError):
            _value(g, mode)

    def test_value_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            _value(cycle(5), "global")


def _oracle_constraints(g: Graph, mode: str) -> list[tuple[tuple[int, int], int]]:
    """(pair, distinguisher mask) from the test's own queue BFS, pairs u
    ascending then v > u ascending, edges only in local mode."""
    dist = naive_distances(g.n, g.edges())
    pairs = g.edges() if mode == "local" else itertools.combinations(range(g.n), 2)
    return [
        ((u, v), sum(1 << w for w in range(g.n) if dist[w][u] != dist[w][v]))
        for u, v in pairs
    ]


class TestDistanceLayerMasks:
    """The solve's masks from distance layers, and the public constraint
    system built on them, against masks from a plain queue BFS."""

    @staticmethod
    def _assert_matches_oracle(g: Graph, mode: str) -> None:
        expected = _oracle_constraints(g, mode)
        assert _distinguisher_masks(g, mode) == [mask for _, mask in expected]
        constraints = distinguisher_sets(g, mode=mode).constraints
        assert [(c.pair, c.mask) for c in constraints] == expected

    @pytest.mark.parametrize("mode", ["local", "full"])
    def test_every_class_up_to_order_seven(self, mode):
        for g in stream_upto(7):
            self._assert_matches_oracle(g, mode)

    @pytest.mark.parametrize("mode", ["local", "full"])
    def test_random_graphs_up_to_order_forty(self, mode):
        rng = random.Random(40)
        for n in (2, 3, 9, 16, 25, 33, 40):
            for p in (0.08, 0.2, 0.5, 0.9):
                self._assert_matches_oracle(random_connected(rng, n, p), mode)

    @pytest.mark.parametrize("mode", ["local", "full"])
    def test_masks_share_no_walk_with_bfs_distances(self, monkeypatch, mode):
        """bfs_distances feeds is_local_resolving, the definition-level
        oracle the solver is checked against, so the solver's masks must
        not come from the same layer walk: with graphs._layers broken,
        the masks still match the queue-BFS oracle while bfs_distances
        fails."""

        hosts = [*stream_upto(6), gamma1(), upsilon(3), apex_triangles(3)]

        def broken(adj, seed):
            raise AssertionError("graphs._layers called")

        monkeypatch.setattr(locdim.graphs, "_layers", broken)
        expected = [[m for _, m in _oracle_constraints(g, mode)] for g in hosts]
        assert [_distinguisher_masks(g, mode) for g in hosts] == expected
        # the chunk builder too, over the whole mixed-order host list
        assert _chunk_masks(hosts, mode) == expected
        disconnected = build(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedError):
            _distinguisher_masks(disconnected, mode)
        with pytest.raises(DisconnectedError):
            _chunk_masks([cycle(5), disconnected], mode)
        with pytest.raises(AssertionError, match="_layers"):
            bfs_distances(cycle(5))


@functools.lru_cache(maxsize=None)
def _classes(n: int) -> tuple[Graph, ...]:
    return tuple(connected_graphs(n))


@functools.lru_cache(maxsize=None)
def _walked(n: int, mode: str) -> list[list[int]]:
    """The one-graph walk's masks of every class of order n."""
    return [_distinguisher_masks(g, mode) for g in _classes(n)]


DISCONNECTED = "^distances undefined: graph is disconnected$"


class TestChunkMasks:
    """The bit-sliced chunk builder against the one-graph walk: same masks
    in the same order, and the same errors."""

    @pytest.mark.parametrize("mode", ["local", "full"])
    @pytest.mark.parametrize("size", [2, 256, None], ids=["2", "256", "order"])
    def test_every_class_up_to_order_eight(self, mode, size):
        for n in range(1, 9):
            graphs = _classes(n)
            step = size or len(graphs)
            built = []
            for i in range(0, len(graphs), step):
                built += _chunk_masks(graphs[i : i + step], mode)
            assert built == _walked(n, mode), n

    @pytest.mark.parametrize("mode", ["local", "full"])
    def test_mixed_orders_at_every_field_width(self, mode):
        # a graph's order sets its field width, 8, 16, 32 or 64 bits, and
        # each width gets its own walk: each top sits at one end of one of
        # those ranges, and the smaller graphs fall in the widths below it
        rng = random.Random(62)
        for top in (2, 8, 9, 16, 17, 32, 33, 62):
            graphs = [random_connected(rng, top, rng.uniform(0.05, 0.9))]
            graphs += [
                random_connected(rng, rng.randint(1, top), rng.uniform(0.05, 0.9))
                for _ in range(11)
            ]
            rng.shuffle(graphs)
            assert max(g.n for g in graphs) == top
            expected = [_distinguisher_masks(g, mode) for g in graphs]
            assert _chunk_masks(graphs, mode) == expected, top

    @pytest.mark.parametrize("mode", ["local", "full"])
    @pytest.mark.parametrize("position", [0, 7, 20])
    @pytest.mark.parametrize(
        "disconnected",
        [
            build(4, [(0, 1), (2, 3)]),
            build(2, []),
            build(40, [(0, 1), *((v, v + 1) for v in range(2, 39))]),
        ],
        ids=["order4", "order2", "order40"],
    )
    def test_a_disconnected_graph_anywhere_raises(self, mode, position, disconnected):
        graphs = list(_classes(5))
        graphs.insert(position, disconnected)
        with pytest.raises(DisconnectedError, match=DISCONNECTED):
            _chunk_masks(graphs, mode)

    def test_unknown_mode_raises_before_any_walk(self):
        # a walk would raise DisconnectedError first
        graphs = [build(4, [(0, 1), (2, 3)]), cycle(5)]
        text = r"^mode must be one of \('local', 'full'\), got 'global'$"
        with pytest.raises(ValueError, match=text):
            _chunk_masks(graphs, "global")
        assert _chunk_masks([], "local") == []


class TestBounds:
    def test_complete_graph_records(self):
        b = lower_bounds(complete(8))
        assert (b.twin, b.log_clique, b.gap_raw) == (7, 3, 7)
        assert b.gap == 7
        assert b.best == 7

    def test_cycle_records(self):
        b = lower_bounds(cycle(5))
        assert (b.twin, b.log_clique, b.gap_raw) == (0, 1, -3)
        assert b.gap == 0
        assert b.best == 1

    def test_gap_clamps(self):
        assert LowerBounds(0, 0, -17, 1).gap == 0
        assert LowerBounds(2, 3, -1, 5).best == 3
        # a positive gap passes through, and can be the best floor
        bounds = LowerBounds(twin=1, log_clique=3, gap_raw=4, omega=6)
        assert (bounds.gap, bounds.best) == (4, 4)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            lower_bounds(build(3, [(0, 1)]))


class TestResolvingPredicates:
    def test_cycle_examples(self):
        g = cycle(5)
        assert is_local_resolving(g, [0, 1])
        assert not is_local_resolving(g, [0])
        assert is_resolving(g, [0, 1])
        assert not is_resolving(g, [0])

    def test_star_examples(self):
        assert is_local_resolving(STAR, [1])
        assert not is_resolving(STAR, [1])
        assert is_resolving(STAR, [1, 2])

    def test_empty_set(self):
        assert not is_local_resolving(path(2), [])
        assert is_local_resolving(build(1, []), [])
        assert is_resolving(build(1, []), [])

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            is_local_resolving(cycle(5), [5])

    def test_hitting_set_view_matches_definition(self):
        # a set resolves iff it intersects every distinguisher set
        rng = random.Random(2024)
        for _ in range(250):
            g = random_connected(rng, rng.randint(2, 8))
            dm = bfs_distances(g)
            local = distinguisher_sets(g, "local").masks()
            full = distinguisher_sets(g, "full").masks()
            for _ in range(4):
                mask = rng.getrandbits(g.n)
                vertices = [v for v in range(g.n) if (mask >> v) & 1]
                assert is_local_resolving(g, vertices, dm) == all(
                    c & mask for c in local
                )
                assert is_resolving(g, vertices, dm) == all(c & mask for c in full)


class TestExactValues:
    def test_known_local_dimensions(self):
        assert local_metric_dimension(cycle(5)).value == 2
        assert local_metric_dimension(complete(6)).value == 5
        assert local_metric_dimension(path(5)).value == 1
        assert local_metric_dimension(STAR).value == 1
        assert local_metric_dimension(gamma1()).value == 2
        assert local_metric_dimension(complete_minus_bipartite(9, 4, 3)).value == 6

    def test_known_full_dimensions(self):
        assert metric_dimension(path(5)).value == 1
        assert metric_dimension(cycle(5)).value == 2
        assert metric_dimension(STAR).value == 2
        assert metric_dimension(complete(6)).value == 5

    def test_cycle_witness(self):
        result = local_metric_dimension(cycle(5))
        assert result.witness == (0, 1)
        assert result.bounds.best == 1

    def test_single_vertex(self):
        result = local_metric_dimension(build(1, []))
        assert result.value == 0
        assert result.witness == ()

    def test_two_vertices(self):
        assert local_metric_dimension(path(2)).value == 1
        assert metric_dimension(path(2)).witness == (0,)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            local_metric_dimension(build(2, []))
        with pytest.raises(DisconnectedError):
            metric_dimension(build(2, []))

    @pytest.mark.parametrize(
        "g", [cycle(5), path(4), complete(4), gamma1(), STAR], ids=lambda g: f"n{g.n}m{g.m}"
    )
    def test_matches_subset_search(self, g):
        local = local_metric_dimension(g)
        assert (local.value, local.witness) == naive_dimension(g, "local")
        full = metric_dimension(g)
        assert (full.value, full.witness) == naive_dimension(g, "full")

    def test_matches_subset_search_random(self):
        rng = random.Random(77)
        for _ in range(40):
            g = random_connected(rng, rng.randint(3, 7))
            result = local_metric_dimension(g)
            assert (result.value, result.witness) == naive_dimension(g, "local")


class TestHittingSetValidation:
    """Both backends, through conftest's impl fixture."""

    def test_empty_constraint_rejected(self, impl):
        with pytest.raises(ValueError):
            impl.min_hitting_set(4, [0b0101, 0], 0)

    def test_out_of_universe_bit_rejected(self, impl):
        with pytest.raises(ValueError):
            impl.min_hitting_set(3, [0b1000], 0)

    def test_oversized_universe_rejected(self, impl):
        with pytest.raises(ValueError):
            impl.min_hitting_set(63, [1], 0)

    def test_no_constraints(self, impl):
        assert impl.min_hitting_set(5, [], 0) == 0


def _masks(*sets: tuple[int, ...]) -> list[int]:
    return [sum(1 << v for v in elements) for elements in sets]


@pytest.fixture
def kernel(impl, monkeypatch):
    """Each backend in turn, also behind kernels.min_hitting_set and
    kernels.lex_min_hitting_set, so solves run on it."""
    monkeypatch.setattr(locdim.kernels, "min_hitting_set", impl.min_hitting_set)
    monkeypatch.setattr(locdim.kernels, "lex_min_hitting_set", impl.lex_min_hitting_set)
    return impl


class TestWitnessProbes:
    """Systems where the greedy cover is already optimal but is not the
    lexicographically smallest optimum, so the witness comes from the
    rebuild's probes alone. Both backends, through the kernel fixture."""

    def test_greedy_optimal_but_not_lex_smallest(self, kernel):
        # greedy takes 1 (two hits, ties to the smaller element), then 2;
        # the packing bound is 1, so the value search runs and finds no
        # single hitter
        masks = _masks((0, 1, 2), (1, 3), (2, 3))
        expected = (2, _masks((0, 3))[0])
        assert naive_hitting_set(4, masks) == expected
        found = kernel.min_hitting_set(4, masks, 0)
        assert_hitting_set(4, masks, found, expected[0])
        assert kernel.lex_min_hitting_set(4, masks, found) == expected[1]

    def test_lower_bound_at_the_value_skips_the_value_search(self, kernel):
        # greedy takes {3, 4, 5}, which meets lower_bound 3 (the packing
        # bound is 2), so no value search runs
        masks = _masks((1, 2, 4), (2, 3, 4), (1, 5), (3, 6), (4, 6), (5, 6))
        expected = (3, _masks((1, 2, 6))[0])
        assert naive_hitting_set(7, masks) == expected
        found = kernel.min_hitting_set(7, masks, 3)
        assert found == _masks((3, 4, 5))[0]
        assert_hitting_set(7, masks, found, expected[0])
        assert kernel.lex_min_hitting_set(7, masks, found) == expected[1]


class TestLexWitnessRebuild:
    """lex_min_hitting_set against subset search, from every optimum it can
    be handed, on both backends through the kernel fixture."""

    @staticmethod
    def _counting(monkeypatch) -> dict[str, int]:
        """Counters behind locdim.kernels: value calls of min_hitting_set,
        and the probes of each lex_min_hitting_set call, with those that
        accept an element. A compiled probe cannot be watched, so every
        rebuild is replayed on the pure kernel, whose _probe calls are
        counted; the replay must give the same witness, and both backends
        probe the same restricted systems in the same order."""
        tally = {"calls": 0, "probes": 0, "accepting": 0}
        value = locdim.kernels.min_hitting_set
        lex = locdim.kernels.lex_min_hitting_set
        probe = _pure._probe

        def counted_value(universe, masks, lower_bound=0):
            tally["calls"] += 1
            return value(universe, masks, lower_bound)

        def counted_probe(restricted, allowed, budget):
            rest = probe(restricted, allowed, budget)
            tally["probes"] += 1
            tally["accepting"] += rest != 0
            return rest

        def counted_lex(universe, masks, found):
            witness = lex(universe, masks, found)
            with monkeypatch.context() as patch:
                patch.setattr(_pure, "_probe", counted_probe)
                assert _pure.lex_min_hitting_set(universe, masks, found) == witness
            return witness

        monkeypatch.setattr(locdim.kernels, "min_hitting_set", counted_value)
        monkeypatch.setattr(locdim.kernels, "lex_min_hitting_set", counted_lex)
        return tally

    def test_every_optimum_rebuilds_the_lex_smallest(self, kernel, monkeypatch):
        """Whichever optimum arrives as `found`, the witness is the lex-
        smallest one. Handed that one, the rebuild takes each of its
        elements without a probe; what probes remain reject an element
        below the next one of it."""
        tally = self._counting(monkeypatch)
        rng = random.Random(0x1E8)
        for _ in range(300):
            universe = rng.randint(1, 8)
            masks = _random_system(rng, universe)
            optima = naive_optima(universe, masks)
            for found in optima:
                assert locdim.kernels.lex_min_hitting_set(universe, masks, found) == optima[0], (
                    masks,
                    found,
                )
            tally.update(probes=0, accepting=0)
            assert locdim.kernels.lex_min_hitting_set(universe, masks, optima[0]) == optima[0]
            assert tally["accepting"] == 0, (masks, tally)
            # a witness whose elements come first, lowest up, needs no
            # rejection either
            if optima[0] == (1 << optima[0].bit_count()) - 1:
                assert tally["probes"] == 0, (masks, tally)

    def test_every_optimum_on_the_word_top(self, kernel):
        """As above with each system moved to the top elements of a
        universe of 62 (within 55..61), so the scan first probes the unused
        elements below it, and the restricted systems use the word's top
        bit."""
        rng = random.Random(0x1E9)
        for _ in range(100):
            width = rng.randint(1, 7)
            offset = 62 - width
            narrow = _random_system(rng, width)
            masks = [c << offset for c in narrow]
            optima = [o << offset for o in naive_optima(width, narrow)]
            for found in optima:
                assert kernel.lex_min_hitting_set(62, masks, found) == optima[0], (masks, found)

    @pytest.mark.parametrize("offset", [0, 58], ids=["low", "top-of-word"])
    def test_budget_one_probe_is_one_and(self, kernel, monkeypatch, offset):
        """{0, 1} and {2, 3}, handed the optimum {1, 3}: the scan probes 0
        with budget 1, and the restricted system {2, 3} has the single
        hitter 2, so 0 is taken and the witness is {0, 2}. _least answers
        no budget-1 probe, since its root returns at once when a greedy
        cover of 2 is all it has to beat; a probe that ran it would
        reject 0, and the scan would end at {1, 2}."""
        masks = [c << offset for c in _masks((0, 1), (2, 3))]
        found = _masks((1, 3))[0] << offset
        expected = _masks((0, 2))[0] << offset
        universe = offset + 4
        assert naive_optima(4, _masks((0, 1), (2, 3)))[0] << offset == expected
        assert kernel.lex_min_hitting_set(universe, masks, found) == expected
        probes = []
        probe = _pure._probe

        def recorded(restricted, allowed, budget):
            rest = probe(restricted, allowed, budget)
            probes.append((sorted(restricted), budget, rest))
            return rest

        monkeypatch.setattr(_pure, "_probe", recorded)
        assert _pure.lex_min_hitting_set(universe, masks, found) == expected
        # the elements below the system are probed first, and rejected
        assert len(probes) == offset + 1
        assert all(not rest for _, _, rest in probes[:-1])
        assert probes[-1] == ([0b1100 << offset], 1, 0b100 << offset)

    def test_kernel_calls_over_order_six(self, kernel, monkeypatch):
        """local_metric_dimension over every connected order-6 class makes
        at most 132 value calls and rebuild probes together; probing every
        witness element took 256."""
        tally = self._counting(monkeypatch)
        graphs = list(connected_graphs(6))
        for g in graphs:
            local_metric_dimension(g)
        assert len(graphs) == 112
        assert tally["calls"] == 112
        assert tally["calls"] + tally["probes"] <= 132


def _random_system(rng: random.Random, universe: int) -> list[int]:
    """Random masks with duplicates, nested pairs and singletons mixed in."""
    masks: list[int] = []
    for _ in range(rng.randint(1, 24)):
        roll = rng.random()
        if masks and roll < 0.15:
            masks.append(rng.choice(masks))
        elif masks and roll < 0.35:
            masks.append(rng.choice(masks) | rng.getrandbits(universe))
        elif roll < 0.45:
            masks.append(1 << rng.randrange(universe))
        else:
            sparse = rng.getrandbits(universe) & rng.getrandbits(universe)
            masks.append(sparse or 1 << rng.randrange(universe))
    rng.shuffle(masks)
    return masks


def _greedy_trap(halves: tuple[int, int], decoys: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """30 constraints {half, decoy, filler} on the elements 0..35: each half
    lies in 15 of them, the decoys in 8, 4, 2 and 1 of each half's, and each
    constraint has a filler of its own, the other elements in ascending
    order. The greedy cover takes the four decoys; the optimum is the two
    halves."""
    fillers = [v for v in range(36) if v not in halves + decoys]
    return tuple(
        (halves[j // 15], decoys[(j % 15 >= 8) + (j % 15 >= 12) + (j % 15 >= 14)], filler)
        for j, filler in enumerate(fillers)
    )


def _one_and_level(rem, allowed, picked, found, floor):
    """The siblings tried by a search node entered with best == chosen + 3,
    each answered in the node, and the set the node returns. A sibling is
    (missed, common): the allowed parts of the constraints it misses and
    their AND within allowed. It gives picked and itself when it misses
    nothing, and picked, itself and the lowest element of common when that
    is not empty and best is still chosen + 3."""
    chosen = picked.bit_count()

    def packing(allowed: int) -> int:
        used = count = 0
        for c in rem:
            if not c & allowed & used:
                used |= c & allowed
                count += 1
        return count

    siblings = []
    if chosen + packing(allowed) >= found.bit_count():
        return siblings, found
    branch = rem[0]
    while branch:
        bit = branch & -branch
        missed = [c & allowed for c in rem if not c & bit]
        common = allowed
        for c in missed:
            common &= c
        siblings.append((missed, common))
        if not missed:
            found = picked | bit
        elif common and found.bit_count() == chosen + 3:
            found = picked | bit | (common & -common)
        branch ^= bit
        allowed ^= bit
        best = found.bit_count()
        if best <= floor or chosen + packing(allowed) >= best:
            break
    return siblings, found


class TestHittingSetOracle:
    """The kernel's set, under every valid lower bound the solver can be
    handed, and the lex-smallest witness rebuilt from each of them, against
    subset search. Each test runs both backends in turn."""

    @pytest.fixture
    def check(self, compiled):
        def run(universe: int, masks: list[int]) -> None:
            size, witness = naive_hitting_set(universe, masks)
            for kernel in (_pure, compiled):
                for lb in sorted({0, 1, size}):
                    found = kernel.min_hitting_set(universe, masks, lb)
                    assert_hitting_set(universe, masks, found, size, (kernel.__name__, lb))
                    assert kernel.lex_min_hitting_set(universe, masks, found) == witness, (
                        kernel.__name__,
                        universe,
                        masks,
                        lb,
                    )

        return run

    def test_random_systems(self, check):
        rng = random.Random(0x4177)
        for _ in range(300):
            universe = rng.randint(1, 14)
            check(universe, _random_system(rng, universe))

    @pytest.mark.parametrize("mode", ["local", "full"])
    @pytest.mark.parametrize(
        "g",
        [complete_minus_bipartite(12, 5, 4), upsilon(0), upsilon(7), apex_triangles(4)],
        ids=["K12-K5,4", "upsilon0", "upsilon7", "apex4"],
    )
    def test_family_systems(self, check, g, mode):
        check(g.n, list(distinguisher_sets(g, mode=mode).masks()))

    @pytest.mark.parametrize("offset", [0, 55], ids=["low", "top-of-word"])
    @pytest.mark.parametrize(
        "sets",
        [
            # the root's second sibling runs with 0 excluded, so its child
            # holds {0, 4} cut to {4}: a forced branch
            ((0, 2), (0, 4), (1, 4), (2, 3)),
            # the root's third sibling runs with 0 and 1 excluded, so its
            # child holds {0, 5, 6} and {1, 5, 6} both cut to {5, 6}
            ((0, 1, 2), (0, 3, 6), (0, 5, 6), (1, 5, 6), (2, 3, 4)),
            # the Fano plane: value 3, packing bound 1; once 0 is excluded,
            # the lines through 0 are three disjoint pairs and the packing
            # bound of what the root keeps ends its siblings
            ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)),
        ],
        ids=["unit-by-exclusion", "duplicates-by-exclusion", "packing-by-exclusion"],
    )
    def test_exclusion_edge_systems(self, check, sets, offset):
        """Systems where the excluded elements cut the constraints the
        search reads; offset 55 moves them to the word's top bits."""
        check(offset + 7, _masks(*[tuple(v + offset for v in s) for s in sets]))

    @pytest.mark.parametrize("top", [False, True], ids=["low", "top-of-word"])
    @pytest.mark.parametrize(
        ("sets", "lower_bound", "case"),
        [
            # the path 0-3-1-4-2: greedy takes {0, 1, 2}; at the root's
            # sibling 3, {1, 4} and {2, 4} share only 4, not the lowest
            # element 1 of the first of them
            (((0, 3), (1, 3), (1, 4), (2, 4)), 0, "not-lowest"),
            # the Fano plane: at the root's first sibling, 0, the four
            # lines that miss 0 meet pairwise but share no point
            (
                ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)),
                0,
                "no-common",
            ),
            # packing bound 1 and value 2: the floor 2 comes from
            # lower_bound, and the AND at the root's sibling 2 meets it
            (((0, 1, 2), (2, 3, 5), (0, 4, 6), (1, 4, 6)), 2, "at-floor"),
            # greedy takes the four decoys; below the root's first sibling,
            # the half 0, the decoy 14 gives a set of three, and then the
            # other half 19 misses no constraint
            (_greedy_trap((0, 19), (14, 21, 22, 17)), 0, "nothing-left"),
        ],
        ids=["not-lowest", "no-common", "at-floor", "nothing-left"],
    )
    def test_one_and_exit_systems(
        self, check, compiled, monkeypatch, sets, lower_bound, case, top
    ):
        """Systems whose search answers a node's siblings at
        chosen + 3 >= best in the node, with one AND of the constraints
        each sibling misses, instead of building a child; top moves them to
        the word's top bits. The pure search is watched node by node: at
        every node entered with best == chosen + 3, the test recomputes the
        siblings it tries and the set it returns, and shows the named case
        among them. Both backends return the same mask at every floor."""
        universe = 1 + max(max(s) for s in sets)
        offset = 62 - universe if top else 0
        universe += offset
        masks = _masks(*[tuple(v + offset for v in s) for s in sets])
        tried = []
        original = _pure._least

        def watched(rem, allowed, picked, found, floor):
            result = original(rem, allowed, picked, found, floor)
            if rem and floor < found.bit_count() == picked.bit_count() + 3:
                siblings, answer = _one_and_level(rem, allowed, picked, found, floor)
                assert result == answer, (rem, allowed, picked, found, floor)
                tried.extend((picked.bit_count(), floor) + s for s in siblings)
            return result

        with monkeypatch.context() as patch:
            patch.setattr(_pure, "_least", watched)
            _pure.min_hitting_set(universe, masks, lower_bound)
        if case == "not-lowest":
            assert any(
                missed
                and common
                and common & -common != (low := min(missed, key=int.bit_count)) & -low
                for _, _, missed, common in tried
            ), tried
        elif case == "no-common":
            assert any(
                missed and not common and all(c & d for c in missed for d in missed)
                for _, _, missed, common in tried
            ), tried
        elif case == "at-floor":
            assert any(
                missed and common and chosen + 2 == floor == lower_bound
                for chosen, floor, missed, common in tried
            ), tried
        else:
            assert any(not missed for _, _, missed, _ in tried), tried
        check(universe, masks)
        size = naive_hitting_set(universe, masks)[0]
        for lb in sorted({0, 1, lower_bound, size}):
            assert _pure.min_hitting_set(universe, masks, lb) == compiled.min_hitting_set(
                universe, masks, lb
            ), lb


def test_value_ignores_order_duplicates_and_supersets(impl):
    """Permuting the constraints, repeating some or adding supersets of
    them leaves the value alone, and every set returned is a hitting set
    within the universe; both backends."""
    rng = random.Random(0x5E75)
    systems = [
        (universe, _random_system(rng, universe))
        for universe in (rng.randint(1, 14) for _ in range(200))
    ]
    systems += [
        (g.n, list(distinguisher_sets(g, mode="local").masks()))
        for g in (random_connected(rng, 20, p) for p in (0.6, 0.9))
    ]
    for universe, masks in systems:
        found = impl.min_hitting_set(universe, masks, 0)
        size = found.bit_count()
        # the two graph systems are past subset search
        if universe <= 14:
            assert_hitting_set(universe, masks, found, naive_hitting_set(universe, masks)[0])
        extra = rng.randint(1, len(masks))
        shuffled = rng.sample(masks, len(masks))
        doubled = masks + rng.choices(masks, k=extra)
        wider = masks + [c | rng.getrandbits(universe) for c in rng.choices(masks, k=extra)]
        mixed = rng.sample(doubled + wider, len(doubled + wider))
        for variant in (shuffled, doubled, wider, mixed):
            found = impl.min_hitting_set(universe, variant, 0)
            assert_hitting_set(universe, variant, found, size, (masks,))


class TestPureSearch:
    """The pure value search, node by node, through a wrapper around
    _pure._least, which the search reaches by its module name."""

    def test_every_node_reads_sorted_constraints_within_allowed(self, monkeypatch):
        """No node gets an empty constraint, or one outside its allowed
        mask, and each node's constraints come in size order. The search
        leans on this: rem[0] is a smallest constraint, so no other one
        runs out of allowed elements before rem[0] does."""
        nodes = 0
        original = _pure._least

        def checked(rem, allowed, picked, found, floor):
            nonlocal nodes
            nodes += 1
            assert all(c and not c & ~allowed for c in rem), (rem, allowed)
            sizes = [c.bit_count() for c in rem]
            assert sizes == sorted(sizes), rem
            # no constraint left to hit holds a chosen element, and a node
            # with nothing left to hit improves on the best set, so it may
            # return picked without comparing
            assert not any(c & picked for c in rem), (rem, picked)
            if not rem:
                assert picked.bit_count() < found.bit_count(), (picked, found)
            return original(rem, allowed, picked, found, floor)

        monkeypatch.setattr(_pure, "_least", checked)
        rng = random.Random(0xA110)
        for _ in range(300):
            universe = rng.randint(1, 14)
            _pure.min_hitting_set(universe, _random_system(rng, universe), 0)
        g = random_connected(rng, 24, 0.9)
        _pure.min_hitting_set(g.n, _distinguisher_masks(g, "local"), lower_bounds(g).best)
        assert nodes > 500

    @staticmethod
    def _count_nodes(monkeypatch, n, p, floor):
        """The hitting set the value search returns on the local system of
        a fixed random graph, and the number of nodes it visits."""
        nodes = 0
        original = _pure._least

        def counted(*args):
            nonlocal nodes
            nodes += 1
            return original(*args)

        monkeypatch.setattr(_pure, "_least", counted)
        g = random_connected(random.Random(0), n, p)
        masks = _distinguisher_masks(g, "local")
        found = _pure.min_hitting_set(g.n, masks, floor(g))
        return found, nodes

    @pytest.mark.parametrize(
        ("n", "p", "value", "ceiling"),
        [(24, 0.9, 9, 630), (28, 0.6, 5, 80)],
    )
    def test_node_count_ceiling(self, monkeypatch, n, p, value, ceiling):
        """The value search on two fixed dense local systems, from the
        checked floors, visits at most the nodes it does now. A node is a
        call of _least; the siblings a node answers itself with one AND, at
        chosen + 3 >= best, are not nodes. A weaker bound or a lost unit
        propagation shows here as more nodes before it shows as more time."""
        found, nodes = self._count_nodes(monkeypatch, n, p, lambda g: lower_bounds(g).best)
        assert found.bit_count() == value
        assert nodes <= ceiling

    @pytest.mark.parametrize(
        ("n", "p", "value", "ceiling"),
        [(24, 0.9, 9, 630), (28, 0.6, 5, 80)],
    )
    def test_node_count_ceiling_without_floor(self, monkeypatch, n, p, value, ceiling):
        """The same two systems with no floor, as the solver runs them,
        visit at most the nodes they do now. A node is a call of _least,
        and the level a node answers in itself, with one AND per sibling,
        builds none; a lost answer shows here as more nodes before it
        shows as more time."""
        found, nodes = self._count_nodes(monkeypatch, n, p, lambda g: 0)
        assert found.bit_count() == value
        assert nodes <= ceiling


def _covering_milp(n, rows, lower=0, upper=1, extra=()):
    """Minimize the number of chosen vertices subject to hitting every row,
    per-vertex bounds, and extra (coefficients, lb, ub) rows."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    a = np.zeros((len(rows), n))
    for i, ws in enumerate(rows):
        a[i, ws] = 1.0
    constraints = [LinearConstraint(a, lb=1.0, ub=np.inf)]
    for coeffs, lb, ub in extra:
        constraints.append(LinearConstraint(np.array([coeffs], dtype=float), lb, ub))
    return milp(
        c=np.ones(n),
        constraints=constraints,
        integrality=np.ones(n),
        bounds=Bounds(lower, upper),
    )


class TestDenseIlpOracle:
    """Dense graphs beyond subset search, checked against the covering ILP
    of Chartrand, Eroh, Johnson and Oellermann (2000), restricted to edges
    for the local version (Okamoto et al., 2010). SciPy is a test oracle
    only."""

    @pytest.mark.parametrize("n", [24, 28])
    @pytest.mark.parametrize("p", [0.6, 0.9])
    def test_value_and_lex_smallest_witness(self, n, p):
        pytest.importorskip("scipy")
        g = random_connected(random.Random(f"dense:{n}:{p}"), n, p)
        edges = g.edges()
        dist = naive_distances(n, edges)

        def rows(pairs):
            return [[w for w in range(n) if dist[w][u] != dist[w][v]] for u, v in pairs]

        local_rows = rows(edges)
        full_rows = rows([(u, v) for u in range(n) for v in range(u + 1, n)])
        full = metric_dimension(g)
        assert full.value == round(_covering_milp(n, full_rows).fun)
        assert all(set(r) & set(full.witness) for r in full_rows)
        local = local_metric_dimension(g)
        k = local.value
        assert k == round(_covering_milp(n, local_rows).fun)
        assert all(set(r) & set(local.witness) for r in local_rows)

        # no hitting set of size k is lexicographically smaller: for each
        # position i, keep w_1..w_{i-1}, forbid every other vertex below
        # w_{i-1}, and demand one vertex strictly between w_{i-1} and w_i
        w = local.witness
        assert len(w) == k and list(w) == sorted(w)
        for i in range(k):
            prev = w[i - 1] if i else -1
            if w[i] == prev + 1:
                continue
            lower = [1 if u in w[:i] else 0 for u in range(n)]
            upper = [1 if u in w[:i] or u > prev else 0 for u in range(n)]
            between = [1 if prev < u < w[i] else 0 for u in range(n)]
            res = _covering_milp(
                n,
                local_rows,
                lower,
                upper,
                extra=[(between, 1, float("inf")), ([1] * n, 0, k)],
            )
            assert res.status == 2, (w, i, res.message)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(connected())
    def test_local_at_most_full(self, g: Graph):
        local = local_metric_dimension(g)
        full = metric_dimension(g)
        assert local.value <= full.value
        assert is_local_resolving(g, local.witness)
        assert is_resolving(g, full.witness)
        assert len(local.witness) == local.value

    @settings(max_examples=150, deadline=None)
    @given(connected(), st.randoms(use_true_random=False))
    def test_value_is_relabel_invariant(self, g: Graph, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert (
            local_metric_dimension(g.relabel(perm)).value
            == local_metric_dimension(g).value
        )

    @settings(max_examples=150, deadline=None)
    @given(connected())
    def test_value_respects_floors(self, g: Graph):
        result = local_metric_dimension(g)
        assert result.value >= result.bounds.best
