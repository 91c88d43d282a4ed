"""Planted faults: each check (C1..C11) must report the fault it exists to
catch.

A plant corrupts one input of the checks over the order-7 stream: a floor
one too high, the clique number off by one, the bipartite or gamma-free
flag flipped, or the local dimension moved by one on a family whose value
the paper pins. The suite then runs as usual, and each check's violation
count is compared with the number of graphs on which the fault is visible
to it. Every check is tripped by some plant, so none of them is vacuous.
"""

from __future__ import annotations

import pytest

from locdim import verify
from locdim.enumeration import connected_graphs
from locdim.verify import CHECK_IDS, GraphFacts, run_suite


def _reported(monkeypatch, install) -> dict[str, set[str]]:
    """Graph ids each check reports over the order-7 stream, with the fault
    `install(monkeypatch)` planted."""
    install(monkeypatch)
    reported: dict[str, set[str]] = {}
    for graph_id, cid, _ in run_suite(connected_graphs(7)).violations:
        reported.setdefault(cid, set()).add(graph_id)
    return reported


def _on_facts(mutate):
    """A plant that rewrites each graph's facts once they are computed;
    mutate changes them in place. Planted where every chunk's facts are
    assembled, so GraphFacts(g), the one-graph chunk, sees it too."""

    def install(monkeypatch):
        real = verify._chunk_facts

        def planted(graphs):
            chunk = real(graphs)
            for facts in chunk:
                mutate(facts)
            return chunk

        monkeypatch.setattr(verify, "_chunk_facts", planted)

    return install


def _bounds_off(field, delta):
    """The floors report `field` off by delta: a floor too high, or a
    wrong clique number, which the facts read off it (complete,
    triangle-free) inherit. Planted where the suite's floors come from
    (verify._floors), so a value search that trusted them would be misled
    too."""

    def install(monkeypatch):
        real = verify._floors

        def planted(g):
            bounds = real(g)
            return bounds._replace(**{field: getattr(bounds, field) + delta})

        monkeypatch.setattr(verify, "_floors", planted)

    return install


def _flip(field, premise=lambda f: True):
    def mutate(f):
        if premise(f):
            setattr(f, field, not getattr(f, field))

    return _on_facts(mutate)


def _shift_dim(premise, delta):
    def mutate(f):
        if premise(f):
            f.dim_local += delta

    return _on_facts(mutate)


# plant -> violations per check over the 853 order-7 classes. Where a check
# pins the value exactly on the planted family, it reports every member.
PLANTS = {
    # the floors one too high: reported wherever the true value sits on the
    # true floor (see test_raised_floor_is_reported_wherever_it_exceeds_the_value)
    "log floor + 1": (_bounds_off("log_clique", +1), {"C4": 565}),
    "gap floor + 1": (_bounds_off("gap_raw", +1), {"C4": 12}),
    "twin floor + 1": (_bounds_off("twin", +1), {"C5": 31}),
    "omega - 1": (
        _bounds_off("omega", -1),
        {"C1": 1, "C2": 6, "C6": 3, "C7": 36, "C8": 6, "C9": 41, "C10": 5, "C11": 1},
    ),
    "omega + 1": (
        _bounds_off("omega", +1),
        {"C1": 6, "C2": 50, "C8": 92, "C9": 238, "C10": 243},
    ),
    # every graph: dim_local = 1 iff bipartite
    "bipartite flipped": (_flip("bipartite"), {"C3": 853}),
    # the 45 graphs with omega = n-2, the only ones whose checks read it;
    # 3 of them are clique-minus-biclique members, classified either way
    "gamma_free flipped": (
        _flip("gamma_free", lambda f: f.omega == f.n - 2),
        {"C9": 42, "C10": 45},
    ),
    # K7: dim_local = n-1
    "complete: dim + 1": (_shift_dim(lambda f: f.is_complete, +1), {"C1": 1, "C8": 1}),
    # the 5 graphs with omega = n-1: dim_local = n-2
    "omega = n-1: dim + 1": (
        _shift_dim(lambda f: f.omega == f.n - 1, +1),
        {"C1": 5, "C2": 5, "C8": 5, "C11": 5},
    ),
    # the 44 bipartite graphs: dim_local = 1
    "bipartite: dim + 1": (_shift_dim(lambda f: f.bipartite, +1), {"C3": 44}),
    # 5*dim_local <= 2n is tight on 15 of the 59 triangle-free graphs
    "triangle-free: dim + 1": (
        _shift_dim(lambda f: f.triangle_free, +1),
        {"C3": 44, "C6": 15},
    ),
    # the 40 classified dim_local = n-3 graphs
    "classified n-3: dim - 1": (
        _shift_dim(lambda f: f.classified_n_minus_3, -1),
        {"C5": 4, "C7": 1, "C9": 40, "C10": 39},
    ),
    "classified n-3: dim + 1": (
        _shift_dim(lambda f: f.classified_n_minus_3, +1),
        {"C2": 40, "C7": 1, "C8": 40, "C9": 40, "C10": 39, "C11": 1},
    ),
    # every graph: C7 reports each one it applies to, and C9 all but the 39
    # gamma-free graphs with omega = n-2, classified either way
    "extremal flag flipped": (_flip("is_split_extremal"), {"C7": 802, "C9": 814}),
}


@pytest.mark.parametrize("name", PLANTS)
def test_plant_is_reported(monkeypatch, name):
    install, expected = PLANTS[name]
    reported = _reported(monkeypatch, install)
    assert {cid: len(ids) for cid, ids in reported.items()} == expected


def test_every_check_is_tripped_by_some_plant():
    tripped = {cid for _, expected in PLANTS.values() for cid in expected}
    assert tripped == set(CHECK_IDS)


@pytest.mark.parametrize(
    "field, check, count", [("log_clique", "C4", 565), ("twin", "C5", 31)]
)
def test_raised_floor_is_reported_wherever_it_exceeds_the_value(
    monkeypatch, field, check, count
):
    # the graphs whose true value equals the true floor; the value is solved
    # without the floors, so a raised floor cannot pull it up to hide itself
    on_floor = {
        f.graph_id
        for f in map(GraphFacts, connected_graphs(7))
        if f.dim_local == getattr(f.bounds, field)
    }
    assert len(on_floor) == count
    reported = _reported(monkeypatch, _bounds_off(field, +1))
    assert reported == {check: on_floor}


def test_unplanted_stream_is_clean():
    # so every violation counted above comes from its plant
    assert run_suite(connected_graphs(7)).ok
