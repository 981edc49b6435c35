"""The hull from gap-run corners against the dense route through every sample."""

import itertools
import random

import pytest

from upsilon_lab.family import FamilyKnot, alexander_closed_form
from upsilon_lab.gapfunctions import GapFunction
from upsilon_lab.invariants import hull_of, hull_vertices
from upsilon_lab.restorability import designed_family_alexander
from upsilon_lab.semigroups import FormalSemigroup, torus_semigroup

# T(p, q) for g = 1 .. 510: (p - 1)(q - 1) / 2.
TORUS_LADDER = ((2, 3), (3, 4), (3, 7), (5, 7), (5, 12), (7, 20), (9, 26), (11, 30),
                (13, 36), (15, 44), (17, 49), (19, 52), (21, 52))


def all_gap_sequences(g: int):
    """Every strictly increasing gap sequence with top gap 2g-1, symmetric or not."""
    if g == 0:
        yield ()
        return
    for rest in itertools.combinations(range(1, 2 * g - 1), g - 1):
        yield rest + (2 * g - 1,)


def assert_matches_dense_route(semigroup: FormalSemigroup):
    delta = semigroup.to_alexander()
    dense = GapFunction.from_semigroup(semigroup).envelope()
    assert hull_of(delta) == dense
    assert hull_vertices(delta) == dense.vertices
    assert all(type(c) is int for vertex in hull_vertices(delta) for c in vertex)


def test_every_gap_sequence_up_to_genus_8():
    count = 0
    for g in range(9):
        for gaps in all_gap_sequences(g):
            assert_matches_dense_route(FormalSemigroup(gaps))
            count += 1
    assert count == 4708


def test_random_gap_sequences_up_to_genus_600():
    rng = random.Random(7)
    for _ in range(40):
        g = rng.randint(1, 600)
        gaps = sorted(rng.sample(range(1, 2 * g - 1), g - 1)) + [2 * g - 1]
        assert_matches_dense_route(FormalSemigroup(gaps))


@pytest.mark.parametrize("p,q", TORUS_LADDER)
def test_torus_ladder(p, q):
    assert_matches_dense_route(torus_semigroup(p, q))


@pytest.mark.parametrize("which", ["K1", "K2"])
def test_family_members(which):
    for n in range(1, 41):
        delta = alexander_closed_form(FamilyKnot(which, n))
        assert_matches_dense_route(FormalSemigroup.from_alexander(delta))


def test_designed_family():
    for m in range(3, 201):
        assert_matches_dense_route(FormalSemigroup.from_alexander(designed_family_alexander(m)))


def test_unknot_is_one_vertex():
    assert_matches_dense_route(FormalSemigroup(()))
    assert hull_vertices(FormalSemigroup(()).to_alexander()) == ((0, 0),)


def test_one_gap_runs_walk_per_report(monkeypatch):
    # knot_invariants feeds the semigroup and the hull from one derivation of the runs.
    import sys

    from upsilon_lab import semigroups
    from upsilon_lab.family import catalog_knot, catalog_names
    from upsilon_lab.invariants import knot_invariants

    deltas = [catalog_knot(name).alexander for name in catalog_names()]
    deltas += [torus_semigroup(5, 12).to_alexander(), designed_family_alexander(25)]
    calls = []
    walk = semigroups.gap_runs
    # Count the walk under every name a package module binds it to.
    for module in list(sys.modules.values()):
        if module.__name__.startswith("upsilon_lab") and getattr(module, "gap_runs", None) is walk:
            monkeypatch.setattr(module, "gap_runs",
                                lambda delta: calls.append(delta) or walk(delta))
    for delta in deltas:
        report = knot_invariants(delta)
        assert report["hull"] == hull_of(delta).to_json()  # hull_of walks again, once
    assert calls == [d for delta in deltas for d in (delta, delta)]
