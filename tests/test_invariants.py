"""The hull from gap-run corners against the dense route through every sample, and the
report's bytes and Upsilon fields pinned."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from upsilon_lab.cli import main
from upsilon_lab.family import FamilyKnot, alexander_closed_form, catalog_names
from upsilon_lab.gapfunctions import GapFunction
from upsilon_lab.invariants import hull_of, hull_vertices, knot_invariants, upsilon_of
from upsilon_lab.laurent import IntLaurentPoly
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


# -- the trusted stage constructors on the report path -------------------------------


def assert_trusted_stages_match_the_checked_ones(delta):
    """from_gap_runs (through from_alexander) and from_semigroup build what the
    validating constructors accept and build.  The trusted sweep is checked against
    the dense route by assert_matches_dense_route."""
    semigroup = FormalSemigroup.from_alexander(delta)
    assert semigroup == FormalSemigroup(list(semigroup.gaps)) and type(semigroup.gaps) is tuple
    gapfn = GapFunction.from_semigroup(semigroup)
    assert gapfn == GapFunction(list(gapfn.values)) and type(gapfn.values) is tuple


def test_trusted_stages_on_every_gap_sequence_up_to_genus_8():
    for g in range(9):
        for gaps in all_gap_sequences(g):
            assert_trusted_stages_match_the_checked_ones(FormalSemigroup(gaps).to_alexander())


@pytest.mark.parametrize("p,q", TORUS_LADDER)
def test_trusted_stages_on_the_torus_ladder(p, q):
    assert_trusted_stages_match_the_checked_ones(torus_semigroup(p, q).to_alexander())


def test_report_path_checks_nothing_it_built(monkeypatch):
    # knot_invariants builds each stage from the one before; only the input is checked.
    from upsilon_lab import piecewise
    from upsilon_lab.invariants import _corners
    from upsilon_lab.semigroups import gap_runs

    deltas = [torus_semigroup(p, q).to_alexander() for p, q in TORUS_LADDER[4:]]
    calls = []
    for cls in (FormalSemigroup, GapFunction):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, init=init, **k: (
            calls.append(type(self).__name__), init(self, *a, **k))[1])
    exact = piecewise._exact
    monkeypatch.setattr(piecewise, "_exact", lambda v: calls.append("_exact") or exact(v))
    for delta in deltas:
        knot_invariants(delta)
        assert "FormalSemigroup" not in calls and "GapFunction" not in calls
        calls.clear()
        hull_of(delta)
        # The slopes and the ray checks, never a corner: far fewer calls than corners.
        assert len(calls) <= 8 < len(_corners(gap_runs(delta))), delta
        calls.clear()


# -- the report's bytes and its Upsilon fields -----------------------------------------

# sha256 of `invariants` stdout, so no report field can move by a byte.
REPORT_SPECS = {name: ["--catalog", name] for name in catalog_names()}
REPORT_SPECS.update({
    "T(26,41)": ["--torus", "26,41"],
    "K1(80)": ["--family", "K1", "--n", "80"],
    "K2(80)": ["--family", "K2", "--n", "80"],
})
REPORT_SHA256 = {
    "T(3,4)": "4d80da51b9ddaebd1ce08bcc02b9d9c43331f2156e26b7719f3aeed9facbd7aa",
    "T(3,5)": "75f0a5dc4ef40cbab385bfb17fb342c925c656345bcaecb88d41c1301cc6b767",
    "cable_alt_237": "33bb592e2b7651b511e00250fa530978984670171f83085ec8fd8e6878ecdabb",
    "pretzel_237": "c42d78c34caffdc070a8368154057f27b57123bf8946c2278abd3b9a3cf0b3ae",
    "t09847": "46207f841ca85e3437207b001d16580a9b0ea3b5ee5bfbe310dfca01a4d000a0",
    "v2871": "ea722f06f008005587b78a40ca430aaf4883af4cd095dc12494c1212d459ac7f",
    # The top of the genus ladder: g = 500, 486 and 486.
    "T(26,41)": "f87af9efef445cd4cb5b7ec8607b4f448f6cb353bb5d35fa1385e6056cb5180c",
    "K1(80)": "1b6604110c9e20e44fe8e0d8e1db0907f4977fb1a3332e3a73691c080191d77b",
    "K2(80)": "0aba35a1f8eab60b7afc7c2d5ff07e58072b0b32a166b9521c08c3d9133f78d3",
}


def test_every_catalog_knot_report_is_pinned():
    assert set(catalog_names()) <= set(REPORT_SHA256) == set(REPORT_SPECS)


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes(capsys, name):
    assert main(["invariants", *REPORT_SPECS[name]]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REPORT_SHA256[name]


def assert_upsilon_fields(delta: IntLaurentPoly):
    report = knot_invariants(delta)
    upsilon = upsilon_of(delta)
    assert report["upsilon_slopes"] == [str(Fraction(s)) for s in upsilon.segment_slopes()]
    assert report["upsilon_breakpoints"] == [
        [str(Fraction(x)), str(Fraction(y))] for x, y in upsilon.vertices
    ]


def test_upsilon_fields_on_every_gap_sequence_up_to_genus_8():
    for g in range(9):
        for gaps in all_gap_sequences(g):
            assert_upsilon_fields(FormalSemigroup(gaps).to_alexander())


@pytest.mark.parametrize("p,q", TORUS_LADDER + ((26, 41),))
def test_upsilon_fields_on_the_torus_ladder(p, q):
    assert_upsilon_fields(torus_semigroup(p, q).to_alexander())


# -- the report's symmetric flag, against IntLaurentPoly.is_symmetric ---------------------


def test_symmetric_flag_on_every_gap_sequence_up_to_genus_8():
    flags = []
    for g in range(9):
        for gaps in all_gap_sequences(g):
            delta = FormalSemigroup(gaps).to_alexander()
            flags.append(knot_invariants(delta)["symmetric"])
            assert flags[-1] == delta.is_symmetric(), gaps
    assert len(flags) == 4708 and 0 < sum(flags) < len(flags)


@pytest.mark.parametrize("p,q", TORUS_LADDER + ((26, 41),))
def test_symmetric_flag_on_the_torus_ladder(p, q):
    delta = torus_semigroup(p, q).to_alexander()
    assert knot_invariants(delta)["symmetric"] is delta.is_symmetric() is True
