"""Acceptance suite: one test per shipped claim, with stated time bounds.

Every comparison is exact (integers and Fractions); the only tolerances are
wall-clock budgets.  Each criterion prints its own PASS line so a verbose
run reads as a checklist (pytest -v -s tests/test_acceptance.py).
"""

import itertools
import time
from fractions import Fraction as F

from upsilon_lab.braids import named_braid
from upsilon_lab.census import load_census, sample_census_path, scan_census
from upsilon_lab.family import (
    FamilyKnot,
    alexander_closed_form,
    catalog_knot,
    catalog_names,
    verify_family_pair,
)
from upsilon_lab.gapfunctions import GapFunction
from upsilon_lab.invariants import gap_function_of, hull_of, upsilon_of
from upsilon_lab.laurent import IntLaurentPoly
from upsilon_lab.piecewise import PLFunction, legendre_fenchel
from upsilon_lab.restorability import (
    enumerate_gap_functions,
    is_restorable,
    designed_family_alexander,
)
from upsilon_lab.semigroups import FormalSemigroup

P = IntLaurentPoly.from_pairs

PRETZEL = P([[0, 1], [1, -1], [3, 1], [4, -1], [5, 1], [6, -1], [7, 1], [9, -1], [10, 1]])


def timed(budget_seconds):
    start = time.monotonic()

    def check(label):
        elapsed = time.monotonic() - start
        assert elapsed < budget_seconds, f"{label}: {elapsed:.2f}s over {budget_seconds}s budget"
        return elapsed

    return check


def reflect_on_02(f: PLFunction) -> PLFunction:
    return PLFunction([(2 - x, y) for x, y in reversed(f.vertices)])


def test_criterion_1_family_pair_all_n():
    check = timed(10.0)
    for n in range(1, 6):
        result = verify_family_pair(n)
        failures = {k: c.detail for k, c in result.checks.items() if not c.ok}
        assert result.ok, f"n={n}: {failures}"
    elapsed = check("family verify n=1..5")
    print(f"PASS criterion 1: family pair claims verified for n=1..5 ({elapsed:.2f}s)")


def test_criterion_2_burau_oracle():
    check = timed(30.0)
    for which in ("K1", "K2"):
        for n in (1, 2):
            closed = alexander_closed_form(FamilyKnot(which, n))
            assert named_braid(which, n).alexander_of_closure() == closed, (which, n)
    assert named_braid("t09847").alexander_of_closure() == catalog_knot("t09847").alexander
    assert named_braid("v2871").alexander_of_closure() == catalog_knot("v2871").alexander
    elapsed = check("Burau oracle")
    print(f"PASS criterion 2: Burau matches closed forms and census polynomials ({elapsed:.2f}s)")


def test_criterion_3_pretzel_pipeline():
    semigroup = FormalSemigroup.from_alexander(PRETZEL)
    # Gap-count table: I(m) for m = 10 down to -2.
    expected_I = {10: 0, 9: 1, 8: 1, 7: 1, 6: 2, 5: 2, 4: 3, 3: 3, 2: 4, 1: 5,
                  0: 5, -1: 6, -2: 7}
    for m, value in expected_I.items():
        assert semigroup.count_gaps_at_least(m) == value, m
    # Gap-function table: 2J(-m) for m = -5 up to 7.
    gapfn = GapFunction.from_semigroup(semigroup)
    expected_G = [0, 2, 2, 2, 4, 4, 6, 6, 8, 10, 10, 12, 14]
    assert [gapfn.value_at(m) for m in range(-5, 8)] == expected_G
    # Five-piece hull (two rays and three finite pieces).
    hull = gapfn.envelope()
    assert hull == PLFunction([(-5, 0), (-2, 2), (2, 6), (5, 10)], 0, 2)
    # Four-piece Upsilon.
    upsilon = legendre_fenchel(hull)
    assert upsilon == PLFunction(
        [(0, 0), (F(2, 3), F(-10, 3)), (1, -4), (F(4, 3), F(-10, 3)), (2, 0)]
    )
    print("PASS criterion 3: pretzel tables, hull, and Upsilon reproduced bit-exact")


def test_criterion_4_torus_examples():
    t34 = catalog_knot("T(3,4)").alexander
    assert upsilon_of(t34) == PLFunction(
        [(0, 0), (F(2, 3), -2), (F(4, 3), -2), (2, 0)]
    )
    t35 = catalog_knot("T(3,5)").alexander
    assert upsilon_of(t35) == PLFunction(
        [(0, 0), (F(2, 3), F(-8, 3)), (1, -3), (F(4, 3), F(-8, 3)), (2, 0)]
    )
    assert is_restorable(t34).unique
    assert is_restorable(t35).unique
    print("PASS criterion 4: T(3,4) and T(3,5) Upsilon closed forms and uniqueness")


def test_criterion_5_census_restorability():
    for name, genus in (("t09847", 7), ("v2871", 8)):
        check = timed(1.0)
        delta = catalog_knot(name).alexander
        assert FormalSemigroup.from_alexander(delta).genus == genus
        report = enumerate_gap_functions(hull_of(delta), symmetric_only=True)
        assert not report.budget_exhausted
        assert report.unique
        elapsed = check(name)
        print(f"PASS criterion 5: {name} restorable, exact counts ({elapsed:.3f}s)")


def test_criterion_6_non_uniqueness():
    check = timed(60.0)
    pretzel_report = is_restorable(PRETZEL)
    assert pretzel_report.symmetric_count >= 2
    assert (1, 2, 4, 6, 9) in pretzel_report.witnesses
    assert (1, 2, 5, 6, 9) in pretzel_report.witnesses
    for n in (1, 2):
        k1 = alexander_closed_form(FamilyKnot("K1", n))
        k2 = alexander_closed_form(FamilyKnot("K2", n))
        report = is_restorable(k1)
        assert not report.budget_exhausted
        assert not report.unique
        assert FormalSemigroup.from_alexander(k2).gaps in report.witnesses, n
    elapsed = check("non-uniqueness")
    print(f"PASS criterion 6: pretzel and family hulls admit the known alternative "
          f"profiles ({elapsed:.2f}s)")


def test_criterion_7_designed_family():
    check = timed(5.0)
    for m in range(3, 11):
        assert is_restorable(designed_family_alexander(m)).unique, m
    assert designed_family_alexander(3) == catalog_knot("T(3,5)").alexander
    elapsed = check("designed family")
    print(f"PASS criterion 7: designed family restorable for m=3..10 ({elapsed:.2f}s)")


def test_criterion_8_seifert_criteria():
    from upsilon_lab.seifert import SeifertForm, decide

    check = timed(1.0)
    for n in range(3, 7):
        verdict = decide(SeifertForm(0, (F(1, 3), F(-1, 3), F(-1, n - 1))))
        assert verdict.is_lspace and verdict.certificate is not None, n
    for n in range(1, 7):
        verdict = decide(SeifertForm(0, (F(1, 2), F(-1, 3), F(n, 2 * n + 1))))
        assert verdict.is_lspace and verdict.certificate is not None, n
    for n in (2, 3, 5):
        verdict = decide(SeifertForm(0, (F(3, 7), F(1, 3), F(1, n))))
        assert not verdict.is_lspace, n  # documented limitation: stays Undecided
    elapsed = check("seifert")
    print(f"PASS criterion 8: Seifert L-space certificates and documented "
          f"limitation ({elapsed:.3f}s)")


def _symmetric_semigroups_up_to(genus_bound):
    for g in range(genus_bound + 1):
        if g == 0:
            yield FormalSemigroup(())
            continue
        for rest in itertools.combinations(range(1, 2 * g - 1), g - 1):
            s = FormalSemigroup(rest + (2 * g - 1,))
            if s.symmetry_check():
                yield s


def test_criterion_9a_round_trips_exhaustive():
    count = 0
    for s in _symmetric_semigroups_up_to(6):
        delta = s.to_alexander()
        assert FormalSemigroup.from_alexander(delta) == s
        gapfn = GapFunction.from_semigroup(s)
        assert gapfn.to_semigroup() == s
        assert gapfn.is_symmetric()
        count += 1
    print(f"PASS criterion 9a: polynomial/gap/profile round trips over "
          f"{count} symmetric gap sets with g <= 6")


def test_criterion_9b_biconjugation():
    for name in catalog_names():
        hull = hull_of(catalog_knot(name).alexander)
        assert legendre_fenchel(legendre_fenchel(hull)) == hull, name
    print("PASS criterion 9b: double transform returns every catalog hull")


def test_criterion_9c_transform_equals_brute_force():
    for name in catalog_names():
        gapfn = gap_function_of(catalog_knot(name).alexander)
        upsilon = legendre_fenchel(gapfn.envelope())
        xs = [x for x, _ in upsilon.vertices]
        probes = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        for t in probes:
            brute = max(F(t) * x - y for x, y in gapfn.samples())
            assert upsilon(t) == brute, (name, t)
    print("PASS criterion 9c: transform equals brute-force sup at breakpoints "
          "and midpoints")


def test_criterion_9d_upsilon_shape():
    deltas = [(name, catalog_knot(name).alexander) for name in catalog_names()]
    for which in ("K1", "K2"):
        for n in (1, 2, 3):
            deltas.append((f"{which}({n})", alexander_closed_form(FamilyKnot(which, n))))
    for name, delta in deltas:
        upsilon = upsilon_of(delta)
        genus = FormalSemigroup.from_alexander(delta).genus
        assert upsilon(0) == 0 and upsilon(2) == 0, name
        assert upsilon.is_convex(), name
        assert upsilon == reflect_on_02(upsilon), name
        assert upsilon.segment_slopes()[0] == -genus, name
    print(f"PASS criterion 9d: Upsilon boundary, convexity, reflection symmetry, "
          f"and initial slope -g for {len(deltas)} knots")


def test_criterion_9e_pruned_equals_naive():
    from test_restorability import naive_enumeration

    for name in catalog_names():
        delta = catalog_knot(name).alexander
        genus = FormalSemigroup.from_alexander(delta).genus
        assert genus <= 8
        hull = hull_of(delta)
        report = enumerate_gap_functions(hull)
        naive = naive_enumeration(hull)
        pruned_steps = sorted(
            GapFunction.from_semigroup(FormalSemigroup(w)).steps()
            for w in report.witnesses
        )
        assert pruned_steps == sorted(naive), name
    print("PASS criterion 9e: pruned search equals naive enumeration for all "
          "catalog knots (g <= 8)")


def test_criterion_10_census_scan():
    records, warnings = load_census(sample_census_path())
    assert len(records) == 10 and not warnings
    report = scan_census(records)
    assert report["delta_duplicate_groups"] == []
    assert report["upsilon_duplicate_groups"] == [["K1(1)", "K2(1)"]]
    for rotation in range(1, 10):
        rotated = records[rotation:] + records[:rotation]
        assert scan_census(rotated) == report
    print("PASS criterion 10: census sample has the single Upsilon-duplicate "
          "pair and is permutation-stable")
