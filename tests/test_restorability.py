"""Restorability search against the naive full enumeration and known answers."""

import itertools
import math
from fractions import Fraction as F

import pytest

from upsilon_lab.errors import InvalidStepPattern, MalformedHull
from upsilon_lab.gapfunctions import GapFunction
from upsilon_lab.laurent import IntLaurentPoly
from upsilon_lab.piecewise import PLFunction
from upsilon_lab.restorability import (
    _is_symmetric_pattern,
    _pattern_to_gaps,
    enumerate_gap_functions,
    is_restorable,
    designed_family_alexander,
    designed_family_check,
)
from upsilon_lab.semigroups import FormalSemigroup

P = IntLaurentPoly.from_pairs

PRETZEL = P([[0, 1], [1, -1], [3, 1], [4, -1], [5, 1], [6, -1], [7, 1], [9, -1], [10, 1]])
T09847 = P([[0, 1], [1, -1], [4, 1], [5, -1], [7, 1], [9, -1], [10, 1], [13, -1], [14, 1]])
V2871 = P(
    [[0, 1], [1, -1], [4, 1], [5, -1], [7, 1], [8, -1], [9, 1], [11, -1],
     [12, 1], [15, -1], [16, 1]]
)
T34 = P([[0, 1], [1, -1], [3, 1], [5, -1], [6, 1]])
T35 = P([[0, 1], [1, -1], [3, 1], [4, -1], [5, 1], [7, -1], [8, 1]])


def hull_of(delta):
    return GapFunction.from_semigroup(FormalSemigroup.from_alexander(delta)).envelope()


def naive_enumeration(hull):
    """All C(2g, g) step patterns, filtered by the three defining conditions."""
    g = int(hull.vertices[-1][0])
    pins = {int(x): int(y) for x, y in hull.vertices}
    floor = [hull(k) for k in range(-g, g + 1)]  # hoisted: Fractions are slow
    pin_at = [pins.get(k) for k in range(-g, g + 1)]
    found = []
    for ups in itertools.combinations(range(2 * g), g):
        up_set = set(ups)
        values = [0]
        for j in range(2 * g):
            values.append(values[-1] + (2 if j in up_set else 0))
        ok = True
        for idx, v in enumerate(values):
            if v < floor[idx]:
                ok = False
                break
            if pin_at[idx] is not None and v != pin_at[idx]:
                ok = False
                break
        if ok:
            found.append(tuple(values[i + 1] - values[i] for i in range(2 * g)))
    return found


class TestKnownAnswers:
    def test_t34_unique_with_witness(self):
        report = is_restorable(T34)
        assert report.unique
        assert report.symmetric_count == 1
        assert report.witnesses == ((1, 2, 5),)

    def test_t35_unique(self):
        assert is_restorable(T35).unique

    def test_pretzel_two_profiles(self):
        report = is_restorable(PRETZEL)
        assert not report.unique
        assert report.symmetric_count >= 2
        assert (1, 2, 4, 6, 9) in report.witnesses
        assert (1, 2, 5, 6, 9) in report.witnesses
        assert report.total_count == 2

    def test_unknot_single_empty_pattern(self):
        report = is_restorable(IntLaurentPoly.one())
        assert report.unique
        assert report.total_count == 1
        assert report.witnesses == ((),)

    def test_census_knots_unique(self):
        for delta in (T09847, V2871):
            report = is_restorable(delta)
            assert report.unique
            assert report.total_count == 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_family_shares_hull(self, n):
        from upsilon_lab.family import FamilyKnot, alexander_closed_form

        k1 = alexander_closed_form(FamilyKnot("K1", n))
        k2 = alexander_closed_form(FamilyKnot("K2", n))
        report = is_restorable(k1)
        assert not report.unique
        assert not report.budget_exhausted
        k2_gaps = FormalSemigroup.from_alexander(k2).gaps
        k1_gaps = FormalSemigroup.from_alexander(k1).gaps
        assert k2_gaps in report.witnesses
        assert k1_gaps in report.witnesses


class TestWitnessSemantics:
    def test_witnesses_regenerate_hull(self):
        for delta in (PRETZEL, T09847, T34):
            hull = hull_of(delta)
            report = enumerate_gap_functions(hull)
            assert len(report.witnesses) == report.total_count
            for gaps in report.witnesses:
                regenerated = GapFunction.from_semigroup(FormalSemigroup(gaps)).envelope()
                assert regenerated == hull

    def test_original_gap_set_always_found(self):
        for delta in (PRETZEL, T09847, V2871, T34, T35):
            report = enumerate_gap_functions(hull_of(delta))
            assert FormalSemigroup.from_alexander(delta).gaps in report.witnesses

    def test_symmetric_only_filters_witnesses_not_counts(self):
        hull = hull_of(PRETZEL)
        unfiltered = enumerate_gap_functions(hull, symmetric_only=False)
        filtered = enumerate_gap_functions(hull, symmetric_only=True)
        assert unfiltered.total_count == filtered.total_count
        assert unfiltered.symmetric_count == filtered.symmetric_count
        assert set(filtered.witnesses) <= set(unfiltered.witnesses)


class TestAgainstNaiveEnumeration:
    def test_catalog_hulls_match_naive(self):
        from upsilon_lab.family import catalog_knot, catalog_names

        for name in catalog_names():
            delta = catalog_knot(name).alexander
            g = FormalSemigroup.from_alexander(delta).genus
            assert g <= 8
            hull = hull_of(delta)
            report = enumerate_gap_functions(hull)
            naive = naive_enumeration(hull)
            pruned = [
                GapFunction.from_semigroup(FormalSemigroup(w)).steps()
                for w in report.witnesses
            ]
            assert sorted(pruned) == sorted(naive), name
            assert report.total_count == len(naive)

    def test_synthetic_small_hulls_match_naive(self):
        # Designed-family hulls at small m give further g <= 8 shapes.
        for m in (3, 4, 5, 6, 7):
            hull = hull_of(designed_family_alexander(m))
            report = enumerate_gap_functions(hull)
            naive = naive_enumeration(hull)
            assert report.total_count == len(naive)


class TestBudgets:
    def test_step_budget_flags_report(self):
        report = enumerate_gap_functions(hull_of(PRETZEL), step_budget=3)
        assert report.budget_exhausted

    def test_max_solutions_flags_report(self):
        report = enumerate_gap_functions(hull_of(PRETZEL), max_solutions=1)
        assert report.budget_exhausted
        assert report.total_count <= 1



class TestPruneSoundness:
    def test_partial_paths_of_solutions_never_pruned(self):
        # The walk keeps a partial profile only while lo <= value <= hi, so
        # every prefix of every naive solution has to lie within the bounds.
        from upsilon_lab.restorability import _bounds

        for delta in (T34, T35, PRETZEL, T09847):
            hull = hull_of(delta)
            lo, hi = _bounds(hull)
            for steps in naive_enumeration(hull):
                val = 0
                for idx, step in enumerate(steps, start=1):
                    val += step
                    assert lo[idx] <= val <= hi[idx], (delta, steps, idx)


def all_hulls(g):
    """The hulls of every gap sequence of genus g (g - 1 gaps below 2g - 1)."""
    if g == 0:
        return {hull_of(IntLaurentPoly.one())}
    return {
        GapFunction.from_semigroup(FormalSemigroup(low + (2 * g - 1,))).envelope()
        for low in itertools.combinations(range(1, 2 * g - 1), g - 1)
    }


class TestExhaustiveSmallGenus:
    @pytest.mark.parametrize("g", range(6))
    def test_witnesses_equal_naive_in_walk_order(self, g):
        # Over every hull of genus g, the unfiltered witnesses are exactly the
        # naive solutions, in lexicographic step order (flat before up).
        for hull in all_hulls(g):
            report = enumerate_gap_functions(hull, symmetric_only=False)
            walked = [
                GapFunction.from_semigroup(FormalSemigroup(w)).steps()
                for w in report.witnesses
            ]
            assert walked == sorted(naive_enumeration(hull)), hull
            assert not report.budget_exhausted

    @pytest.mark.parametrize("g", range(1, 6))
    def test_budget_counts_the_root_and_every_prefix(self, g):
        # Nodes are counted as in a depth-first search: the root plus every
        # partial profile entered, which is every distinct solution prefix.
        for hull in all_hulls(g):
            naive = naive_enumeration(hull)
            nodes = 1 + len({s[:k] for s in naive for k in range(1, 2 * g + 1)})
            full = enumerate_gap_functions(hull, step_budget=nodes)
            assert not full.budget_exhausted and full.total_count == len(naive)
            assert enumerate_gap_functions(hull, step_budget=nodes - 1).budget_exhausted


def step_values(pattern):
    """Profile values 0, ..., 2g of a step pattern."""
    return list(itertools.accumulate(pattern, initial=0))


class TestStepPatternHelpers:
    # GapFunction and its semigroup are the oracle for the bytes helpers.

    @pytest.mark.parametrize("g", range(9))
    def test_balanced_patterns_match_gap_function(self, g):
        # Every pattern of g up and g flat steps; the valid ones start up and end flat.
        valid = 0
        for ups in itertools.combinations(range(2 * g), g):
            pattern = bytes(2 if j in ups else 0 for j in range(2 * g))
            gapfn = GapFunction(step_values(pattern))
            try:
                expected = gapfn.to_semigroup().gaps
            except InvalidStepPattern:
                with pytest.raises(InvalidStepPattern):
                    _pattern_to_gaps(pattern)
                continue
            valid += 1
            assert _pattern_to_gaps(pattern) == expected, pattern
            assert _is_symmetric_pattern(pattern) == gapfn.is_symmetric(), pattern
        assert valid == (math.comb(2 * g - 2, g - 1) if g else 1)  # one per gap sequence

    @pytest.mark.parametrize("n", range(11))
    def test_any_pattern_is_valid_exactly_when_the_gap_function_is(self, n):
        for pattern in itertools.product(b"\x00\x02", repeat=n):
            pattern = bytes(pattern)
            try:
                expected = GapFunction(step_values(pattern)).to_semigroup().gaps
            except (ValueError, InvalidStepPattern):
                with pytest.raises(InvalidStepPattern):
                    _pattern_to_gaps(pattern)
            else:
                assert _pattern_to_gaps(pattern) == expected

    @pytest.mark.parametrize("pattern", [
        b"\x02", b"\x02\x00\x00", b"\x00\x02", b"\x02\x02\x00\x02",
        b"\x01\x01", b"\x02\x01\x01\x00", b"\x02\x00\x03\x00", b"\x02\x00\x02\x00\x02\x02",
    ])
    def test_invalid_patterns_raise(self, pattern):
        with pytest.raises(InvalidStepPattern):
            _pattern_to_gaps(pattern)


class TestKeepOnlyListed:
    # Default mode stores only the symmetric profiles; --all stores every one.
    # Both must walk, count and truncate identically.

    @pytest.mark.parametrize("g", range(6))
    def test_default_lists_the_symmetric_subsequence_of_all(self, g):
        for hull in all_hulls(g):
            for cap in (1, 2, 50, 10**4):
                for budget in (1, 3, 100, 10**9):
                    every = enumerate_gap_functions(hull, False, cap, budget)
                    listed = enumerate_gap_functions(hull, True, cap, budget)
                    case = (hull, cap, budget)
                    assert listed.total_count == every.total_count, case
                    assert listed.symmetric_count == every.symmetric_count, case
                    assert listed.budget_exhausted == every.budget_exhausted, case
                    assert listed.unique == every.unique, case
                    symmetric = [w for w in every.witnesses if FormalSemigroup(w).symmetry_check()]
                    assert list(listed.witnesses) == symmetric, case
                    assert every.symmetric_count == len(symmetric), case
                    assert len(every.witnesses) == every.total_count, case


class TestMalformedHulls:
    def test_wrong_rays(self):
        with pytest.raises(MalformedHull):
            enumerate_gap_functions(PLFunction([(0, 0)], 0, 1))

    def test_non_integer_vertex(self):
        with pytest.raises(MalformedHull):
            enumerate_gap_functions(
                PLFunction([(-2, 0), (F(1, 2), 3), (2, 4)], 0, 2)
            )

    def test_asymmetric_range(self):
        with pytest.raises(MalformedHull):
            enumerate_gap_functions(PLFunction([(-2, 0), (3, 6)], 0, 2))

    def test_interval_domain_rejected(self):
        with pytest.raises(MalformedHull):
            enumerate_gap_functions(PLFunction([(0, 0), (2, 0)]))

    def test_odd_vertex_height(self):
        with pytest.raises(MalformedHull):
            enumerate_gap_functions(PLFunction([(-2, 0), (0, 3), (2, 4)], 0, 2))


class TestDesignedFamily:
    @pytest.mark.parametrize("m", list(range(3, 11)))
    def test_unique_for_all_m(self, m):
        report = designed_family_check(m)
        assert report.unique
        assert report.total_count == 1

    def test_m3_is_t35(self):
        assert designed_family_alexander(3) == T35

    def test_m4_gap_set(self):
        delta = designed_family_alexander(4)
        s = FormalSemigroup.from_alexander(delta)
        assert [x for x in range(10) if s.contains(x)] == [0, 4, 6, 7, 8]

    def test_m_below_three_rejected(self):
        with pytest.raises(ValueError):
            designed_family_alexander(2)

    def test_m10_hull_matches_closed_form(self):
        # Hull pieces: 0, then 2/m, 1, (2m-2)/m, 2 with vertices at
        # -m-1, -1, 1, m+1.
        m = 10
        report = designed_family_check(m)
        expected = PLFunction(
            [(-m - 1, 0), (-1, 2), (1, 4), (m + 1, 2 * m + 2)], 0, 2
        )
        assert report.hull == expected
