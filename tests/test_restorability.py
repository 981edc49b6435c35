"""Restorability search against the naive full enumeration and known answers."""

import itertools
import json
import math
import time
from fractions import Fraction as F

import pytest

from upsilon_lab import cli, restorability
from upsilon_lab.errors import CountTooCostly, GenusTooLarge, InvalidStepPattern, MalformedHull
from upsilon_lab.family import FamilyKnot, alexander_closed_form
from upsilon_lab.gapfunctions import GapFunction
from upsilon_lab.invariants import hull_vertices
from upsilon_lab.laurent import IntLaurentPoly
from upsilon_lab.piecewise import PLFunction
from upsilon_lab.restorability import (
    MAX_COUNT_WORK,
    Witnesses,
    _bounds,
    _is_symmetric_pattern,
    _pattern_to_gaps,
    _segment_count,
    _walk,
    enumerate_gap_functions,
    is_restorable,
    designed_family_alexander,
)
from upsilon_lab.semigroups import MAX_GENUS, FormalSemigroup, torus_semigroup

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

    @pytest.mark.parametrize("symmetric_only", [True, False])
    def test_integral_fraction_hull_reports_like_the_int_hull(self, symmetric_only):
        ints = PLFunction([(-3, 0), (0, 2), (3, 6)], 0, 2)  # T(3,4)
        fractions = PLFunction([(F(-3), F(0)), (F(0), F(2)), (F(3), F(6))], F(0), F(2))
        want = enumerate_gap_functions(ints, symmetric_only).to_json()
        assert enumerate_gap_functions(fractions, symmetric_only).to_json() == want
        assert want["witnesses"] == ((1, 2, 5),)


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
    def test_max_solutions_flags_report(self):
        # The cap cuts the witness list; the counts stay exact.
        report = enumerate_gap_functions(hull_of(PRETZEL), max_solutions=1)
        assert report.budget_exhausted
        assert report.total_count == report.symmetric_count == 2
        assert report.witnesses == ((1, 2, 4, 6, 9),)

    @pytest.mark.parametrize("symmetric_only", [False, True], ids=["all", "symmetric"])
    @pytest.mark.parametrize("cap, error", [
        (0, ValueError), (-3, ValueError), (True, TypeError), (2.0, TypeError), ("5", TypeError),
    ], ids=["zero", "negative", "bool", "float", "str"])
    def test_max_solutions_must_be_a_positive_int(self, symmetric_only, cap, error):
        # -3 used to raise islice's own message (all) or list nothing
        # (symmetric), and True was read as 1.
        with pytest.raises(error, match="max_solutions"):
            enumerate_gap_functions(hull_of(PRETZEL), symmetric_only, max_solutions=cap)

    def test_max_solutions_is_refused_before_any_counting(self):
        # This hull's exact count would raise CountTooCostly (TestExactCounts).
        hull = PLFunction([(-2500, 0), (0, 2000), (2500, 5000)], 0, 2)
        for symmetric_only in (False, True):
            with pytest.raises(ValueError, match="at least 1, got -3"):
                enumerate_gap_functions(hull, symmetric_only, max_solutions=-3)
        with pytest.raises(TypeError, match="max_solutions False is not an int"):
            is_restorable(PRETZEL, max_solutions=False)
        with pytest.raises(ValueError, match="at least 1, got 0"):
            is_restorable(PRETZEL, max_solutions=0)


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
                    Witnesses([pattern])
                continue
            valid += 1
            assert Witnesses([pattern])[0] == expected, pattern
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
                    Witnesses([pattern])
            else:
                assert Witnesses([pattern])[0] == expected

    @pytest.mark.parametrize("pattern", [
        b"\x02", b"\x02\x00\x00", b"\x00\x02", b"\x02\x02\x00\x02",
        b"\x01\x01", b"\x02\x01\x01\x00", b"\x02\x00\x03\x00", b"\x02\x00\x02\x00\x02\x02",
    ])
    def test_invalid_patterns_raise(self, pattern):
        with pytest.raises(InvalidStepPattern):
            Witnesses([pattern])


class TestKeepOnlyListed:
    # Default mode lists only the symmetric profiles; --all lists every one.
    # Both must count and truncate identically.

    @pytest.mark.parametrize("g", range(6))
    def test_default_lists_the_symmetric_subsequence_of_all(self, g):
        for hull in all_hulls(g):
            for cap in (1, 2, 50, 10**4):
                every = enumerate_gap_functions(hull, False, cap)
                listed = enumerate_gap_functions(hull, True, cap)
                case = (hull, cap)
                assert listed.total_count == every.total_count, case
                assert listed.symmetric_count == every.symmetric_count, case
                assert listed.budget_exhausted == every.budget_exhausted, case
                assert listed.unique == every.unique, case
                symmetric = [w for w in every.witnesses if FormalSemigroup(w).symmetry_check()]
                assert list(listed.witnesses) == symmetric, case
                assert len(every.witnesses) == min(cap, every.total_count), case
                if not every.budget_exhausted:
                    assert every.symmetric_count == len(symmetric), case


class TestMalformedHulls:
    def test_wrong_rays(self):
        with pytest.raises(MalformedHull):
            enumerate_gap_functions(PLFunction([(0, 0)], 0, 1))

    def test_non_integer_vertex(self):
        with pytest.raises(MalformedHull, match="^vertex at non-integer x = 1/2$"):
            enumerate_gap_functions(
                PLFunction([(-2, 0), (F(1, 2), 1), (2, 4)], 0, 2)
            )

    def test_asymmetric_range(self):
        with pytest.raises(MalformedHull):
            enumerate_gap_functions(PLFunction([(-2, 0), (3, 6)], 0, 2))

    def test_interval_domain_rejected(self):
        with pytest.raises(MalformedHull):
            enumerate_gap_functions(PLFunction([(0, 0), (2, 0)]))

    def test_non_convex_hull(self):
        with pytest.raises(MalformedHull, match="^hull is not convex$"):
            enumerate_gap_functions(PLFunction([(-2, 0), (0, 3), (2, 4)], 0, 2))

    def test_odd_vertex_height(self):
        with pytest.raises(MalformedHull, match="^vertex height 1 at x = 0 is not an even"):
            enumerate_gap_functions(PLFunction([(-2, 0), (0, 1), (2, 4)], 0, 2))

    def test_negative_vertex_height(self):
        with pytest.raises(MalformedHull, match="^vertex height -2 at x = -2 is not an even"):
            enumerate_gap_functions(PLFunction([(-2, -2), (0, 0)], 0, 2))

    def test_leftmost_vertex_off_zero(self):
        with pytest.raises(MalformedHull, match="^leftmost vertex must sit at height 0, got 2$"):
            enumerate_gap_functions(PLFunction([(-2, 2), (0, 4)], 0, 2))

    def test_rightmost_vertex_off_twice_the_genus(self):
        with pytest.raises(MalformedHull,
                           match="^rightmost vertex must sit at height 2g = 4, got 2$"):
            enumerate_gap_functions(PLFunction([(-2, 0), (2, 2)], 0, 2))

    def test_genus_past_the_cap(self):
        g = MAX_GENUS + 1
        with pytest.raises(GenusTooLarge, match=f"^the hull has genus {g}, above the limit"):
            enumerate_gap_functions(PLFunction([(-g, 0), (g, 2 * g)], 0, 2))


class TestDesignedFamily:
    @pytest.mark.parametrize("m", list(range(3, 11)))
    def test_unique_for_all_m(self, m):
        report = is_restorable(designed_family_alexander(m))
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
        report = is_restorable(designed_family_alexander(m))
        expected = PLFunction(
            [(-m - 1, 0), (-1, 2), (1, 4), (m + 1, 2 * m + 2)], 0, 2
        )
        assert report.hull == expected


def distinct_hulls(g):
    """The distinct hulls of every gap sequence of genus g, symmetric or not."""
    sequences = [()] if g == 0 else (
        low + (2 * g - 1,) for low in itertools.combinations(range(1, 2 * g - 1), g - 1))
    vertex_sets = {hull_vertices(FormalSemigroup(gaps).to_alexander()) for gaps in sequences}
    return [PLFunction(verts, 0, 2) for verts in sorted(vertex_sets)]


def brute_segment_count(f, u):
    """Paths of f flat and u up steps from (0, 0) with ups * f >= flats * u at every point."""
    paths = {(0, 0): 1}
    for a in range(f + 1):
        for b in range(u + 1):
            if (a, b) != (0, 0):
                ok = b * f >= u * a
                paths[a, b] = ok * (paths.get((a - 1, b), 0) + paths.get((a, b - 1), 0))
    return paths[f, u]


def forward_counts(hull):
    """(total, symmetric) by a forward DP over (step index, value) within the bounds.

    A symmetric profile is its left half mirrored, so the symmetric count is
    the DP up to index g over a hull invariant under (x, y) -> (-x, y - 2x).
    """
    lo, hi = _bounds(hull)
    g = (len(lo) - 1) // 2
    layer, half = {0: 1}, 1
    for i in range(1, 2 * g + 1):
        later = {}
        for v, c in layer.items():
            for w in (v, v + 2):
                if lo[i] <= w <= hi[i]:
                    later[w] = later.get(w, 0) + c
        layer = later
        if i == g:
            half = sum(layer.values())
    verts = set(hull.vertices)
    invariant = {(-x, y - 2 * x) for x, y in verts} == verts
    return layer[2 * g], half if invariant else 0


def knot_hull(delta):
    return PLFunction(hull_vertices(delta), 0, 2)


def k1(n):
    return alexander_closed_form(FamilyKnot("K1", n))


def k2(n):
    return alexander_closed_form(FamilyKnot("K2", n))


def torus(p, q):
    return torus_semigroup(p, q).to_alexander()


# Inputs whose profile count passes the default cap of 10,000.
CAPPED = {"T(9,11)": torus(9, 11), "T(11,13)": torus(11, 13), "T(13,23)": torus(13, 23),
          "K1(3)": k1(3), "K2(3)": k2(3)}


class TestExactCounts:
    def test_segment_count_matches_brute_force(self):
        for f in range(1, 13):
            for u in range(1, 13):
                assert _segment_count(f, u) == brute_segment_count(f, u), (f, u)

    @pytest.mark.parametrize("g", range(9))
    def test_counts_equal_the_walk_on_every_hull(self, g):
        # Every hull of genus <= 8, asymmetric ones included, is untruncated at the default cap.
        for hull in distinct_hulls(g):
            patterns = list(_walk(*_bounds(hull)))
            report = enumerate_gap_functions(hull)
            assert not report.budget_exhausted
            assert report.total_count == len(patterns), hull
            assert report.symmetric_count == sum(map(_is_symmetric_pattern, patterns)), hull
            assert report.unique == (report.symmetric_count == 1)

    @pytest.mark.parametrize("name", [*CAPPED, "K1(20)", "T(21,52)"])
    def test_capped_counts_equal_a_forward_dp(self, name):
        delta = {"K1(20)": k1(20), "T(21,52)": torus(21, 52)}.get(name) or CAPPED[name]
        report = is_restorable(delta)
        assert report.budget_exhausted
        assert (report.total_count, report.symmetric_count) == forward_counts(report.hull)

    def test_pinned_exact_counts(self):
        # The walk capped at 10,000 reported T(13,23) as uniquely restorable.
        expected = {"T(9,11)": (6322176, 4032), "T(11,13)": (375070500000, 945000),
                    "T(13,23)": (103671993183697370234880000, 15711081408000),
                    "K1(3)": (574992, 1320), "K2(3)": (574992, 1320)}
        for name, delta in CAPPED.items():
            report = is_restorable(delta)
            assert (report.total_count, report.symmetric_count) == expected[name], name
            assert not report.unique

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 20, 40])
    def test_family_counts_follow_the_hull_segments(self, n):
        # hull_closed_form: segments (3n, n), (4, 2), (2n, 2n) in flat/up steps, then mirrored.
        fuss = math.comb(4 * n, n) // (3 * n + 1)
        total = fuss**2 * 3**2 * math.comb(4 * n, 2 * n) // (2 * n + 1)
        symmetric = fuss * 3 * math.comb(2 * n, n)
        for delta in (k1(n), k2(n)):
            report = is_restorable(delta)
            assert (report.total_count, report.symmetric_count) == (total, symmetric)

    def test_asymmetric_hull_has_no_symmetric_profile(self):
        hull = PLFunction([(-4, 0), (-1, 2), (4, 8)], 0, 2)
        report = enumerate_gap_functions(hull, symmetric_only=True)
        assert report.symmetric_count == 0 and report.witnesses == () and not report.unique
        assert report.total_count == len(list(_walk(*_bounds(hull))))

    def test_count_cost_is_bounded_before_any_work(self):
        # Two Bizley segments of k steps (3, 2) and (2, 3): work 2 * (5k * k)^2.
        k = 500
        assert 50 * k**4 > MAX_COUNT_WORK
        hull = PLFunction([(-5 * k, 0), (0, 4 * k), (5 * k, 10 * k)], 0, 2)
        start = time.perf_counter()
        with pytest.raises(CountTooCostly):
            enumerate_gap_functions(hull)
        assert time.perf_counter() - start < 0.5

    def test_count_below_the_cost_bound(self):
        k = 20
        hull = PLFunction([(-5 * k, 0), (0, 4 * k), (5 * k, 10 * k)], 0, 2)
        report = enumerate_gap_functions(hull)
        assert (report.total_count, report.symmetric_count) == forward_counts(hull)


class TestRankWalk:
    # Default-mode witnesses: the symmetric profiles among the first cap that _walk yields.

    CAPS = (1, 2, 3, 10, 50, 10**4)

    @pytest.mark.parametrize("g", range(9))
    def test_witnesses_equal_the_walk_on_every_hull(self, g):
        for hull in distinct_hulls(g):
            patterns = list(_walk(*_bounds(hull)))
            for cap in self.CAPS:
                expected = [_pattern_to_gaps(p) for p in patterns[:cap] if _is_symmetric_pattern(p)]
                report = enumerate_gap_functions(hull, symmetric_only=True, max_solutions=cap)
                assert list(report.witnesses) == expected, (hull, cap)
                assert report.budget_exhausted == (len(patterns) > cap), (hull, cap)

    @pytest.mark.parametrize("name", CAPPED)
    def test_witnesses_equal_the_walk_on_capped_inputs(self, name):
        hull = knot_hull(CAPPED[name])
        for cap in (7, 100, 10**4):
            walked = itertools.islice(_walk(*_bounds(hull)), cap)
            expected = [_pattern_to_gaps(p) for p in walked if _is_symmetric_pattern(p)]
            report = enumerate_gap_functions(hull, symmetric_only=True, max_solutions=cap)
            assert list(report.witnesses) == expected, cap
            every = enumerate_gap_functions(hull, symmetric_only=False, max_solutions=cap)
            assert len(every.witnesses) == cap


def reference_completions_below(lo, hi, cap):
    """Completions from (i, value), for the cells where they number fewer than cap.

    The table the capped symmetric listing used to build, kept as the reference:
    a cell within the bounds that is missing has cap or more completions.
    """
    i = len(lo) - 1
    row = {hi[i]: 1} if cap > 1 else {}
    table = {(i, v): c for v, c in row.items()}
    while row and i:
        i -= 1
        later, row = row, {}
        for v in {w - d for w in later for d in (0, 2)}:
            if not lo[i] <= v <= hi[i]:
                continue
            count = 0
            for w in (v, v + 2):
                if lo[i + 1] <= w <= hi[i + 1]:
                    count += later.get(w, cap)
            if count < cap:
                row[v] = count
        table.update(((i, v), c) for v, c in row.items())
    return table


def reference_rank(steps, lo, table, cap):
    """Profiles before this one in walk order, or cap if that is cap or more."""
    rank = val = 0
    for j, step in enumerate(steps):
        if step and val >= lo[j + 1]:
            rank += table.get((j + 1, val), cap)
            if rank >= cap:
                return cap
        val += step
    return rank


class TestCutoff:
    # A capped symmetric listing keeps the patterns below the profile of rank cap.

    CAPS = (1, 2, 50, 10**4)

    @staticmethod
    def hulls():
        for g in range(9):
            yield from distinct_hulls(g)
        yield from map(knot_hull, (*CAPPED.values(), k1(5)))

    def test_rows_hold_the_reference_cells_below_cap_plus_one(self):
        for hull in self.hulls():
            lo, hi = _bounds(hull)
            for cap in self.CAPS:
                rows = restorability._completion_rows(lo, hi, cap)
                assert len(rows) == len(lo)
                cells = {(i, v): c for i, row in enumerate(rows) for v, c in row.items()}
                assert cells == reference_completions_below(lo, hi, cap + 1), (hull, cap)

    def test_cutoff_is_the_walk_profile_of_rank_cap(self):
        for hull in self.hulls():
            lo, hi = _bounds(hull)
            for cap in self.CAPS:
                expected = next(itertools.islice(_walk(lo, hi), cap, None), None)
                if expected is not None:
                    assert restorability._cutoff(lo, hi, cap) == expected, (hull, cap)

    def test_rank_below_cap_iff_the_pattern_sorts_below_the_cutoff(self):
        # Every symmetric pattern of a hull of genus <= 8, and the first 3,000 of the others.
        for hull in self.hulls():
            lo, hi = _bounds(hull)
            g = (len(lo) - 1) // 2
            _, total, symmetric_count = restorability._counts(hull.vertices)
            if not symmetric_count:
                continue
            halves = itertools.islice(_walk(lo[: g + 1], hi[: g + 1]), 3000)
            symmetric = list(map(restorability._mirrored, halves))
            for cap in self.CAPS:
                if cap >= total:
                    continue
                cutoff = restorability._cutoff(lo, hi, cap)
                table = reference_completions_below(lo, hi, cap)
                for steps in symmetric:
                    below = reference_rank(steps, lo, table, cap) < cap
                    assert below == (steps < cutoff), (hull, cap, steps)


class TestWalkMadePatterns:
    # enumerate_gap_functions lists the walk's patterns without checking them again,
    # so every pattern it can list must pass the check.

    @staticmethod
    def assert_listed_patterns_are_valid(hull):
        for symmetric_only in (True, False):
            for cap in (1, 3, 10**4):
                report = enumerate_gap_functions(hull, symmetric_only, max_solutions=cap)
                for steps in report.witnesses._patterns:
                    restorability._check_step_pattern(steps)

    @pytest.mark.parametrize("g", range(9))
    def test_every_hull_up_to_genus_8(self, g):
        for hull in distinct_hulls(g):
            self.assert_listed_patterns_are_valid(hull)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_family_members(self, n):
        for delta in (k1(n), k2(n)):
            self.assert_listed_patterns_are_valid(knot_hull(delta))


class TestWitnessesSequence:
    PATTERNS = (bytes([2, 0, 0, 2, 0, 2, 0, 2, 2, 0]), bytes([2, 0, 0, 2, 2, 0, 0, 2, 2, 0]))  # pretzel

    def test_reads_like_a_tuple_of_gap_tuples(self):
        w = Witnesses(self.PATTERNS)
        gaps = ((1, 2, 4, 6, 9), (1, 2, 5, 6, 9))
        assert len(w) == 2 and tuple(w) == gaps and w == gaps
        assert w[0] == gaps[0] and w[-1] == gaps[1] and w[1:] == gaps[1:]
        assert list(reversed(w)) == list(reversed(gaps)) and w.index(gaps[1]) == 1
        assert Witnesses() == () and not Witnesses() and w != gaps[:1]
        assert hash(w) == hash(gaps)

    @pytest.mark.parametrize("gaps, member", [
        ((1, 2, 4, 6, 9), True), ([1, 2, 5, 6, 9], True), ((1, 2, 3, 6, 9), False),
        ((9, 6, 4, 2, 1), False), ((1, 2, 4, 6, 9, 9), False), ((1, 2, 4, 6), False),
        ((1, 2, 4, 6, 10), False), ((-1, 2, 4, 6, 9), False), ((), False),
        ((1, "a"), False), ((1.0, 2.0, 5.0), False), ((1.0, 2.0, 4.0, 6.0, 9.0), False),
        (5, False), ("12469", False),
    ])
    def test_membership_over_gap_tuples(self, gaps, member):
        assert (gaps in Witnesses(self.PATTERNS)) is member

    def test_report_stores_patterns(self):
        report = enumerate_gap_functions(hull_of(PRETZEL))
        assert report.witnesses == Witnesses(self.PATTERNS)

    def test_patterns_are_checked_once_when_built(self, monkeypatch):
        checked = []
        check = restorability._check_step_pattern
        monkeypatch.setattr(restorability, "_check_step_pattern",
                            lambda steps: checked.append(steps) or check(steps))
        w = Witnesses(self.PATTERNS)
        assert checked == list(self.PATTERNS)
        assert cli._json_text(w) == json.dumps([list(gaps) for gaps in w], indent=2)
        assert w[0] in w and w[1] == tuple(w)[1]
        assert len(checked) == 2  # reads and writes check nothing
        enumerate_gap_functions(hull_of(PRETZEL))  # the walk's patterns are not checked again
        assert len(checked) == 2
        flipped = w[::-1]  # a slice is not checked again
        assert len(checked) == 2 and list(flipped) == list(w)[::-1]


class TestPieceRoute:
    # --all lists a product of per-piece walks; the single-range walk is the reference.

    CAPS = (1, 2, 3, 10, 50, 10**4)

    @staticmethod
    def assert_lists_the_walk(hull, cap):
        report = enumerate_gap_functions(hull, symmetric_only=False, max_solutions=cap)
        flat = Witnesses._trusted(itertools.islice(_walk(*_bounds(hull)), cap))
        assert report.witnesses._patterns == flat._patterns, (hull, cap)
        assert len(report.witnesses) == len(flat)
        gaps = [list(gaps) for gaps in flat]
        text = cli._json_text(report.witnesses)
        assert text.split("\n") == json.dumps(gaps, indent=2).split("\n"), (hull, cap)

    @pytest.mark.parametrize("g", range(9))
    def test_every_hull_up_to_genus_8(self, g):
        for hull in distinct_hulls(g):
            for cap in self.CAPS:
                self.assert_lists_the_walk(hull, cap)

    @pytest.mark.parametrize("name", CAPPED)
    def test_capped_inputs(self, name):
        for cap in self.CAPS:
            self.assert_lists_the_walk(knot_hull(CAPPED[name]), cap)

    def test_family_hull_is_cut_at_every_many_path_segment(self):
        hull = knot_hull(k1(2))
        assert restorability._pieces(hull.vertices, restorability._counts(hull.vertices)[0]) == [
            (0, 8, 4), (8, 14, 3), (14, 22, 14), (22, 28, 3), (28, 36, 4)]
        assert len(enumerate_gap_functions(hull).witnesses._pieces) == 5

    @pytest.mark.parametrize("cap", [1, 3, 4])
    def test_one_varying_piece_is_joined_at_once(self, cap):
        # K1(2)'s last piece has 4 paths: up to 4 profiles vary in it alone.  They
        # stay a product, one path per earlier piece and no full pattern built,
        # and the writer joins the varying piece's texts in one block.
        witnesses = enumerate_gap_functions(knot_hull(k1(2)), max_solutions=cap).witnesses
        assert [len(paths) for paths in witnesses._pieces] == [1, 1, 1, 1, cap]
        assert witnesses._flat is None and len(witnesses) == cap
        block, closing = cli._witness_chunks(witnesses, "")
        assert block.count("\n  [") == cap and closing == "\n]"

    @pytest.mark.parametrize("cap", [5, 7, 50, 2016])
    def test_product_form_reads_like_the_flat_form(self, cap):
        product_form = enumerate_gap_functions(knot_hull(k1(2)), max_solutions=cap).witnesses
        assert len(product_form._pieces) == 5 and product_form._flat is None
        flat = Witnesses(product_form._patterns)
        gaps = tuple(flat)
        assert len(flat._pieces) == 1
        assert product_form == flat and flat == product_form and product_form == gaps
        assert hash(product_form) == hash(flat) == hash(gaps)
        assert len(product_form) == len(flat) == cap
        for i in (0, cap // 2, cap - 1, -1, -cap):
            assert product_form[i] == flat[i] == gaps[i]
        for cut in (slice(None), slice(1, None), slice(None, None, -1), slice(0, cap, 3)):
            assert product_form[cut] == flat[cut] == gaps[cut]
        assert list(reversed(product_form)) == list(reversed(flat)) == list(reversed(gaps))
        assert product_form.index(gaps[-1]) == flat.index(gaps[-1]) == cap - 1
        assert gaps[0] in product_form and gaps[-1] in product_form
        assert (1, 2, 5) not in product_form and (1, 2, 5) not in flat
        assert repr(product_form) == repr(flat)


class TestPieceWalkWork:
    # An --all report walks each piece only as far as the listed profiles reach.

    CAPS = (1, 2, 3, 7, 10, 50, 1000, 10**4)

    @staticmethod
    def piece_count(hull):
        return len(restorability._pieces(hull.vertices, restorability._counts(hull.vertices)[0]))

    @staticmethod
    def hulls():
        for g in range(9):
            yield from distinct_hulls(g)
        for n in (1, 2, 3, 10):
            yield knot_hull(k1(n))
            yield knot_hull(k2(n))
        for p, q in ((2, 5), (3, 7), (5, 9), (9, 11), (13, 23)):
            yield knot_hull(torus(p, q))

    @pytest.fixture
    def walked(self, monkeypatch):
        yields = []
        walk = restorability._walk

        def counting(lo, hi):
            for steps in walk(lo, hi):
                yields.append(steps)
                yield steps

        monkeypatch.setattr(restorability, "_walk", counting)
        return yields

    def test_walks_at_most_listed_plus_pieces(self, walked):
        for hull in self.hulls():
            for cap in self.CAPS:
                walked.clear()
                witnesses = enumerate_gap_functions(hull, max_solutions=cap).witnesses
                assert len(walked) <= len(witnesses) + self.piece_count(hull), (hull, cap)

    def test_one_solution_walks_one_path_per_piece(self, walked):
        for hull in self.hulls():
            walked.clear()
            witnesses = enumerate_gap_functions(hull, max_solutions=1).witnesses
            assert len(walked) == self.piece_count(hull), hull
            assert len(witnesses) == 1
