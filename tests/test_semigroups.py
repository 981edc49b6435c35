"""Formal semigroups: conversions, closure test, torus semigroups, symmetry."""

import itertools
import math
import random
from collections import Counter

import pytest

from upsilon_lab.errors import BadParameters, NotLSpaceForm
from upsilon_lab.laurent import IntLaurentPoly
from upsilon_lab.semigroups import (
    FormalSemigroup,
    _alexander_of_runs,
    _closure_shifts,
    _runs_of_gaps,
    gap_runs,
    lspace_runs,
    torus_semigroup,
)

from test_laurent import K2_N1

P = IntLaurentPoly.from_pairs

PRETZEL = P([[0, 1], [1, -1], [3, 1], [4, -1], [5, 1], [6, -1], [7, 1], [9, -1], [10, 1]])
V2871 = P(
    [[0, 1], [1, -1], [4, 1], [5, -1], [7, 1], [8, -1], [9, 1], [11, -1],
     [12, 1], [15, -1], [16, 1]]
)
T09847 = P([[0, 1], [1, -1], [4, 1], [5, -1], [7, 1], [9, -1], [10, 1], [13, -1], [14, 1]])


def all_gap_sequences(g: int):
    """Every strictly increasing gap sequence with top gap 2g-1."""
    if g == 0:
        yield ()
        return
    for rest in itertools.combinations(range(1, 2 * g - 1), g - 1):
        yield rest + (2 * g - 1,)


class TestFromAlexander:
    def test_pretzel(self):
        s = FormalSemigroup.from_alexander(PRETZEL)
        assert s.gaps == (1, 2, 4, 6, 9)
        members = [x for x in range(12) if s.contains(x)]
        assert members == [0, 3, 5, 7, 8, 10, 11]

    def test_unknot(self):
        s = FormalSemigroup.from_alexander(IntLaurentPoly.one())
        assert s.gaps == ()
        assert s.contains(0) and s.contains(7) and not s.contains(-1)

    def test_v2871(self):
        s = FormalSemigroup.from_alexander(V2871)
        assert [x for x in range(16) if s.contains(x)] == [0, 4, 7, 9, 10, 12, 13, 14]
        assert s.gaps == (1, 2, 3, 5, 6, 8, 11, 15)

    def test_rejects_bad_partial_sum_with_exponent(self):
        with pytest.raises(NotLSpaceForm) as err:
            FormalSemigroup.from_alexander(P([[0, 1], [1, 1], [2, 1]]))
        assert err.value.exponent == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(NotLSpaceForm):
            FormalSemigroup.from_alexander(P([[1, 1], [2, -1], [3, 1]]))

    def test_agrees_with_exponent_walk(self):
        # Every polynomial with exponents 0..5 and coefficients in -1..2:
        # the term walk gives the gaps, or the error and exponent, that
        # walking every exponent gives.
        for coeffs in itertools.product(range(-1, 3), repeat=6):
            delta = IntLaurentPoly(dict(enumerate(coeffs)))
            try:
                want = dense_from_alexander(delta)
            except NotLSpaceForm as exc:
                with pytest.raises(NotLSpaceForm) as err:
                    FormalSemigroup.from_alexander(delta)
                assert (str(err.value), err.value.exponent) == (str(exc), exc.exponent)
            else:
                assert FormalSemigroup.from_alexander(delta).gaps == want

    def test_huge_degree_rejected_from_terms(self):
        with pytest.raises(NotLSpaceForm, match="degree 10000000 does not equal"):
            gap_runs(P([[0, 1], [1, -1], [10**7, 1]]))


def dense_from_alexander(delta: IntLaurentPoly) -> tuple[int, ...]:
    """Reference: walk every exponent up to the degree, summing coefficients."""
    if delta.is_zero:
        raise NotLSpaceForm("zero polynomial")
    if delta.min_exp != 0 or delta.coeff(0) != 1:
        raise NotLSpaceForm("polynomial is not in knot-normal form")
    psum, gaps = 0, []
    for e in range(delta.max_exp + 1):
        psum += delta.coeff(e)
        if psum not in (0, 1):
            raise NotLSpaceForm(f"partial coefficient sum {psum} at exponent {e}", exponent=e)
        if psum == 0:
            gaps.append(e)
    if psum != 1:
        raise NotLSpaceForm(f"Delta(1) = {psum}, expected 1")
    if 2 * len(gaps) != delta.max_exp:
        raise NotLSpaceForm(
            f"degree {delta.max_exp} does not equal twice the gap count {len(gaps)}"
        )
    return tuple(gaps)


def per_gap_alexander(gaps) -> IntLaurentPoly:
    """Delta = 1 + (t - 1) * sum_i t^{a_i}, one term per gap through the summing constructor."""
    return IntLaurentPoly([(0, 1)] + [(a + 1, 1) for a in gaps] + [(a, -1) for a in gaps])


def coprime_torus_pairs(max_q: int):
    return [(p, q) for q in range(3, max_q + 1) for p in range(2, q) if math.gcd(p, q) == 1]


class TestToAlexander:
    def test_matches_the_per_gap_definition(self):
        # to_alexander goes gaps -> runs -> Delta; every formal gap set with g <= 8.
        seen = 0
        for g in range(9):
            for gaps in all_gap_sequences(g):
                delta = per_gap_alexander(gaps)
                assert FormalSemigroup(gaps).to_alexander() == delta, gaps
                assert _runs_of_gaps(gaps) == gap_runs(delta), gaps
                seen += 1
        assert seen == 4708

    def test_torus_matches_the_per_gap_definition(self):
        pairs = coprime_torus_pairs(40)
        assert len(pairs) == 450
        for p, q in pairs:
            s = torus_semigroup(p, q)
            delta = per_gap_alexander(s.gaps)
            runs = _runs_of_gaps(s.gaps)
            assert s.to_alexander() == delta, (p, q)
            assert runs == lspace_runs(delta), (p, q)
            assert _alexander_of_runs(runs) == delta, (p, q)

    def test_pretzel_gaps(self):
        assert FormalSemigroup([1, 2, 4, 6, 9]).to_alexander() == PRETZEL

    def test_empty(self):
        assert FormalSemigroup([]).to_alexander() == IntLaurentPoly.one()

    def test_alternative_pretzel_profile(self):
        assert FormalSemigroup([1, 2, 5, 6, 9]).to_alexander() == P(
            [[0, 1], [1, -1], [3, 1], [5, -1], [7, 1], [9, -1], [10, 1]]
        )

    def test_round_trips_exhaustive(self):
        # Every valid gap sequence with g <= 6 survives gaps -> Delta -> gaps.
        for g in range(7):
            for gaps in all_gap_sequences(g):
                s = FormalSemigroup(gaps)
                assert FormalSemigroup.from_alexander(s.to_alexander()) == s


class TestLSpaceForm:
    """lspace_runs: the gap runs for the shape 1 - t + t^{a_2} - ... + t^{2g}, else None."""

    def test_torus_34(self):
        assert lspace_runs(P([[0, 1], [1, -1], [3, 1], [5, -1], [6, 1]])) == [(1, 3), (5, 6)]

    def test_coefficient_two_rejected(self):
        assert lspace_runs(P([[0, 1], [1, -2], [2, 2], [3, -2], [4, 1]])) is None

    def test_family_k2_at_n1(self):
        assert lspace_runs(K2_N1) is not None

    def test_unknot(self):
        assert lspace_runs(IntLaurentPoly.one()) == []

    def test_odd_top_degree_rejected(self):
        assert lspace_runs(IntLaurentPoly({0: 1, 1: -1, 3: 1})) is None

    def test_first_gap_must_be_one(self):
        assert lspace_runs(IntLaurentPoly({0: 1, 2: -1, 4: 1})) is None

    def test_lspace_implies_symmetric_over_random_gap_sets(self):
        # Symmetric gap sequences generate L-space-form polynomials; those
        # polynomials must test symmetric and take value 1 at t = 1.
        rng = random.Random(23)
        found = 0
        while found < 50:
            g = rng.randint(1, 7)
            members = set()
            for s in range(1, 2 * g):
                if rng.random() < 0.5:
                    members.add(s)
            gaps = sorted(s for s in range(1, 2 * g) if s not in members)
            try:
                sg = FormalSemigroup(gaps)
            except ValueError:
                continue
            if not sg.symmetry_check():
                continue
            delta = sg.to_alexander()
            if lspace_runs(delta) is None:
                continue
            found += 1
            assert delta(1) == 1
            assert delta.is_symmetric()

    def test_agrees_with_gap_runs(self):
        # Every polynomial with exponents 0..6 and coefficients in -1..2: the
        # gate gives the runs exactly when gap_runs succeeds with gap 1 (or no
        # gap), and raises only where gap_runs raises the same degree text.
        seen = {"runs": 0, "raised": 0, "formal without gap 1": 0, "rejected": 0}
        for coeffs in itertools.product(range(-1, 3), repeat=7):
            delta = IntLaurentPoly(dict(enumerate(coeffs)))
            try:
                runs, error = gap_runs(delta), None
            except NotLSpaceForm as exc:
                runs, error = None, str(exc)
            try:
                got = lspace_runs(delta)
            except NotLSpaceForm as exc:
                assert str(exc) == error, coeffs
                seen["raised"] += 1
                continue
            if runs is not None and (not runs or runs[0][0] == 1):
                assert got == runs, coeffs
                seen["runs"] += 1
            else:
                assert got is None, coeffs
                seen["formal without gap 1" if runs is not None else "rejected"] += 1
        assert seen == {"runs": 6, "raised": 6, "formal without gap 1": 4, "rejected": 16368}

    def test_same_outcome_as_gap_runs(self):
        # Every polynomial with exponents 0..6 and coefficients in -1..1, and
        # a few alternating ones shifted to a negative minimum exponent:
        # lspace_runs returns the runs, or raises the same NotLSpaceForm, that
        # gap_runs gives when the polynomial has gap 1 (its t^1 coefficient is
        # -1) and an even top exponent, or is the constant 1; otherwise None.
        def outcome(gate, delta):
            try:
                return gate(delta)
            except NotLSpaceForm as exc:
                return str(exc), exc.exponent

        shifted = [IntLaurentPoly({e - k: (-1) ** i for i, e in enumerate(exps)})
                   for exps in ([0], [0, 1, 2], [0, 1, 3, 5, 6], [0, 2, 4]) for k in (1, 2, 3)]
        dense = [IntLaurentPoly(dict(enumerate(coeffs)))
                 for coeffs in itertools.product((-1, 0, 1), repeat=7)]
        seen = Counter()
        for delta in dense + shifted:
            want = outcome(gap_runs, delta)
            degree_error = isinstance(want, tuple) and "does not equal twice" in want[0]
            shaped = delta == 1 or (delta.coeff(1) == -1 and delta.max_exp % 2 == 0)
            if not (isinstance(want, list) or degree_error) or not shaped:
                want = None
            assert outcome(lspace_runs, delta) == want, delta
            seen["None" if want is None else type(want).__name__] += 1
        assert seen == {"list": 6, "tuple": 6, "None": 2187}


class TestInvariantEnforcement:
    def test_top_gap_must_be_odd_threshold(self):
        with pytest.raises(ValueError):
            FormalSemigroup([1, 2])

    def test_gaps_positive(self):
        with pytest.raises(ValueError):
            FormalSemigroup([0, 1, 5])

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            FormalSemigroup([1, 1, 3])

    @pytest.mark.parametrize("gaps, bad", [
        ([1, 2.7, 5], "2.7"), ([1, 2.0, 5], "2.0"), (["1", "2", "5"], "'1'"),
        ([True], "True"), ([1, 2, 5.0], "5.0"),
    ], ids=["float", "integral-float", "strings", "true", "float-top-gap"])
    def test_non_int_gaps_refused(self, gaps, bad):
        # int() would turn [1, 2.7, 5] into T(3,4)'s gaps (1, 2, 5).
        with pytest.raises(TypeError, match=f"gap {bad} is not an int"):
            FormalSemigroup(gaps)


def closure_pairwise(s: FormalSemigroup):
    """The pairwise closure check the bit-mask one replaced, kept as its oracle."""
    bound = 2 * s.genus
    members = s.elements_below(bound)
    for i, a in enumerate(members):
        for b in members[i:]:
            if a + b >= bound:
                break
            if not s.contains(a + b):
                return False, (a, b)
    return True, None


class TestClosedUnderAddition:
    @pytest.mark.parametrize("g", range(10))
    def test_matches_pairwise_on_every_gap_sequence(self, g):
        for gaps in all_gap_sequences(g):
            s = FormalSemigroup(gaps)
            assert s.is_closed_under_addition() == closure_pairwise(s), gaps

    def test_shifts_are_the_multiplicity_then_the_apery_elements_below_g(self):
        sets = [*all_gap_sequences(7), torus_semigroup(7, 30).gaps, torus_semigroup(2, 101).gaps]
        for gaps in sets:
            s = FormalSemigroup(gaps)
            g = s.genus
            members = [x for x in range(1, g) if s.contains(x)]
            expected, classes = [], {0}  # m, then the least member below g of each other class mod m
            for x in members:
                if x == members[0] or x % members[0] not in classes:
                    classes.add(x % members[0])
                    expected.append(x)
            digits = bytearray(b"01"[s.contains(i)] for i in range(2 * g))
            assert list(_closure_shifts(digits, g)) == expected, gaps

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 101), (3, 7), (4, 9), (5, 12), (7, 30),
                                     (11, 31), (17, 49), (21, 52)])
    def test_matches_pairwise_on_torus_ladder(self, p, q):
        s = torus_semigroup(p, q)
        assert s.is_closed_under_addition() == closure_pairwise(s) == (True, None)

    def test_matches_pairwise_on_family_ladder(self):
        from upsilon_lab.family import FamilyKnot, semigroup_closed_form

        for which in ("K1", "K2"):
            for n in (1, 2, 5, 20):
                s = semigroup_closed_form(FamilyKnot(which, n))
                assert s.is_closed_under_addition() == closure_pairwise(s), (which, n)

    def test_torus_truncation_closed(self):
        closed, witness = torus_semigroup(3, 4).is_closed_under_addition()
        assert closed and witness is None

    def test_family_k1_n2_witness(self):
        from upsilon_lab.family import FamilyKnot, semigroup_closed_form

        s = semigroup_closed_form(FamilyKnot("K1", 2))
        closed, witness = s.is_closed_under_addition()
        assert not closed
        assert witness == (4, 8)
        assert s.contains(4) and s.contains(8) and not s.contains(12)

    def test_t09847_is_closed(self):
        # {0,4,7,8,10,11,12} from 14 on: the only sums below 14 are
        # 4+4=8, 4+7=11, 4+8=12, all members, so this formal semigroup is
        # closed (consistent with it being shared with an iterated torus
        # knot).  Exhaustive pair scan double-checks.
        s = FormalSemigroup.from_alexander(T09847)
        closed, witness = s.is_closed_under_addition()
        assert closed and witness is None
        members = s.elements_below(2 * s.genus)
        assert all(
            s.contains(a + b)
            for a in members
            for b in members
            if a + b < 2 * s.genus
        )

    def test_v2871_not_closed(self):
        closed, witness = FormalSemigroup.from_alexander(V2871).is_closed_under_addition()
        assert not closed
        assert witness == (4, 4)


class TestTorusSemigroup:
    def test_t34(self):
        s = torus_semigroup(3, 4)
        assert s.gaps == (1, 2, 5)
        assert s.genus == 3
        assert [x for x in range(9) if s.contains(x)] == [0, 3, 4, 6, 7, 8]

    def test_t23(self):
        assert torus_semigroup(2, 3).gaps == (1,)

    def test_t35(self):
        s = torus_semigroup(3, 5)
        assert s.gaps == (1, 2, 4, 7)
        assert s.genus == 4

    def test_gap_count_formula(self):
        for p in range(2, 8):
            for q in range(p + 1, 14):
                if __import__("math").gcd(p, q) != 1:
                    continue
                s = torus_semigroup(p, q)
                assert s.genus == (p - 1) * (q - 1) // 2

    def test_matches_reachability(self):
        # The definition: n is a member iff n - p or n - q is (0 is); the gaps lie below (p-1)(q-1).
        for p in range(2, 60):
            for q in range(p + 1, 61):
                if math.gcd(p, q) != 1:
                    continue
                bound = (p - 1) * (q - 1)
                member = [True] + [False] * bound
                for n in range(1, bound + 1):
                    member[n] = n >= p and member[n - p] or n >= q and member[n - q]
                gaps = tuple(n for n in range(bound) if not member[n])
                assert torus_semigroup(p, q) == FormalSemigroup(gaps), (p, q)

    @pytest.mark.parametrize("p,q", [(1, 3), (3, 3), (4, 2), (2, 4), (6, 9)])
    def test_bad_parameters(self, p, q):
        with pytest.raises(BadParameters):
            torus_semigroup(p, q)


class TestSymmetryCheck:
    def test_pretzel(self):
        assert FormalSemigroup([1, 2, 4, 6, 9]).symmetry_check()

    def test_small_symmetric(self):
        assert FormalSemigroup([1, 3]).symmetry_check()

    def test_small_asymmetric(self):
        # gaps {2,3}: 1 is in S but 2g-1-1 = 2 is a gap as required; 0 in S
        # and 3 a gap: actually symmetric.  An asymmetric witness needs g=3.
        assert FormalSemigroup([2, 3]).symmetry_check()
        assert not FormalSemigroup([1, 4, 5]).symmetry_check()

    def test_matches_polynomial_symmetry_exhaustively(self):
        for g in range(7):
            for gaps in all_gap_sequences(g):
                s = FormalSemigroup(gaps)
                assert s.symmetry_check() == s.to_alexander().is_symmetric(), gaps


class TestGenusAndThreshold:
    def test_family_k1_n1(self):
        from test_laurent import K1_N1

        s = FormalSemigroup.from_alexander(K1_N1)
        assert s.genus == 12
        assert s.surgery_threshold == 23

    def test_unknot(self):
        s = FormalSemigroup.from_alexander(IntLaurentPoly.one())
        assert s.genus == 0
        assert s.surgery_threshold == -1

    def test_pretzel(self):
        s = FormalSemigroup.from_alexander(PRETZEL)
        assert s.genus == 5
        assert s.surgery_threshold == 9
