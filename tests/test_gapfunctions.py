"""Gap function construction, inversion, and symmetry, against table data."""

import itertools
import math

import pytest

from upsilon_lab.errors import InvalidStepPattern
from upsilon_lab.gapfunctions import GapFunction
from upsilon_lab.laurent import IntLaurentPoly
from upsilon_lab.semigroups import FormalSemigroup, torus_semigroup

from test_semigroups import all_gap_sequences

P = IntLaurentPoly.from_pairs


def oracle_values(gaps, g):
    """Recompute 2J(-k) = 2*I(g-k) from a materialized gap set."""
    explicit = set(gaps) | {-i for i in range(1, 4 * g + 4)}
    out = []
    for k in range(-g, g + 1):
        m = g - k
        out.append(2 * sum(1 for i in explicit if i >= m))
    return tuple(out)


def bisect_values(s: FormalSemigroup) -> tuple[int, ...]:
    """The former construction: one count_gaps_at_least bisect per sample."""
    g = s.genus
    return tuple(2 * s.count_gaps_at_least(g - k) for k in range(-g, g + 1))


class TestFromSemigroup:
    def test_pretzel_table(self):
        gf = GapFunction.from_semigroup(FormalSemigroup([1, 2, 4, 6, 9]))
        assert gf.values == (0, 2, 2, 2, 4, 4, 6, 6, 8, 10, 10)

    def test_unknot(self):
        gf = GapFunction.from_semigroup(FormalSemigroup([]))
        assert gf.values == (0,)

    def test_family_k2_table_at_n1(self):
        from upsilon_lab.family import FamilyKnot, semigroup_closed_form

        gf = GapFunction.from_semigroup(semigroup_closed_form(FamilyKnot("K2", 1)))
        # Value 2n+6 = 8 at argument -2n+1 = -1.
        assert gf.value_at(-1) == 8
        assert gf.values == oracle_values(gf.to_semigroup().gaps, gf.genus)

    def test_oracle_agreement_exhaustive(self):
        for g in range(7):
            for gaps in all_gap_sequences(g):
                gf = GapFunction.from_semigroup(FormalSemigroup(gaps))
                assert gf.values == oracle_values(gaps, g), gaps

    def test_one_pass_matches_bisect_formula_exhaustive(self):
        for g in range(10):
            for gaps in all_gap_sequences(g):
                s = FormalSemigroup(gaps)
                assert GapFunction.from_semigroup(s).values == bisect_values(s), gaps

    def test_one_pass_matches_bisect_formula_on_torus_knots(self):
        # Every T(p, q), 1 < p < q coprime, of genus at most 500.
        for p, q in ((p, q) for p in range(2, 33) for q in range(p + 1, 1002)
                     if math.gcd(p, q) == 1 and (p - 1) * (q - 1) <= 1000):
            s = torus_semigroup(p, q)
            assert GapFunction.from_semigroup(s).values == bisect_values(s), (p, q)

    def test_rays(self):
        gf = GapFunction.from_semigroup(FormalSemigroup([1, 2, 5]))
        assert gf.value_at(-10) == 0
        assert gf.value_at(7) == 14


class TestInvariants:
    def test_constructor_enforces_shape(self):
        with pytest.raises(ValueError):
            GapFunction([0, 2])  # even count
        with pytest.raises(ValueError):
            GapFunction([2, 2, 2])  # left anchor
        with pytest.raises(ValueError):
            GapFunction([0, 2, 0])  # right anchor / monotonicity
        with pytest.raises(ValueError):
            GapFunction([0, 1, 2])  # odd step

    @pytest.mark.parametrize("values, bad", [
        ([0.0, 2.9, 2], "0.0"), ([0, 2.9, 2], "2.9"), (["0", "2", "2"], "'0'"),
        ([False, 2, 2], "False"), ([0, True, 2], "True"),
    ], ids=["floats", "float", "strings", "false", "true"])
    def test_non_int_values_refused(self, values, bad):
        # int() would turn [0.0, 2.9, 2] into the values (0, 2, 2).
        with pytest.raises(TypeError, match=f"value {bad} is not an int"):
            GapFunction(values)

    def test_generated_values_always_valid(self):
        for g in range(7):
            for gaps in all_gap_sequences(g):
                gf = GapFunction.from_semigroup(FormalSemigroup(gaps))
                assert gf.values[0] == 0
                assert gf.values[-1] == 2 * g
                assert all(d in (0, 2) for d in gf.steps())


class TestGapsFromFunction:
    def test_pretzel_inverse(self):
        gf = GapFunction((0, 2, 2, 2, 4, 4, 6, 6, 8, 10, 10))
        assert gf.to_semigroup().gaps == (1, 2, 4, 6, 9)

    def test_trivial(self):
        assert GapFunction((0,)).to_semigroup().gaps == ()

    def test_designed_family_m4_table(self):
        # Profile of 1 - t + t^4 - t^5 + t^6 - t^9 + t^10: g = 5, jumps at
        # -5->-4 then -1->0, 1->2, 2->3, 3->4 (flat at 0->1 and at the top).
        delta = P([[0, 1], [1, -1], [4, 1], [5, -1], [6, 1], [9, -1], [10, 1]])
        expected = FormalSemigroup.from_alexander(delta)
        gf = GapFunction((0, 2, 2, 2, 2, 4, 4, 6, 8, 10, 10))
        assert gf.to_semigroup() == expected
        assert gf == GapFunction.from_semigroup(expected)

    def test_round_trip_exhaustive(self):
        for g in range(7):
            for gaps in all_gap_sequences(g):
                s = FormalSemigroup(gaps)
                assert GapFunction.from_semigroup(s).to_semigroup() == s

    def test_rejects_gap_at_zero(self):
        # Final step up means 0 would be a gap.
        with pytest.raises(InvalidStepPattern):
            GapFunction((0, 0, 2)).to_semigroup()

    def test_rejects_missing_top_gap(self):
        # First step flat means the top gap is below 2g-1.
        with pytest.raises(InvalidStepPattern):
            GapFunction((0, 0, 2, 2, 4)).to_semigroup()


class TestSymmetryOfFunction:
    def test_pretzel(self):
        gf = GapFunction((0, 2, 2, 2, 4, 4, 6, 6, 8, 10, 10))
        assert gf.value_at(3) == 8 and gf.value_at(-3) == 2
        assert gf.is_symmetric()

    def test_trivial(self):
        assert GapFunction((0,)).is_symmetric()

    def test_asymmetric_example_found_by_search(self):
        asymmetric = None
        for steps in itertools.product((0, 2), repeat=6):
            if sum(steps) != 6:
                continue
            values = [0]
            for s in steps:
                values.append(values[-1] + s)
            gf = GapFunction(values)
            if not gf.is_symmetric():
                asymmetric = gf
                break
        assert asymmetric is not None
        assert not asymmetric.is_symmetric()

    def test_matches_definition_on_every_step_pattern(self):
        for g in range(6):
            for steps in itertools.product((0, 2), repeat=2 * g):
                if sum(steps) != 2 * g:
                    continue
                gf = GapFunction(itertools.accumulate((0, *steps)))
                expected = all(gf.value_at(k) == gf.value_at(-k) + 2 * k for k in range(g + 1))
                assert gf.is_symmetric() == expected, steps

    def test_matches_semigroup_symmetry_exhaustive(self):
        for g in range(7):
            for gaps in all_gap_sequences(g):
                s = FormalSemigroup(gaps)
                assert GapFunction.from_semigroup(s).is_symmetric() == s.symmetry_check()


class TestPLBridge:
    def test_interpolation_matches_values_and_rays(self):
        for gaps in ((1, 2, 4, 6, 9), (1,), ()):
            gf = GapFunction.from_semigroup(FormalSemigroup(gaps))
            f = gf.to_pl()
            g = gf.genus
            for k in range(-g - 2, g + 3):
                assert f(k) == gf.value_at(k), (gaps, k)
            assert all(s in (0, 2) for s in f.slope_sequence())
