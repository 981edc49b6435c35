"""Twist family: three polynomial derivations, semigroups, hulls, catalog."""

from fractions import Fraction as F

import pytest

from upsilon_lab.braids import MAX_TWIST
from upsilon_lab.errors import UnknownName
from upsilon_lab.family import (
    TRI_ALEXANDER_K1,
    TRI_ALEXANDER_K2,
    FamilyKnot,
    alexander_closed_form,
    alexander_via_burau,
    alexander_via_torres,
    catalog_knot,
    catalog_names,
    check_catalog_entry,
    hull_closed_form,
    semigroup_closed_form,
    verify_family_pair,
)
from upsilon_lab.gapfunctions import GapFunction
from upsilon_lab.invariants import upsilon_of
from upsilon_lab.semigroups import FormalSemigroup, lspace_runs

from test_laurent import K1_N1, K2_N1


class TestClosedForms:
    def test_k1_n1_hand_expansion(self):
        assert alexander_closed_form(FamilyKnot("K1", 1)) == K1_N1

    def test_k2_n1_hand_expansion(self):
        delta = alexander_closed_form(FamilyKnot("K2", 1))
        assert delta == K2_N1
        # The even-step block contributes t^12 - t^11 + t^14 - t^13 at n=1.
        assert delta.coeff(11) == -1 and delta.coeff(12) == 1
        assert delta.coeff(13) == -1 and delta.coeff(14) == 1

    @pytest.mark.parametrize("which", ["K1", "K2"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_degree_counts_genus(self, which, n):
        delta = alexander_closed_form(FamilyKnot(which, n))
        assert delta.max_exp == 12 * n + 12
        assert lspace_runs(delta) is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            FamilyKnot("K3", 1)
        with pytest.raises(ValueError):
            FamilyKnot("K1", 0)
        FamilyKnot("K1", MAX_TWIST)
        with pytest.raises(ValueError):
            FamilyKnot("K2", MAX_TWIST + 1)

    @pytest.mark.parametrize("n", [True, 1.0, 2.5, "1", None])
    def test_n_must_be_exactly_int(self, n):
        # True and 1.0 compare within range: True used to build "K1(True)".
        with pytest.raises(TypeError, match="must be an int"):
            FamilyKnot("K1", n)


class TestTorresDerivation:
    def test_fixture_checksums(self):
        # A multi-component link polynomial vanishes at (1,1,1).
        assert TRI_ALEXANDER_K1.substitute(0, 0, 0).is_zero
        assert TRI_ALEXANDER_K2.substitute(0, 0, 0).is_zero
        assert len(TRI_ALEXANDER_K1) == 12
        assert len(TRI_ALEXANDER_K2) == 16

    @pytest.mark.parametrize("which", ["K1", "K2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_closed_form(self, which, n):
        knot = FamilyKnot(which, n)
        assert alexander_via_torres(knot) == alexander_closed_form(knot)

    def test_substituted_link_polynomial_has_twelve_terms_at_n1(self):
        assert len(TRI_ALEXANDER_K1.substitute(1, 4, 6)) == 12


class TestBurauDerivation:
    @pytest.mark.parametrize("which", ["K1", "K2"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_closed_form(self, which, n):
        knot = FamilyKnot(which, n)
        assert alexander_via_burau(knot) == alexander_closed_form(knot)


class TestSemigroups:
    @pytest.mark.parametrize("which", ["K1", "K2"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_matches_expansion(self, which, n):
        knot = FamilyKnot(which, n)
        expected = FormalSemigroup.from_alexander(alexander_closed_form(knot))
        assert semigroup_closed_form(knot) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_distinguishing_element(self, n):
        # 4n+7 separates the two members.
        s1 = semigroup_closed_form(FamilyKnot("K1", n))
        s2 = semigroup_closed_form(FamilyKnot("K2", n))
        assert s1.contains(4 * n + 7)
        assert not s2.contains(4 * n + 7)

    def test_initial_multiples_of_four(self):
        s = semigroup_closed_form(FamilyKnot("K1", 2))
        for x in (0, 4, 8):
            assert s.contains(x)
        assert not s.contains(12)


class TestGapCountTables:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_k1_gap_count_anchors(self, n):
        # Spot values of I(m) for K1: the count drops by one at each gap.
        s = semigroup_closed_form(FamilyKnot("K1", n))
        assert s.count_gaps_at_least(12 * n + 12) == 0
        assert s.count_gaps_at_least(12 * n + 11) == 1
        assert s.count_gaps_at_least(8 * n + 8) == n + 2
        assert s.count_gaps_at_least(4 * n + 4) == 3 * n + 4
        assert s.count_gaps_at_least(1) == 6 * n + 6
        assert s.count_gaps_at_least(-2) == 6 * n + 8

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_k2_gap_count_anchors(self, n):
        s = semigroup_closed_form(FamilyKnot("K2", n))
        assert s.count_gaps_at_least(8 * n + 15) == n
        assert s.count_gaps_at_least(8 * n + 11) == n + 1
        assert s.count_gaps_at_least(8 * n + 5) == n + 3
        assert s.count_gaps_at_least(4 * n + 4) == 3 * n + 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_k1_gap_function_anchors(self, n):
        gf = GapFunction.from_semigroup(semigroup_closed_form(FamilyKnot("K1", n)))
        assert gf.value_at(-6 * n - 6) == 0
        assert gf.value_at(-6 * n - 5) == 2
        assert gf.value_at(-2 * n - 2) == 2 * n + 4
        assert gf.value_at(-2 * n + 1) == 2 * n + 6
        assert gf.value_at(2 * n + 2) == 6 * n + 8
        assert gf.value_at(6 * n + 5) == 12 * n + 12

    @pytest.mark.parametrize("n", [2, 3])
    def test_k2_gap_function_anchors(self, n):
        gf = GapFunction.from_semigroup(semigroup_closed_form(FamilyKnot("K2", n)))
        assert gf.value_at(-2 * n + 1) == 2 * n + 6
        assert gf.value_at(-2 * n + 3) == 2 * n + 8
        assert gf.value_at(2 * n - 1) == 6 * n + 4
        assert gf.value_at(2 * n + 1) == 6 * n + 6


class TestFamilyUpsilonValues:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_breakpoint_values(self, n):
        # Upsilon at the slope-1 breakpoint is -4n-4; at 2/3 it is
        # (2/3)(-2n-6) - 2n = -(10n+12)/3.
        upsilon = upsilon_of(alexander_closed_form(FamilyKnot("K1", n)))
        assert upsilon(1) == -4 * n - 4
        assert upsilon(F(2, 3)) == F(-(10 * n + 12), 3)
        assert upsilon(F(1, 2)) == F(-6 * n - 6, 2)


class TestHullClosedForm:
    def test_anchor_values_at_n1(self):
        hull = hull_closed_form(1)
        assert hull(-8) == 2
        assert hull(2) == 10
        assert hull(-12) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_computed_envelope(self, n):
        for which in ("K1", "K2"):
            sg = semigroup_closed_form(FamilyKnot(which, n))
            env = GapFunction.from_semigroup(sg).envelope()
            assert env == hull_closed_form(n)

    def test_slopes(self):
        hull = hull_closed_form(3)
        assert hull.slope_sequence() == [0, F(1, 2), F(2, 3), 1, F(4, 3), F(3, 2), 2]


class TestVerifyFamilyPair:
    @pytest.mark.parametrize("n", [1, 2])
    def test_all_checks_pass(self, n):
        result = verify_family_pair(n)
        assert result.ok, {k: c.detail for k, c in result.checks.items() if not c.ok}

    def test_n4_spot_check(self):
        assert verify_family_pair(4).ok

    def test_upsilon_initial_slope_is_minus_genus(self):
        upsilon = upsilon_of(alexander_closed_form(FamilyKnot("K1", 1)))
        assert upsilon.segment_slopes()[0] == -12

    def test_burau_control(self):
        # The Burau cross-check runs for n <= 2 only.
        assert "burau_K1" in verify_family_pair(1).checks
        assert "burau_K1" not in verify_family_pair(3).checks

    def test_report_json_shape(self):
        data = verify_family_pair(1).to_json()
        assert data["ok"] is True
        assert set(data["checks"]) >= {"alexander_distinct", "upsilon_equal"}


class TestCatalog:
    def test_names(self):
        assert set(catalog_names()) == {
            "pretzel_237", "T(3,4)", "T(3,5)", "t09847", "v2871", "cable_alt_237",
        }

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            catalog_knot("m240")

    def test_t09847_semigroup(self):
        entry = catalog_knot("t09847")
        s = FormalSemigroup.from_alexander(entry.alexander)
        assert [x for x in range(14) if s.contains(x)] == [0, 4, 7, 8, 10, 11, 12]

    def test_t35_upsilon_pieces(self):
        entry = catalog_knot("T(3,5)")
        ups = upsilon_of(entry.alexander)
        assert ups == entry.upsilon
        assert ups(F(2, 3)) == F(-8, 3)
        assert ups(1) == -3

    def test_v2871_gap_set(self):
        assert catalog_knot("v2871").gaps == (1, 2, 3, 5, 6, 8, 11, 15)

    def test_all_entries_fully_consistent(self):
        for name in catalog_names():
            check_catalog_entry(catalog_knot(name), burau=True)

    def test_all_entries_lspace_form_symmetric_unit_value(self):
        for name in catalog_names():
            delta = catalog_knot(name).alexander
            assert lspace_runs(delta) is not None, name
            assert delta(1) == 1, name
            assert delta.is_symmetric(), name

    def test_cable_alt_shares_pretzel_hull(self):
        pretzel = catalog_knot("pretzel_237")
        cable = catalog_knot("cable_alt_237")
        assert pretzel.alexander != cable.alexander
        assert upsilon_of(pretzel.alexander) == upsilon_of(cable.alexander)
