"""The record classes: construction, ==, hash, repr and immutability.

Eight small immutable records carry results between the layers:
census.CensusRecord, family.FamilyKnot, CheckResult, FamilyVerification and
CatalogEntry, restorability.RestorabilityReport, and seifert.SeifertForm and
LSpaceVerdict.  Each is built positionally or by keyword, compares and
hashes by its fields, prints as Name(field=value, ...) and refuses
assignment and deletion.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from upsilon_lab.braids import BraidWord
from upsilon_lab.census import CensusRecord
from upsilon_lab.family import CatalogEntry, CheckResult, FamilyKnot, FamilyVerification
from upsilon_lab.laurent import IntLaurentPoly
from upsilon_lab.piecewise import PLFunction
from upsilon_lab.restorability import RestorabilityReport, Witnesses
from upsilon_lab.seifert import LSpaceVerdict, SeifertForm

TREFOIL = IntLaurentPoly({0: 1, 1: -1, 2: 1})
T25 = IntLaurentPoly({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})
T25_HULL = PLFunction([(-2, 0), (2, 4)], 0, 2)
T25_WITNESSES = Witnesses([bytes([2, 0, 2, 0]), bytes([2, 2, 0, 0])])  # gaps (1, 3), (2, 3)
T34_UPSILON = PLFunction([(0, 0), (F(2, 3), -2), (F(4, 3), -2), (2, 0)])
CHECK = CheckResult(True, "x")

# (positional, keyword, a value that differs in one field, its fields, repr).
CASES = {
    "CensusRecord": (
        lambda: CensusRecord("3_1", TREFOIL),
        lambda: CensusRecord(delta=TREFOIL, name="3_1", hull=None),
        lambda: CensusRecord("3_1", T25),
        ("name", "delta", "hull"),
        "CensusRecord(name='3_1', delta=IntLaurentPoly('1 - t + t^2'))",
    ),
    "FamilyKnot": (
        lambda: FamilyKnot("K1", 2),
        lambda: FamilyKnot(n=2, which="K1"),
        lambda: FamilyKnot("K2", 2),
        ("which", "n"),
        "FamilyKnot(which='K1', n=2)",
    ),
    "CheckResult": (
        lambda: CheckResult(True, "x"),
        lambda: CheckResult(detail="x", ok=True),
        lambda: CheckResult(False, "x"),
        ("ok", "detail"),
        "CheckResult(ok=True, detail='x')",
    ),
    "FamilyVerification": (
        lambda: FamilyVerification(1, {"a": CHECK}),
        lambda: FamilyVerification(checks={"a": CheckResult(True, "x")}, n=1),
        lambda: FamilyVerification(1, {"a": CheckResult(True, "y")}),
        ("n", "checks"),
        "FamilyVerification(n=1, checks={'a': CheckResult(ok=True, detail='x')})",
    ),
    "CatalogEntry": (
        lambda: CatalogEntry("T(3,4)", TREFOIL, BraidWord(3, [1, 2] * 4), (1, 2, 5), T34_UPSILON),
        lambda: CatalogEntry(upsilon=T34_UPSILON, gaps=(1, 2, 5), braid=BraidWord(3, [1, 2] * 4),
                             alexander=TREFOIL, name="T(3,4)"),
        lambda: CatalogEntry("T(3,4)", TREFOIL, BraidWord(3, [1, 2] * 4), (1, 2, 5)),
        ("name", "alexander", "braid", "gaps", "upsilon"),
        "CatalogEntry(name='T(3,4)', alexander=IntLaurentPoly('1 - t + t^2'), "
        "braid=BraidWord(strands=3, letters=[1, 2, 1, 2, 1, 2, 1, 2]), gaps=(1, 2, 5), "
        "upsilon=PLFunction([(0, 0), (2/3, -2), (4/3, -2), (2, 0)]))",
    ),
    "RestorabilityReport": (
        lambda: RestorabilityReport(T25_HULL, 2, 2, T25_WITNESSES, False, False),
        lambda: RestorabilityReport(budget_exhausted=False, unique=False, witnesses=T25_WITNESSES,
                                    symmetric_count=2, total_count=2, hull=T25_HULL),
        lambda: RestorabilityReport(T25_HULL, 2, 2, T25_WITNESSES, False, True),
        ("hull", "total_count", "symmetric_count", "witnesses", "unique", "budget_exhausted"),
        "RestorabilityReport(hull=PLFunction([(-2, 0), (2, 4)], left_slope=0, right_slope=2), "
        "total_count=2, symmetric_count=2, witnesses=Witnesses([(1, 3), (2, 3)]), "
        "unique=False, budget_exhausted=False)",
    ),
    "SeifertForm": (
        lambda: SeifertForm(1, (F(1, 2), F(1, 3), 0)),
        lambda: SeifertForm(ratios=["1/2", F(1, 3), F(0)], e0=1),
        lambda: SeifertForm(-1, (F(1, 2), F(1, 3), 0)),
        ("e0", "ratios"),
        "SeifertForm(e0=1, ratios=(Fraction(1, 2), Fraction(1, 3), Fraction(0, 1)))",
    ),
    "LSpaceVerdict": (
        lambda: LSpaceVerdict(True, "d", {"side": "M"}),
        lambda: LSpaceVerdict(certificate={"side": "M"}, detail="d", is_lspace=True),
        lambda: LSpaceVerdict(True, "d", {"side": "-M"}),
        ("is_lspace", "detail", "certificate"),
        "LSpaceVerdict(is_lspace=True, detail='d', certificate={'side': 'M'})",
    ),
}
UNHASHABLE = {"FamilyVerification", "LSpaceVerdict"}  # they hold a dict

each_class = pytest.mark.parametrize("name", sorted(CASES))


@each_class
def test_positional_and_keyword_construction_agree(name):
    make, make_kw, _, fields, _ = CASES[name]
    a, b = make(), make_kw()
    for f in fields:
        assert getattr(a, f) == getattr(b, f)
    assert a == b and not a != b


@each_class
def test_one_differing_field_breaks_equality(name):
    make, _, other, _, _ = CASES[name]
    assert make() != other() and not make() == other()


@each_class
def test_foreign_values_are_unequal(name):
    a = CASES[name][0]()
    assert a != object() and a != tuple(getattr(a, f) for f in CASES[name][3])
    assert a.__eq__(object()) is NotImplemented


@each_class
def test_hash(name):
    make, make_kw, _, _, _ = CASES[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(make())
    else:
        assert hash(make()) == hash(make_kw())
        assert len({make(), make_kw()}) == 1


@each_class
def test_repr(name):
    assert repr(CASES[name][0]()) == CASES[name][4]


@each_class
def test_refuses_assignment_and_deletion(name):
    make, _, _, fields, _ = CASES[name]
    a = make()
    before = repr(a)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == before


@each_class
def test_copy_and_pickle_round_trip(name):
    a = CASES[name][0]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and repr(b) == repr(a)


class TestDefaultsAndHull:
    def test_census_record_sweeps_the_hull_when_not_given(self):
        assert CensusRecord("3_1", TREFOIL).hull == ((-1, 0), (1, 2))

    def test_census_record_keeps_a_given_hull(self):
        assert CensusRecord("3_1", TREFOIL, ((0, 0),)).hull == ((0, 0),)

    def test_census_record_equality_and_hash_ignore_the_hull(self):
        a, b = CensusRecord("3_1", TREFOIL), CensusRecord("3_1", TREFOIL, ((0, 0),))
        assert a == b and hash(a) == hash(b)
        assert repr(b) == repr(a)
        assert pickle.loads(pickle.dumps(b)).hull == ((0, 0),)

    def test_catalog_entry_defaults(self):
        e = CatalogEntry("3_1", TREFOIL)
        assert (e.braid, e.gaps, e.upsilon) == (None, None, None)
        assert repr(e) == ("CatalogEntry(name='3_1', alexander=IntLaurentPoly('1 - t + t^2'), "
                           "braid=None, gaps=None, upsilon=None)")
        assert hash(e) == hash(CatalogEntry("3_1", TREFOIL, None, None, None))

    def test_lspace_verdict_without_certificate_is_hashable(self):
        v = LSpaceVerdict(False, "d")
        assert v.certificate is None
        assert v == LSpaceVerdict(False, "d", None) and hash(v) == hash(LSpaceVerdict(False, "d"))
        assert repr(v) == "LSpaceVerdict(is_lspace=False, detail='d', certificate=None)"

    def test_seifert_form_reduces_its_entries(self):
        s = SeifertForm(F(3), [F(2, 4), 1, "0"])
        assert type(s.e0) is int and s.ratios == (F(1, 2), F(1), F(0))
        with pytest.raises(ValueError, match="exactly three ratios"):
            SeifertForm(0, (F(1, 2), F(1, 3)))
