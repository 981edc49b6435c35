"""The classes on records.Record: construction, ==, hash, repr and immutability.

Eight result records carry results between the layers:
census.CensusRecord, family.FamilyKnot, CheckResult, FamilyVerification and
CatalogEntry, restorability.RestorabilityReport, and seifert.SeifertForm and
LSpaceVerdict.  Four value classes share their base:
semigroups.FormalSemigroup, gapfunctions.GapFunction, piecewise.PLFunction
(checked on the line and on an interval) and braids.BraidWord.  Each is
built positionally or by keyword, compares and hashes by its fields, prints
as its repr below and refuses assignment and deletion.
"""

import copy
import inspect
import pickle
import time
from fractions import Fraction as F

import pytest

from upsilon_lab.braids import BraidWord, named_braid
from upsilon_lab.census import CensusRecord
from upsilon_lab.family import CatalogEntry, CheckResult, FamilyKnot, FamilyVerification
from upsilon_lab.gapfunctions import GapFunction
from upsilon_lab.laurent import IntLaurentPoly
from upsilon_lab.piecewise import PLFunction
from upsilon_lab.records import Record
from upsilon_lab.restorability import RestorabilityReport, Witnesses
from upsilon_lab.seifert import LSpaceVerdict, SeifertForm
from upsilon_lab.semigroups import FormalSemigroup

TREFOIL = IntLaurentPoly({0: 1, 1: -1, 2: 1})
T25 = IntLaurentPoly({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})
T25_HULL = PLFunction([(-2, 0), (2, 4)], 0, 2)
T25_WITNESSES = Witnesses([bytes([2, 0, 2, 0]), bytes([2, 2, 0, 0])])  # gaps (1, 3), (2, 3)
T34_UPSILON = PLFunction([(0, 0), (F(2, 3), -2), (F(4, 3), -2), (2, 0)])
CHECK = CheckResult(True, "x")

# (positional, keyword, a value that differs in one field, its fields, repr).
CASES = {
    "FormalSemigroup": (
        lambda: FormalSemigroup([1, 2, 5]),
        lambda: FormalSemigroup(gaps=(1, 2, 5)),
        lambda: FormalSemigroup([1, 3]),
        ("gaps",),
        "FormalSemigroup(gaps=[1, 2, 5])",
    ),
    "GapFunction": (
        lambda: GapFunction([0, 2, 2, 2, 4, 6, 6]),
        lambda: GapFunction(values=(0, 2, 2, 2, 4, 6, 6)),
        lambda: GapFunction([0, 2, 2, 4, 4, 6, 6]),
        ("values",),
        "GapFunction(values=[0, 2, 2, 2, 4, 6, 6])",
    ),
    "PLFunction": (  # on the line; the keyword form has a collinear vertex to drop
        lambda: PLFunction([(-2, 0), (2, 4)], 0, 2),
        lambda: PLFunction(right_slope=2, left_slope=0, vertices=[(-2, 0), (0, 2), (2, 4)]),
        lambda: PLFunction([(-2, 0), (2, 4)], 0, 3),
        ("vertices", "left_slope", "right_slope"),
        "PLFunction([(-2, 0), (2, 4)], left_slope=0, right_slope=2)",
    ),
    "PLFunction-interval": (
        lambda: PLFunction([(0, 0), (F(2, 3), -2), (F(4, 3), -2), (2, 0)]),
        lambda: PLFunction(vertices=[(F(0), 0), (F(4, 6), -2), (F(1) + F(1, 3), -2), (F(2), F(0))]),
        lambda: PLFunction([(0, 0), (F(2, 3), -2), (2, 0)]),
        ("vertices", "left_slope", "right_slope"),
        "PLFunction([(0, 0), (2/3, -2), (4/3, -2), (2, 0)])",
    ),
    "BraidWord": (  # (1, 2)^3 is the full twist of B_3
        lambda: BraidWord(3, [1, 2] * 4),
        lambda: BraidWord(letters=(1, 2) * 4, strands=3),
        lambda: BraidWord(4, [1, 2] * 4),
        ("strands", "letters"),
        "BraidWord(strands=3, letters=[1, 2, 1, 2, 1, 2, 1, 2])",
    ),
    "CensusRecord": (
        lambda: CensusRecord("3_1", TREFOIL),
        lambda: CensusRecord(delta=TREFOIL, name="3_1"),
        lambda: CensusRecord("3_1", T25),
        ("name", "delta", "hull", "genus"),
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
    for f in fields + type(a).__slots__:  # private slots too, such as BraidWord's _cut
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


@each_class
def test_init_parameters_are_the_slots_in_order(name):
    # Record's __reduce__ passes the slots positionally to __init__, and repr lists them.
    cls = type(CASES[name][0]())
    assert tuple(inspect.signature(cls).parameters) == cls.__slots__
    assert ({c.__name__ for c in Record.__subclasses__()}
            == {type(case[0]()).__name__ for case in CASES.values()})


def test_braid_word_keeps_its_cut_through_copy_and_pickle():
    # Record passes the private cut back to __init__, so it is not made again.
    word = named_braid("K1(3)")
    assert len(word._cut[0]) == 17 and word._cut[1] == 12  # three full twists of B_4 cut
    for b in (copy.deepcopy(word), pickle.loads(pickle.dumps(word))):
        assert b._cut == word._cut
        assert b.alexander_of_closure() == word.alexander_of_closure()


class TestDefaultsAndHull:
    def test_census_record_sweeps_the_hull_when_not_given(self):
        assert CensusRecord("3_1", TREFOIL).hull == ((-1, 0), (1, 2))
        assert CensusRecord("3_1", TREFOIL).genus == 1

    def test_census_record_keeps_the_given_runs(self):
        # The runs a gate already built are kept, not walked again, and the
        # hull is swept from them when it is read.
        record = CensusRecord("3_1", TREFOIL, [(1, 2)])
        assert (record.genus, record.hull) == (1, ((-1, 0), (1, 2)))
        with pytest.raises(TypeError):
            CensusRecord("3_1", TREFOIL, hull=((0, 0),))

    def test_census_record_equality_and_hash_ignore_the_hull(self):
        # Two records of one delta with different (here inconsistent) runs:
        # ==, hash and repr still read name and delta only.
        a, b = CensusRecord("3_1", TREFOIL), CensusRecord("3_1", TREFOIL, [])
        assert a.hull != b.hull == ((0, 0),)
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

    @pytest.mark.parametrize("e0, ratios, error", [
        (F(7, 2), (1, 1, 1), ValueError),  # used to truncate to M(3; ...)
        (1.7, (1, 1, 1), TypeError),       # used to truncate to M(1; ...)
        (True, (1, 1, 1), TypeError),
        (0, (0.1, F(1, 3), F(1, 5)), TypeError),  # used to become a 2**55-denominator Fraction
        (0, (True, F(1, 3), F(1, 5)), TypeError),
        (0, ("1.5", "1/3", "1/5"), ValueError),
    ], ids=["half-e0", "float-e0", "bool-e0", "float-ratio", "bool-ratio", "decimal-ratio"])
    def test_seifert_form_refuses_what_it_would_round(self, e0, ratios, error):
        with pytest.raises(error):
            SeifertForm(e0, ratios)

    def test_seifert_form_reads_no_exponent(self):
        # Fraction("1e-10000000") builds 10**(10**7) first; this took 12 s.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="expected p or p/q"):
            SeifertForm(0, ("1e-10000000", "1/3", "1/5"))
        assert time.perf_counter() - start < 0.5
