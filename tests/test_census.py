"""Census scanning: grouping, determinism, malformed-record handling."""

import itertools
import json
import random
import sys

import pytest

from upsilon_lab.census import (
    CensusRecord,
    load_census,
    parse_census_line,
    sample_census_path,
    scan_census,
)
from upsilon_lab.gapfunctions import GapFunction
from upsilon_lab.invariants import hull_vertices
from upsilon_lab.laurent import IntLaurentPoly
from upsilon_lab.piecewise import PLFunction, legendre_fenchel
from upsilon_lab.semigroups import FormalSemigroup

P = IntLaurentPoly.from_pairs


def all_gap_sequences(g: int):
    """Every strictly increasing gap sequence with top gap 2g-1."""
    if g == 0:
        yield ()
        return
    for rest in itertools.combinations(range(1, 2 * g - 1), g - 1):
        yield rest + (2 * g - 1,)


T09847_PAIRS = [[0, 1], [1, -1], [4, 1], [5, -1], [7, 1], [9, -1], [10, 1], [13, -1], [14, 1]]


class TestSampleFixture:
    def test_ten_records_parse_clean(self):
        records, warnings = load_census(sample_census_path())
        assert len(records) == 10
        assert warnings == []

    def test_exactly_one_upsilon_group(self):
        records, _ = load_census(sample_census_path())
        report = scan_census(records)
        assert report["delta_duplicate_groups"] == []
        assert report["upsilon_duplicate_groups"] == [["K1(1)", "K2(1)"]]
        assert report["upsilon_equal_delta_distinct"] == [["K1(1)", "K2(1)"]]

    def test_order_independent(self):
        records, _ = load_census(sample_census_path())
        baseline = scan_census(records)
        rng = random.Random(99)
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            assert scan_census(shuffled) == baseline


class TestGrouping:
    def test_single_record(self):
        report = scan_census([CensusRecord("trefoil", P([[0, 1], [1, -1], [2, 1]]))])
        assert report["records"] == 1
        assert report["upsilon_duplicate_groups"] == []

    def test_manual_cable_duplicates_delta(self, tmp_path):
        # The same polynomial entered under two names: one Alexander group,
        # and the pair does not appear among Upsilon-equal-Delta-distinct.
        path = tmp_path / "census.jsonl"
        lines = [
            json.dumps({"name": "t09847", "alexander": T09847_PAIRS}),
            json.dumps({"name": "cable_T25_27", "alexander": T09847_PAIRS}),
        ]
        path.write_text("\n".join(lines) + "\n")
        records, warnings = load_census(path)
        assert not warnings
        report = scan_census(records)
        assert report["delta_duplicate_groups"] == [["cable_T25_27", "t09847"]]
        assert report["upsilon_duplicate_groups"] == [["cable_T25_27", "t09847"]]
        assert report["upsilon_equal_delta_distinct"] == []

    def test_repeated_name_keeps_cross_pair(self):
        # The last record reuses K2(1)'s name with K1(1)'s polynomial.  Keyed
        # by name it overwrote K2(1)'s Alexander key and the Upsilon-equal,
        # Alexander-distinct pair vanished.
        from upsilon_lab.family import FamilyKnot, alexander_closed_form

        k1 = alexander_closed_form(FamilyKnot("K1", 1))
        k2 = alexander_closed_form(FamilyKnot("K2", 1))
        records = [CensusRecord("a", k1), CensusRecord("b", k2), CensusRecord("b", k1)]
        report = scan_census(records)
        assert report["delta_duplicate_groups"] == [["a", "b"]]
        assert report["upsilon_duplicate_groups"] == [["a", "b", "b"]]
        assert report["upsilon_equal_delta_distinct"] == [["a", "b"], ["b", "b"]]

    def test_hull_key_partitions_like_upsilon(self):
        # Every gap sequence with g <= 8: grouping by the scan's key gives the
        # classes of Upsilon computed by the dense route through every sample.
        by_hull, by_upsilon = {}, {}
        for g in range(9):
            for gaps in all_gap_sequences(g):
                semigroup = FormalSemigroup(gaps)
                delta = semigroup.to_alexander()
                upsilon = legendre_fenchel(GapFunction.from_semigroup(semigroup).envelope())
                by_hull.setdefault(hull_vertices(delta), set()).add(gaps)
                by_upsilon.setdefault(upsilon, set()).add(gaps)
        assert sum(len(c) for c in by_hull.values()) == 4708
        assert len(by_hull) == len(by_upsilon) == 203
        assert sorted(map(sorted, by_hull.values())) == sorted(map(sorted, by_upsilon.values()))

    def test_scan_groups_like_upsilon(self):
        # The scan end to end on every gap sequence with g <= 6; larger sets
        # make the quadratic Upsilon-equal pair list the cost of the test.
        records, by_upsilon = [], {}
        for g in range(7):
            for i, gaps in enumerate(all_gap_sequences(g)):
                semigroup = FormalSemigroup(gaps)
                records.append(CensusRecord(f"g{g}_{i}", semigroup.to_alexander()))
                upsilon = legendre_fenchel(GapFunction.from_semigroup(semigroup).envelope())
                by_upsilon.setdefault(upsilon, []).append(records[-1].name)
        report = scan_census(records)
        groups = [sorted(names) for names in by_upsilon.values() if len(names) > 1]
        assert report["upsilon_duplicate_groups"] == sorted(groups)
        assert report["delta_duplicate_groups"] == []
        assert len(report["upsilon_equal_delta_distinct"]) == sum(
            len(names) * (len(names) - 1) // 2 for names in by_upsilon.values()
        )

    def test_scan_builds_no_gap_function_or_pl_function(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"census scan built a {type(self).__name__}")

        for cls in (FormalSemigroup, GapFunction, PLFunction):
            monkeypatch.setattr(cls, "__init__", refuse)
        records, _ = load_census(sample_census_path())
        assert scan_census(records)["upsilon_duplicate_groups"] == [["K1(1)", "K2(1)"]]

    def test_one_gap_runs_walk_per_record(self, monkeypatch):
        from upsilon_lab import semigroups

        calls = []
        walk = semigroups.gap_runs
        # Count the walk under every name a package module binds it to.
        for module in list(sys.modules.values()):
            if module.__name__.startswith("upsilon_lab") and getattr(module, "gap_runs", None) is walk:
                monkeypatch.setattr(module, "gap_runs",
                                    lambda delta: calls.append(delta) or walk(delta))
        records, _ = load_census(sample_census_path())
        scan_census(records)
        assert len(records) == 10
        assert calls == [r.delta for r in records]


class TestParsing:
    def test_rejects_non_lspace_form(self, tmp_path):
        path = tmp_path / "census.jsonl"
        lines = [
            json.dumps({"name": "good", "alexander": [[0, 1], [1, -1], [2, 1]]}),
            json.dumps({"name": "bad", "alexander": [[0, 2]]}),
            "not even json",
            json.dumps({"alexander": [[0, 1]]})[:-2] + "}",
        ]
        path.write_text("\n".join(lines) + "\n")
        records, warnings = load_census(path)
        assert [r.name for r in records] == ["good"]
        assert len(warnings) == 3

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "census.jsonl"
        path.write_text('\n{"name": "u", "alexander": [[0, 1]]}\n\n')
        records, warnings = load_census(path)
        assert len(records) == 1 and not warnings

    @pytest.mark.parametrize("pairs, reason", [
        # L-space shape, but three gaps and degree 4: used to fail the whole
        # scan later instead of being skipped.
        ([[0, 1], [1, -1], [4, 1]], "twice the gap count 3"),
        # Floats: used to be truncated and read as 1 - t + t^2.
        ([[0.9, 1], [1, -1], [2.7, 1]], "is not an int"),
    ])
    def test_bad_polynomial_line_is_a_warning(self, tmp_path, pairs, reason):
        path = tmp_path / "census.jsonl"
        lines = [
            json.dumps({"name": "trefoil", "alexander": [[0, 1], [1, -1], [2, 1]]}),
            json.dumps({"name": "bad", "alexander": pairs}),
        ]
        path.write_text("\n".join(lines) + "\n")
        records, warnings = load_census(path)
        assert [r.name for r in records] == ["trefoil"]
        assert len(warnings) == 1 and warnings[0].startswith("line 2") and reason in warnings[0]
        assert scan_census(records)["records"] == 1

    def test_parse_line(self):
        record = parse_census_line('{"name": "T(2,3)", "alexander": [[0,1],[1,-1],[2,1]]}')
        assert record.name == "T(2,3)"
        assert record.delta == P([[0, 1], [1, -1], [2, 1]])
