"""Census scanning: grouping, determinism, malformed-record handling."""

import contextlib
import copy
import io
import itertools
import json
import pickle
import random
import re
import sys

import pytest

from upsilon_lab import census, cli
from upsilon_lab.census import (
    CensusRecord,
    alexander_from_json,
    load_census,
    parse_census_line,
    sample_census_path,
    scan_census,
)
from upsilon_lab.errors import NotLSpaceForm, UpsilonLabError, json_type
from upsilon_lab.family import FamilyKnot, alexander_closed_form
from upsilon_lab.gapfunctions import GapFunction
from upsilon_lab.invariants import hull_vertices
from upsilon_lab.laurent import IntLaurentPoly
from upsilon_lab.piecewise import PLFunction, legendre_fenchel
from upsilon_lab.semigroups import (FormalSemigroup, _alexander_of_runs, _lspace_pairs, lspace_runs,
                                    torus_semigroup)

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
        # Each record is read once: a load and a scan of the sample read each
        # record's pairs in one loop (_lspace_pairs), which takes all ten, and
        # build no polynomial through the validating constructor, call no
        # lspace_runs and walk no gap runs.  A line whose pairs come reversed
        # takes the two-step route once: the loop gives up, then from_pairs
        # builds the polynomial and lspace_runs gates it.
        from upsilon_lab import semigroups

        calls = []

        def counting(label, fn):
            def count(*args):
                result = fn(*args)
                calls.append(f"{label} -> None" if result is None and label == "_lspace_pairs" else label)
                return result
            return count

        # Count each function under every name a package module binds it to.
        for attr in ("gap_runs", "lspace_runs", "_lspace_pairs"):
            fn = getattr(semigroups, attr)
            for module in list(sys.modules.values()):
                if module.__name__.startswith("upsilon_lab") and getattr(module, attr, None) is fn:
                    monkeypatch.setattr(module, attr, counting(attr, fn))
        monkeypatch.setattr(IntLaurentPoly, "__init__", counting("__init__", IntLaurentPoly.__init__))
        records, _ = load_census(sample_census_path())
        scan_census(records)
        assert len(records) == 10
        assert calls == ["_lspace_pairs"] * 10

        calls.clear()
        record = parse_census_line(record_line("t09847~reversed", T09847_PAIRS[::-1]))
        assert calls == ["_lspace_pairs -> None", "__init__", "lspace_runs"]
        assert record.delta == P(T09847_PAIRS) and record._runs == lspace_runs(P(T09847_PAIRS))


def all_pairs_scan(records) -> dict:
    """The scan's oracle: sweep every record's hull and compare every pair."""
    records = list(records)
    hulls = [hull_vertices(r.delta) for r in records]

    def groups(keys):
        by_key = {}
        for record, key in zip(records, keys):
            by_key.setdefault(key, []).append(record.name)
        return sorted(sorted(names) for names in by_key.values() if len(names) > 1)

    pairs = sorted(
        sorted([a.name, b.name])
        for (a, ha), (b, hb) in itertools.combinations(zip(records, hulls), 2)
        if ha == hb and a.delta != b.delta
    )
    return {
        "records": len(records),
        "delta_duplicate_groups": groups(r.delta for r in records),
        "upsilon_duplicate_groups": groups(hulls),
        "upsilon_equal_delta_distinct": pairs,
    }


def gap_one_sequences(max_genus: int):
    """Every gap sequence with 1 a gap, the L-space shape, for g <= max_genus."""
    return [gaps for g in range(max_genus + 1) for gaps in all_gap_sequences(g)
            if not gaps or gaps[0] == 1]


def ladder_census_lines() -> list[str]:
    """A census-ladder-shaped file: a torus ladder, two K1/K2 pairs, a duplicate, a bad line.

    Genera 1, 6, 12 and 24 repeat (12 records); 2, 3, 4, 22, 36, 60, 132 and
    510 do not (8 records).
    """
    lines = [record_line(f"T({p},{q})", torus_semigroup(p, q).to_alexander().to_pairs())
             for p, q in TORUS_LADDER]
    lines += [record_line(f"{which}({n})", alexander_closed_form(FamilyKnot(which, n)).to_pairs())
              for n in (1, 3) for which in ("K1", "K2")]
    lines.append(record_line("T(2,3)~dup", [[0, 1], [1, -1], [2, 1]]))
    lines.append(record_line("nonalt", [[0, 1], [1, -1], [2, -1], [3, 1], [4, 1]]))
    random.Random(7).shuffle(lines)
    return lines


class TestRefinedScan:
    """scan_census refines genus -> hull -> Delta and agrees with comparing every pair."""

    # An Upsilon class holding three distinct polynomials: each gap function
    # has the convex corners (-6, 0), (0, 4), (2, 6), (6, 12).
    TRIPLE = [FormalSemigroup(gaps).to_alexander()
              for gaps in [(1, 2, 3, 5, 8, 11), (1, 2, 3, 5, 9, 11), (1, 2, 3, 5, 10, 11)]]

    def test_matches_the_all_pairs_oracle(self):
        pool = [FormalSemigroup(gaps).to_alexander() for gaps in gap_one_sequences(7)]
        triple, unknot = self.TRIPLE, P([[0, 1]])
        names = [f"k{i}" for i in range(12)]
        for seed in range(300):
            rng = random.Random(seed)
            deltas = rng.choices(pool, k=rng.randint(0, 30))
            deltas += rng.choice([[], triple, [unknot, unknot], triple + [unknot, unknot]])
            deltas += rng.sample(deltas, k=min(len(deltas), rng.randint(0, 3)))  # exact duplicates
            rng.shuffle(deltas)
            records = [CensusRecord(rng.choice(names), d) for d in deltas]  # names repeat
            assert scan_census(records) == all_pairs_scan(records), seed

    def test_three_delta_upsilon_class_and_the_unknot_twice(self):
        a, b, c = self.TRIPLE
        assert len({hull_vertices(d) for d in self.TRIPLE}) == 1 and len(set(self.TRIPLE)) == 3
        unknot = P([[0, 1]])
        records = [CensusRecord(n, d) for n, d in
                   [("a", a), ("b", b), ("c", c), ("a2", a), ("u", unknot), ("v", unknot)]]
        report = scan_census(records)
        assert report == all_pairs_scan(records)
        assert report["delta_duplicate_groups"] == [["a", "a2"], ["u", "v"]]
        assert report["upsilon_duplicate_groups"] == [["a", "a2", "b", "c"], ["u", "v"]]
        assert report["upsilon_equal_delta_distinct"] == [
            ["a", "b"], ["a", "c"], ["a2", "b"], ["a2", "c"], ["b", "c"]]

    def test_hulls_are_swept_only_where_a_genus_repeats(self, tmp_path, monkeypatch):
        path = tmp_path / "census.jsonl"
        path.write_text("\n".join(ladder_census_lines()) + "\n")
        swept = []
        sweep = census._lower_hull
        monkeypatch.setattr(census, "_lower_hull", lambda corners: swept.append(1) or sweep(corners))
        records, warnings = load_census(path)
        assert len(records) == 20 and len(warnings) == 1
        assert swept == []
        report = scan_census(records)
        genera = [r.delta.max_exp // 2 for r in records]
        shared = [g for g in genera if genera.count(g) > 1]
        assert len(shared) == 12
        assert len(swept) == len(shared)
        assert report["upsilon_duplicate_groups"] == [["K1(1)", "K2(1)"], ["K1(3)", "K2(3)"],
                                                      ["T(2,3)", "T(2,3)~dup"]]
        assert report == all_pairs_scan(records)

    def test_record_hull_and_genus_agree_with_hull_vertices(self):
        for gaps in gap_one_sequences(7):
            delta = FormalSemigroup(gaps).to_alexander()
            parsed = parse_census_line(record_line("k", delta.to_pairs()))
            for record in (parsed, CensusRecord("k", delta)):
                assert record.hull == hull_vertices(delta)
                assert record.genus == len(gaps) == -record.hull[0][0]

    def test_copy_and_pickle_keep_the_hull(self):
        record = parse_census_line(record_line("t09847", T09847_PAIRS))
        for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert other == record and repr(other) == repr(record)
            assert other.hull == record.hull == hull_vertices(record.delta)
            assert other.genus == record.genus == 7


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

    def test_deeply_nested_line_is_a_warning(self, tmp_path):
        # json.loads raises RecursionError on it, which used to abort the whole load.
        good = [json.dumps({"name": name, "alexander": [[0, 1], [1, -1], [2, 1]]})
                for name in ("a", "b")]
        path = tmp_path / "census.jsonl"
        path.write_text("\n".join([good[0], "[" * 60_000 + "]" * 60_000, good[1]]) + "\n")
        records, warnings = load_census(path)
        assert scan_census(records)["records"] == 2
        assert len(warnings) == 1 and warnings[0].startswith("line 2: skipped")

    def test_line_not_in_utf8_is_a_warning(self, tmp_path):
        # A byte that is not UTF-8 used to abort the whole load with exit 2.
        lines = [json.dumps({"name": name, "alexander": [[0, 1], [1, -1], [2, 1]]}).encode()
                 for name in ("a", "\u03a5")]
        path = tmp_path / "census.jsonl"
        path.write_bytes(b"\n".join([lines[0], b'{"name": "b\xff", "alexander": [[0, 1]]}',
                                      lines[1]]) + b"\n")
        records, warnings = load_census(path)
        assert [r.name for r in records] == ["a", "\u03a5"]
        assert len(warnings) == 1 and warnings[0].startswith("line 2: skipped")
        assert "can't decode byte 0xff" in warnings[0]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Read as text, the BOM would make json.loads skip the first record.
        lines = [json.dumps({"name": name, "alexander": [[0, 1], [1, -1], [2, 1]]})
                 for name in ("a", "b")]
        path = tmp_path / "census.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + "\n".join(lines).encode() + b"\n")
        records, warnings = load_census(path)
        assert [r.name for r in records] == ["a", "b"]
        assert warnings == []

    @pytest.mark.parametrize("name", [None, {"a": [1]}, 7, ["x"], True])
    def test_name_that_is_not_a_string_is_a_warning(self, tmp_path, name):
        # str() used to list these as "None", "{'a': [1]}", "7", "['x']" and "True".
        lines = [json.dumps({"name": n, "alexander": [[0, 1], [1, -1], [2, 1]]})
                 for n in ("a", name, "b")]
        path = tmp_path / "census.jsonl"
        path.write_text("\n".join(lines) + "\n")
        records, warnings = load_census(path)
        assert [r.name for r in records] == ["a", "b"]
        assert len(warnings) == 1 and warnings[0].startswith("line 2: skipped")
        assert "record name must be a string" in warnings[0]
        with pytest.raises(TypeError, match="must be a string"):
            parse_census_line(lines[1])

    def test_record_shape_warnings_name_the_record_not_python(self, tmp_path):
        good = json.dumps({"name": "a", "alexander": [[0, 1], [1, -1], [2, 1]]})
        lines = [good, "[1, 2]", "7", json.dumps({"name": "b"}), json.dumps({"alexander": []}),
                 "null", "1.5", "true", '"s"', json.dumps({"name": False, "alexander": []})]
        path = tmp_path / "census.jsonl"
        path.write_text("\n".join(lines) + "\n")
        records, warnings = load_census(path)
        assert [r.name for r in records] == ["a"]
        assert warnings == [
            "line 2: skipped (record must be a JSON object, got array)",
            "line 3: skipped (record must be a JSON object, got number)",
            'line 4: skipped (record has no "alexander" key)',
            'line 5: skipped (record has no "name" key)',
            "line 6: skipped (record must be a JSON object, got null)",
            "line 7: skipped (record must be a JSON object, got number)",
            "line 8: skipped (record must be a JSON object, got boolean)",
            "line 9: skipped (record must be a JSON object, got string)",
            "line 10: skipped (record name must be a string, got boolean)",
        ]

    def test_parse_line(self):
        record = parse_census_line('{"name": "T(2,3)", "alexander": [[0,1],[1,-1],[2,1]]}')
        assert record.name == "T(2,3)"
        assert record.delta == P([[0, 1], [1, -1], [2, 1]])

    # An "alexander" value that is not an array of 2-element arrays used to be
    # worded by Python's unpacking: "not enough values to unpack (expected 2,
    # got 1)", "'int' object is not iterable", "cannot unpack non-iterable int
    # object" and the like.
    BAD_ALEXANDER = {
        '{"0": 1}': '"alexander" must be a JSON array, got object',
        '"ab"': '"alexander" must be a JSON array, got string',
        '""': '"alexander" must be a JSON array, got string',  # used to be the zero polynomial
        "{}": '"alexander" must be a JSON array, got object',
        "5": '"alexander" must be a JSON array, got number',
        "null": '"alexander" must be a JSON array, got null',
        "[[0,1,2]]": 'pair 1 of "alexander" must be an array of 2 integers, got array of 3',
        "[0, 1]": 'pair 1 of "alexander" must be an array of 2 integers, got number',
    }

    @pytest.mark.parametrize("value", sorted(BAD_ALEXANDER))
    def test_alexander_that_is_not_pairs_is_worded_in_json_terms(self, tmp_path, value):
        path = tmp_path / "census.jsonl"
        path.write_text('{"name": "a", "alexander": [[0, 1]]}\n'
                        '{"name": "b", "alexander": ' + value + '}\n')
        records, warnings = load_census(path)
        assert [r.name for r in records] == ["a"]
        assert warnings == [f"line 2: skipped ({self.BAD_ALEXANDER[value]})"]

    @pytest.mark.parametrize("pairs, message", [
        # The first pair that is not a pair is named, after any valid ones.
        ([[0, 1], [1, -1], [2]], 'pair 3 of "alexander" must be an array of 2 integers, got array of 1'),
        ([[0, 1], "ab"], 'pair 2 of "alexander" must be an array of 2 integers, got string'),
        # A well-shaped pair with a non-int entry keeps IntLaurentPoly's message,
        # even before a badly shaped pair.
        ([[0, 1], [1.5, -1], [2]], "exponent 1.5 is not an int"),
        ([[0, 1], [1, True]], "coefficient True is not an int"),
    ])
    def test_alexander_names_the_first_bad_pair(self, pairs, message):
        with pytest.raises(TypeError) as info:
            alexander_from_json(pairs)
        assert str(info.value) == message


def is_lspace_form(delta: IntLaurentPoly) -> bool:
    """The shape predicate IntLaurentPoly.is_lspace_form applied before semigroups.lspace_runs."""
    if delta.is_zero:
        return False
    terms = dict(delta.items())
    exps = sorted(terms)
    if exps[0] != 0 or terms[0] != 1:
        return False
    for i, e in enumerate(exps):
        if terms[e] != (1 if i % 2 == 0 else -1):
            return False
    if len(exps) == 1:
        return True
    if len(exps) % 2 == 0:
        return False
    if exps[1] != 1:
        return False
    if exps[-1] % 2 != 0:
        return False
    return True


def three_step_parse(line: str) -> CensusRecord:
    """The route the one-pass parse must agree with: alexander_from_json, is_lspace_form, CensusRecord."""
    data = json.loads(line)
    if not isinstance(data, dict):
        raise TypeError(f"record must be a JSON object, got {json_type(data)}")
    for key in ("name", "alexander"):
        if key not in data:
            raise ValueError(f'record has no "{key}" key')
    name = data["name"]
    if not isinstance(name, str):
        raise TypeError(f"record name must be a string, got {json_type(name)}")
    delta = alexander_from_json(data["alexander"])
    if not is_lspace_form(delta):
        raise UpsilonLabError(f"record {name!r}: polynomial is not in L-space form")
    try:
        return CensusRecord(name, delta)
    except NotLSpaceForm as exc:
        raise NotLSpaceForm(f"record {name!r}: {exc}") from None


def outcome(parse, line: str):
    """(name, delta, hull) of a parsed line, or the exception type and text load_census would print."""
    try:
        record = parse(line)
    except (UpsilonLabError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return record.name, record.delta, record.hull


def record_line(name: str, alexander) -> str:
    return json.dumps({"name": name, "alexander": alexander})


TORUS_LADDER = [(2, 3), (2, 5), (3, 4), (3, 5), (3, 7), (4, 5), (2, 25), (5, 7), (4, 9),
                (5, 12), (7, 9), (7, 13), (11, 13), (13, 23), (21, 52)]

MALFORMED = {
    "merge-to-valid": [[0, 1], [1, -2], [1, 1], [2, 1]],
    "merge-to-two": [[0, 1], [1, -1], [2, 1], [2, 1]],
    "cancel-to-valid": [[0, 1], [3, 1], [1, -1], [3, -1], [2, 1]],
    "cancel-to-even-count": [[0, 1], [1, -1], [2, 1], [2, -1]],
    "cancel-everything": [[0, 1], [0, -1]],
    "zero-coefficient": [[0, 1], [1, -1], [5, 0], [2, 1]],
    "zero-only": [[0, 0]],
    "zero-after-term": [[0, 1], [1, -1], [2, 1], [1, 0]],
    "true-coefficient": [[0, True], [1, -1], [2, 1]],
    "true-exponent": [[0, 1], [True, -1], [2, 1]],
    "float-coefficient": [[0, 1.0], [1, -1], [2, 1]],
    "float-exponent": [[0, 1], [1.0, -1], [2, 1]],
    "string-entry": [[0, 1], [1, "-1"], [2, 1]],
    "null-entry": [[None, 1]],
    "type-error-after-bad-shape": [[0, 2], [1, 1], [2, 1.5]],
    "type-error-after-good-shape": [[0, 1], [1, -1], [2, 1], [0, 0.0]],
    "unsorted": [[2, 1], [0, 1], [1, -1]],
    "three-element-pair": [[0, 1, 2]],
    "one-element-pair": [[0, 1], [1]],
    "int-pair": [[0, 1], 5],
    "dict-alexander": {"0": 1},
    "dict-two-char-key": {"01": 1},
    "empty-dict-alexander": {},
    "empty-alexander": [],
    "string-alexander": "01",
    "int-alexander": 5,
    "null-alexander": None,
    "degree-mismatch": [[0, 1], [1, -1], [4, 1]],
    "huge-degree-mismatch": [[0, 1], [1, -1], [10**30, 1]],
    "first-gap-not-1": [[0, 1], [2, -1], [4, 1]],
    "even-term-count": [[0, 1], [1, -1]],
    "even-term-count-even-top": [[0, 1], [1, -1], [2, 1], [4, -1]],
    "not-alternating": [[0, 1], [1, -1], [2, -1], [3, 1], [4, 1]],
    "coefficient-two": [[0, 1], [1, -2], [2, 2]],
    "constant-not-one": [[0, 2]],
    "constant-minus-one": [[0, -1], [1, 1], [2, -1]],
    "min-exponent-not-0": [[1, 1], [2, -1], [3, 1]],
    "negative-exponents": [[-2, 1], [-1, -1], [0, 1]],
    "odd-top": [[0, 1], [1, -1], [3, 1]],
    "unknot": [[0, 1]],
}

ODD_LINES = [
    "not even json",
    "[1, 2]",
    "7",
    json.dumps({"alexander": [[0, 1]]}),
    json.dumps({"name": "nopoly"}),
    json.dumps({"name": 7, "alexander": [[0, 1], [1, -1], [2, 1]]}),
    json.dumps({"name": None, "alexander": [[0, 1], [1, 0.5]]}),
    json.dumps({"name": ["x"], "alexander": [[0, 1], [1, -1], [4, 1]]}),
]


class TestOnePassOracle:
    """parse_census_line agrees with the three-step route on records and on every warning."""

    def assert_agree(self, line: str):
        new, old = outcome(parse_census_line, line), outcome(three_step_parse, line)
        assert new == old
        if not isinstance(new[0], type):
            assert all(type(c) is int for vertex in new[2] for c in vertex)

    def test_every_gap_sequence_to_genus_10(self):
        seen = 0
        for g in range(11):
            for gaps in all_gap_sequences(g):
                self.assert_agree(record_line(str(gaps), FormalSemigroup(gaps).to_alexander().to_pairs()))
                seen += 1
        assert seen == 66198

    def test_torus_ladder_and_family(self):
        lines = [record_line(f"T{p},{q}", torus_semigroup(p, q).to_alexander().to_pairs())
                 for p, q in TORUS_LADDER]
        lines += [record_line(f"{which}({n})", alexander_closed_form(FamilyKnot(which, n)).to_pairs())
                  for which in ("K1", "K2") for n in (1, 2, 3)]
        for line in lines:
            self.assert_agree(line)
        assert all(not isinstance(outcome(parse_census_line, line)[0], type) for line in lines)

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_malformed_kind(self, kind):
        self.assert_agree(record_line(kind, MALFORMED[kind]))

    @pytest.mark.parametrize("line", ODD_LINES)
    def test_odd_line(self, line):
        self.assert_agree(line)

    def test_warnings_are_the_same_text(self, tmp_path, monkeypatch):
        lines = [record_line(kind, pairs) for kind, pairs in sorted(MALFORMED.items())] + ODD_LINES
        path = tmp_path / "census.jsonl"
        path.write_text("\n".join(lines) + "\n")
        records, warnings = load_census(path)
        monkeypatch.setattr("upsilon_lab.census.parse_census_line", three_step_parse)
        old_records, old_warnings = load_census(path)
        assert warnings == old_warnings
        assert (len(records), len(warnings)) == (6, 42)
        assert [(r.name, r.delta, r.hull) for r in records] == [
            (r.name, r.delta, r.hull) for r in old_records
        ]


def two_step(value):
    """The route the one-pass reader must agree with: alexander_from_json (from_pairs), then lspace_runs."""
    delta = alexander_from_json(value)
    return delta, lspace_runs(delta)


def routed(value):
    """census._alexander_and_runs, its Delta built from the runs where the one pass built none."""
    delta, runs = census._alexander_and_runs(value)
    assert (delta is None) == (_lspace_pairs(value) is not None), value  # None only from the one pass
    return (_alexander_of_runs(runs) if delta is None else delta), runs


def read_result(read, value):
    """(Delta's sorted pairs, runs) of a read, or the type and text of what it raised."""
    try:
        delta, runs = read(value)
    except (UpsilonLabError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return delta.to_pairs(), runs


def pair_orders(pairs: list) -> list[list]:
    """The pairs sorted, reversed and in three seeded shuffles."""
    orders = [pairs, pairs[::-1]]
    for seed in range(3):
        shuffled = list(pairs)
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    return orders


T34 = [[0, 1], [1, -1], [3, 1], [5, -1], [6, 1]]

# Values the one-pass reader must hand to the two-step route, in the cases it names.
OFF_ROUTE = {
    "split-term": [[0, 1], [1, -2], [1, 1], [3, 1], [5, -1], [6, 1]],
    "split-term-alternating": [[0, 1], [1, -1], [1, 1], [1, -1], [3, 1], [5, -1], [6, 1]],
    "repeated-exponent": [[0, 1], [1, -1], [1, 1]],
    "zero-term": [[0, 1], [1, -1], [3, 1], [4, 0], [5, -1], [6, 1]],
    "zero-term-last": T34 + [[7, 0]],
    "zero-term-first": [[0, 0], *T34],
    "true-coefficient": [[0, 1], [1, -1], [3, True], [5, -1], [6, 1]],
    "true-exponent": [[0, 1], [True, -1], [3, 1], [5, -1], [6, 1]],
    "float-coefficient": [[0, 1], [1, -1], [3, 1.0], [5, -1], [6, 1]],
    "float-exponent": [[0, 1], [1, -1], [3.0, 1], [5, -1], [6, 1]],
    "string-coefficient": [[0, 1], [1, "-1"], [3, 1], [5, -1], [6, 1]],
    "string-exponent": [[0, 1], ["1", -1], [3, 1], [5, -1], [6, 1]],
    "null-coefficient": [[0, 1], [1, -1], [3, None], [5, -1], [6, 1]],
    "null-exponent": [[0, 1], [1, -1], [None, 1], [5, -1], [6, 1]],
    "null-pair": [[0, 1], None, [3, 1]],
    "nested-array-coefficient": [[0, 1], [1, [-1]], [3, 1], [5, -1], [6, 1]],
    "nested-array-exponent": [[0, 1], [[1], -1], [3, 1], [5, -1], [6, 1]],
    "nested-array-pair": [[0, 1], [[1, -1]], [3, 1]],
    "one-element-pair": [[0, 1], [1], [3, 1]],
    "three-element-pair": [[0, 1], [1, -1, 0], [3, 1]],
    "int-pair": [[0, 1], 1, [3, 1]],
    "string-pair": [[0, 1], "ab", [3, 1]],
    "object-pair": [[0, 1], {"1": -1}, [3, 1]],
    "huge-exponent-first": [[10**400, 1], [0, 1], [1, -1]],
    "negative-exponent": [[-1, 1], [0, -1], [1, 1]],
    "negative-exponent-later": [[0, 1], [-1, -1], [2, 1]],
    "first-term-not-at-0": [[1, 1], [2, -1], [3, 1]],
    "first-term-at-2": [[2, 1], [3, -1], [4, 1]],
    "even-term-count": [[0, 1], [1, -1]],
    "even-term-count-four": [[0, 1], [1, -1], [3, 1], [5, -1]],
    "even-term-count-even-top": [[0, 1], [1, -1], [2, 1], [4, -1]],
    "empty": [],
    "not-alternating": [[0, 1], [1, -1], [2, -1], [3, 1], [4, 1]],
    "constant-two": [[0, 2]],
}

# Sorted, alternating from t^0 with an odd term count: the one-pass reader
# takes these, and the gate's remaining tests run on them.  The last has
# genus 10**400, above the command line's cap.
ON_ROUTE = {
    "degree-not-2g": [[0, 1], [1, -1], [4, 1]],
    "huge-degree-not-2g": [[0, 1], [1, -1], [10**400, 1]],
    "huge-runs-degree-not-2g": [[0, 1], [1, -1], [10**400, 1], [10**400 + 1, -1], [2 * 10**400 + 2, 1]],
    "first-gap-not-1": [[0, 1], [2, -1], [4, 1]],
    "odd-top": [[0, 1], [1, -1], [3, 1]],
    "huge-genus": [[0, 1], [1, -1], [2, 1], [10**400 + 1, -1], [2 * 10**400, 1]],
}


class TestOnePassReader:
    """census._alexander_and_runs against from_pairs then lspace_runs, on census lines and --alexander.

    The value-level oracle is two_step.  A census line and an --alexander
    argument are also run with the one-pass reader switched off, which leaves
    exactly the two steps, and must give the same record or refusal, and the
    same exit code, stdout and stderr.
    """

    @staticmethod
    def assert_reads_like_two_steps(value):
        want = read_result(two_step, value)
        assert read_result(routed, value) == want, value
        return want

    @staticmethod
    def both_routes(monkeypatch, fn, values):
        """fn over values with the one-pass reader, then with it switched off."""
        new = [fn(value) for value in values]
        with monkeypatch.context() as patch:
            patch.setattr(census, "_lspace_pairs", lambda pairs: None)
            old = [fn(value) for value in values]
        return new, old

    @staticmethod
    def line_result(value):
        try:
            record = parse_census_line(record_line("k", value))
        except (UpsilonLabError, ValueError, TypeError) as exc:
            return type(exc), str(exc)
        return record.name, record.delta.to_pairs(), record._runs

    @staticmethod
    def spec_result(value):
        args = cli._parse_argv(["invariants", "--alexander", json.dumps(value)])
        try:
            name, delta, runs = cli._resolve_knot_spec(args)
        except UpsilonLabError as exc:
            return type(exc), str(exc)
        return name, delta.to_pairs(), runs

    @staticmethod
    def cli_result(value):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["invariants", "--alexander", json.dumps(value)])
        return code, out.getvalue(), err.getvalue()

    def test_every_gap_one_sequence_in_every_order(self, monkeypatch):
        values, count = [], 0
        for gaps in gap_one_sequences(8):
            pairs = FormalSemigroup(gaps).to_alexander().to_pairs()
            # json.dumps' order takes the one pass; the reversed order does, only for the unknot.
            runs = _lspace_pairs(pairs)
            assert (_alexander_of_runs(runs).to_pairs(), runs) == read_result(two_step, pairs)
            assert (_lspace_pairs(pairs[::-1]) is None) == bool(gaps)
            values += pair_orders(pairs)
            count += 1
        assert count == 2355
        for value in values:
            self.assert_reads_like_two_steps(value)
        for fn in (self.line_result, self.spec_result):
            new, old = self.both_routes(monkeypatch, fn, values)
            assert new == old

    @pytest.mark.parametrize("kind", sorted(OFF_ROUTE))
    def test_off_route_values_take_the_two_steps(self, kind):
        assert _lspace_pairs(OFF_ROUTE[kind]) is None
        self.assert_reads_like_two_steps(OFF_ROUTE[kind])

    @pytest.mark.parametrize("kind", sorted(ON_ROUTE))
    def test_on_route_values_meet_the_same_gate(self, kind):
        value = ON_ROUTE[kind]
        want = self.assert_reads_like_two_steps(value)
        if want[0] is NotLSpaceForm:
            with pytest.raises(NotLSpaceForm, match=re.escape(want[1])):
                _lspace_pairs(value)
        elif kind in ("first-gap-not-1", "odd-top"):  # the gate's refusals, worded by the two steps
            assert want[1] is None and _lspace_pairs(value) is None
        else:
            runs = _lspace_pairs(value)
            assert (_alexander_of_runs(runs).to_pairs(), runs) == want

    def test_lines_and_alexander_argument_read_alike(self, monkeypatch):
        kinds = {**OFF_ROUTE, **ON_ROUTE, "T(3,4)": T34, "T(3,4)-reversed": T34[::-1]}
        for fn in (self.line_result, self.cli_result):
            new, old = self.both_routes(monkeypatch, fn, kinds.values())
            assert new == old
        codes = dict(zip(kinds, (code for code, _, _ in new)))
        assert sorted(kind for kind, code in codes.items() if code == 0) == [
            "T(3,4)", "T(3,4)-reversed", "repeated-exponent", "split-term", "split-term-alternating",
            "zero-term", "zero-term-first", "zero-term-last"]
        assert set(codes.values()) == {0, 2}


def delta_is_set(record: CensusRecord) -> bool:
    """Whether the record's delta slot holds a value, read past CensusRecord.__getattr__."""
    try:
        CensusRecord.delta.__get__(record, CensusRecord)
    except AttributeError:
        return False
    return True


class TestRecordOfRuns:
    """A parsed record holds its name and runs; its delta is built from the runs when read."""

    LINES = [record_line("t09847", T09847_PAIRS), record_line("unknot", [[0, 1]]),
             record_line("T(5,7)", torus_semigroup(5, 7).to_alexander().to_pairs())]

    @pytest.mark.parametrize("read", [
        lambda r: r, hash, repr, copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r)),
    ], ids=["eq", "hash", "repr", "copy", "deepcopy", "pickle"])
    def test_parsed_record_reads_like_one_built_from_delta(self, read):
        for line in self.LINES:
            parsed = parse_census_line(line)
            assert not delta_is_set(parsed)
            data = json.loads(line)
            built = CensusRecord(data["name"], P(data["alexander"]))
            got, want = read(parsed), read(built)
            assert got == want and type(got) is type(want)
            assert delta_is_set(parsed) and parsed == built and hash(parsed) == hash(built)

    def test_delta_is_the_two_step_delta_on_every_gap_one_sequence(self):
        count = 0
        for gaps in gap_one_sequences(8):
            pairs = FormalSemigroup(gaps).to_alexander().to_pairs()
            record = parse_census_line(record_line("k", pairs))
            assert not delta_is_set(record)
            delta = record.delta
            assert delta == two_step(pairs)[0] and delta.to_pairs() == pairs
            assert record.delta is delta  # built once, then stored
            count += 1
        assert count == 2355

    def test_one_delta_on_both_routes_is_one_duplicate_group(self, tmp_path):
        lines = [json.dumps(json.loads(line)) for line in
                 sample_census_path().read_text().splitlines() if line.strip()]
        k1 = json.loads(next(line for line in lines if '"K1(1)"' in line))["alexander"]
        path = tmp_path / "census.jsonl"
        reports = []
        for pairs in (k1, k1[::-1]):  # one pass, then the two steps
            path.write_text("\n".join(lines + [record_line("K1(1)~copy", pairs)]) + "\n")
            records, warnings = load_census(path)
            assert warnings == [] and len(records) == 11
            assert not delta_is_set(records[-1])
            reports.append(scan_census(records))
            assert reports[-1] == all_pairs_scan(records)
        assert reports[0] == reports[1]
        assert reports[1]["delta_duplicate_groups"] == [["K1(1)", "K1(1)~copy"]]
        assert reports[1]["upsilon_equal_delta_distinct"] == [
            ["K1(1)", "K2(1)"], ["K1(1)~copy", "K2(1)"]]

    def test_both_routes_go_through_the_router_to_a_record_of_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parse_census_line built a record from a polynomial")

        monkeypatch.setattr(CensusRecord, "__init__", refuse)
        values, route = [], census._alexander_and_runs
        monkeypatch.setattr(census, "_alexander_and_runs", lambda v: values.append(v) or route(v))
        for pairs in (T09847_PAIRS, T09847_PAIRS[::-1]):  # one pass, then the two steps
            record = parse_census_line(record_line("t09847", pairs))
            assert not delta_is_set(record)
            assert record.delta.to_pairs() == T09847_PAIRS and record.genus == 7
        assert values == [T09847_PAIRS, T09847_PAIRS[::-1]]

    def test_load_and_scan_of_the_sample_build_no_polynomial(self, monkeypatch):
        from upsilon_lab import semigroups

        def refuse(*args, **kwargs):
            raise AssertionError("a census load or scan built a polynomial")

        monkeypatch.setattr(census, "_alexander_of_runs", refuse)
        monkeypatch.setattr(semigroups, "_alexander_of_runs", refuse)
        monkeypatch.setattr(IntLaurentPoly, "_from_terms", refuse)
        monkeypatch.setattr(IntLaurentPoly, "__init__", refuse)
        records, warnings = load_census(sample_census_path())
        report = scan_census(records)
        assert len(records) == 10 and warnings == []
        assert report["upsilon_equal_delta_distinct"] == [["K1(1)", "K2(1)"]]
        assert not any(map(delta_is_set, records))
