"""CLI: reports, exit codes, schema round trips, deterministic SVG output."""

import io
import json
import math
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from upsilon_lab import cli, family
from upsilon_lab.census import sample_census_path
from upsilon_lab.braids import MAX_LETTERS, MAX_STRANDS, MAX_TWIST
from upsilon_lab.cli import build_parser, main
from upsilon_lab.errors import InvalidStepPattern
from upsilon_lab.family import catalog_names
from upsilon_lab.invariants import knot_invariants
from upsilon_lab.piecewise import PLFunction
from upsilon_lab.restorability import Witnesses
from upsilon_lab.semigroups import FormalSemigroup, lspace_runs, torus_semigroup

from test_semigroups import coprime_torus_pairs, per_gap_alexander


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors exit directly
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# Seven terms, genus 10**6 + 1: the hull is cheap, anything of size g is not.
SPARSE_HUGE_GENUS = ("[[0,1],[1,-1],[1000000,1],[1000001,-1],[1000002,1],"
                     "[2000001,-1],[2000002,1]]")


class TestInvariants:
    def test_pretzel_report(self, capsys):
        report = run_json(capsys, "invariants", "--catalog", "pretzel_237")
        assert report["genus"] == 5
        assert report["surgery_threshold"] == 9
        assert report["semigroup"]["gaps"] == [1, 2, 4, 6, 9]
        assert report["gap_function"]["values"] == [0, 2, 2, 2, 4, 4, 6, 6, 8, 10, 10]
        assert report["upsilon_breakpoints"] == [
            ["0", "0"], ["2/3", "-10/3"], ["1", "-4"], ["4/3", "-10/3"], ["2", "0"]
        ]
        assert report["upsilon_slopes"] == ["-5", "-2", "2", "5"]
        assert report["semigroup_closed"] is False
        assert report["symmetric"] is True

    def test_torus_23(self, capsys):
        report = run_json(capsys, "invariants", "--torus", "2,3")
        assert report["genus"] == 1
        ups = PLFunction.from_json(report["upsilon"])
        assert ups.vertices == ((0, 0), (1, -1), (2, 0))

    def test_unknot_upsilon_zero(self, capsys):
        report = run_json(capsys, "invariants", "--alexander", "[[0,1]]")
        ups = PLFunction.from_json(report["upsilon"])
        assert ups.vertices == ((0, 0), (2, 0))

    def test_braid_spec(self, capsys):
        report = run_json(
            capsys, "invariants", "--braid", '{"strands": 2, "word": [1, 1, 1]}'
        )
        assert report["genus"] == 1

    def test_pl_schemas_round_trip(self, capsys):
        report = run_json(capsys, "invariants", "--catalog", "T(3,5)")
        for key in ("hull", "upsilon"):
            f = PLFunction.from_json(report[key])
            assert f.to_json() == report[key]


def knot_word(strands: int, length: int) -> list[int]:
    """A knot-closing word: sigma_1 ... sigma_{s-1}, then squares of seeded random letters."""
    rng = random.Random(length)
    letters = list(range(1, strands))
    while len(letters) < length:
        x = rng.choice((1, -1)) * rng.randint(1, strands - 1)
        letters += [x, x]
    return letters


BRAID_ENTRY_POINTS = ["braid-word", "braid-json", "invariants-braid"]


def braid_argv(entry: str, strands: int, letters: list[int]) -> list[str]:
    spec = json.dumps({"strands": strands, "word": letters})
    if entry == "braid-word":
        return ["braid", "--strands", str(strands), "--word", ",".join(map(str, letters))]
    return ["braid", "--json", spec] if entry == "braid-json" else ["invariants", "--braid", spec]


class TestExitCodes:
    def test_two_specs_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--torus", "3,4", "--catalog", "t09847")
        assert code == 2 and "exactly one" in err

    def test_no_spec_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "invariants")
        assert code == 2

    @pytest.mark.parametrize("command", ["invariants", "restore", "plot"])
    def test_n_without_family_is_usage_error(self, capsys, tmp_path, command):
        out_args = ["--out", str(tmp_path / "x.svg")] if command == "plot" else []
        code, out, err = run_cli(capsys, command, "--torus", "2,3", "--n", "5", *out_args)
        assert code == 2 and out == "" and "--n goes only with --family" in err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("argv, message", [
        (["invariants", "--torus", "3"], "error: bad --torus value '3', expected P,Q\n"),
        (["invariants", "--family", "K1"], "error: --family needs --n\n"),
        (["family", "verify", "--n", "x"],
         "error: bad n range 'x': use N, A..B, or a comma list\n"),
        (["braid", "--strands", "3", "--word", "1,a"], "error: bad --word value '1,a'\n"),
    ], ids=["torus", "family-without-n", "family-verify-n", "braid-word"])
    def test_bad_value_refusal_text(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", message)

    def test_non_lspace_polynomial(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--alexander", "[[0,1],[1,-2],[2,1]]")
        assert code == 2 and "L-space form" in err

    def test_huge_degree_alexander_exits_quickly(self, capsys):
        # Three terms, degree 10**7: rejected from the terms, not by walking every exponent.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "invariants", "--alexander",
                                 "[[0,1],[1,-1],[10000000,1]]")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert "degree 10000000 does not equal twice the gap count 9999999" in err

    def test_float_alexander_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "invariants", "--alexander", "[[0.9,1],[1,-1],[2.7,1]]")
        assert code == 2 and out == "" and "bad --alexander value" in err

    @pytest.mark.parametrize("value, message", [
        ('{"0": 1}', '"alexander" must be a JSON array, got object'),
        ('"ab"', '"alexander" must be a JSON array, got string'),
        ('""', '"alexander" must be a JSON array, got string'),  # used to be the zero polynomial
        ("{}", '"alexander" must be a JSON array, got object'),
        ("5", '"alexander" must be a JSON array, got number'),
        ("null", '"alexander" must be a JSON array, got null'),
        ("[[0,1,2]]", 'pair 1 of "alexander" must be an array of 2 integers, got array of 3'),
        ("[0, 1]", 'pair 1 of "alexander" must be an array of 2 integers, got number'),
    ])
    def test_alexander_that_is_not_pairs_is_worded_in_json_terms(self, capsys, value, message):
        # Python's unpacking used to word these ("'int' object is not iterable").
        assert run_cli(capsys, "invariants", "--alexander", value) == (
            2, "", f"error: bad --alexander value: {message}\n")

    def test_empty_alexander_array_is_the_zero_polynomial(self, capsys):
        assert run_cli(capsys, "invariants", "--alexander", "[]") == (
            2, "", "error: polynomial 0 is not in L-space form; the pipeline does not apply\n")

    def test_unknown_catalog_name(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--catalog", "nonesuch")
        assert code == 2 and "nonesuch" in err

    def test_multi_component_braid(self, capsys):
        code, _, err = run_cli(capsys, "braid", "--strands", "2", "--word", "1,1")
        assert code == 2 and "components" in err

    NON_INTEGER_BRAIDS = {
        '{"strands":4.9,"word":[2,1,3,2,1]}': '"strands" must be a JSON integer, got number',
        '{"strands":4,"word":[2.9,1.2,3.5,2.1,1]}':
            'letter 1 of "word" must be a JSON integer, got number',
        '{"strands":2,"word":[true,true,true]}':
            'letter 1 of "word" must be a JSON integer, got boolean',
        '{"strands":1e400,"word":[1]}': '"strands" must be a JSON integer, got number',
        '{"strands":4,"word":[1e400]}': 'letter 1 of "word" must be a JSON integer, got number',
        '{"strands":"3","word":[1,2]}': '"strands" must be a JSON integer, got string',
        '{"strands":3.0,"word":[1,2]}': '"strands" must be a JSON integer, got number',
        '{"strands":3,"word":[1,1.5]}': 'letter 2 of "word" must be a JSON integer, got number',
        '{"strands":3,"word":[1,null]}': 'letter 2 of "word" must be a JSON integer, got null',
    }

    @pytest.mark.parametrize("flag", [("braid", "--json"), ("invariants", "--braid")])
    @pytest.mark.parametrize("spec", NON_INTEGER_BRAIDS)
    def test_non_integer_braid_json_is_usage_error(self, capsys, flag, spec):
        # Named in JSON's terms, so no Python repr such as inf or True reaches the message.
        message = self.NON_INTEGER_BRAIDS[spec]
        assert run_cli(capsys, *flag, spec) == (2, "", f"error: bad {flag[1]} value: {message}\n")

    @pytest.mark.parametrize("flag", [("braid", "--json"), ("restore", "--braid")])
    @pytest.mark.parametrize("spec, message", [
        ("[3,[1,2]]", "must be a JSON object, got array"),
        ("7", "must be a JSON object, got number"),
        ("null", "must be a JSON object, got null"),
        ('"s"', "must be a JSON object, got string"),
        ("true", "must be a JSON object, got boolean"),
        ('{"strands":3}', 'has no "word" key'),
        ('{"word":[1,2]}', 'has no "strands" key'),
        ('{"strands":3,"word":[1,2],"extra":1}', 'unknown key "extra"'),
        ('{"strands":3,"word":[1,2],"b":1,"a":2}', 'unknown keys "b", "a"'),
        ('{"strands":3,"word":7}', '"word" must be a JSON array, got number'),
        ('{"strands":3,"word":{"1":2}}', '"word" must be a JSON array, got object'),
    ], ids=["array", "number", "null", "string", "boolean", "no-word", "no-strands",
            "extra-key", "two-extra-keys", "word-number", "word-object"])
    def test_braid_json_refusals_name_json_types(self, capsys, flag, spec, message):
        assert run_cli(capsys, *flag, spec) == (2, "", f"error: bad {flag[1]} value: {message}\n")

    @pytest.mark.parametrize("flag", [("invariants", "--alexander"), ("invariants", "--braid"),
                                      ("braid", "--json")],
                             ids=["invariants-alexander", "invariants-braid", "braid-json"])
    def test_deeply_nested_json_is_usage_error(self, capsys, flag):
        # json.loads raises RecursionError here, which used to exit 3 as an internal error.
        code, out, err = run_cli(capsys, *flag, "[" * 60_000 + "]" * 60_000)
        assert code == 2 and out == ""
        assert err.startswith(f"error: bad {flag[1]} value: ") and err.count("\n") == 1

    def test_huge_strand_count_exits_quickly(self, capsys):
        # One letter on 10**18 strands: the untouched strands are counted, not walked.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "braid", "--strands", str(10**18), "--word", "1")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert f"closure has {10**18 - 1} components, need 1" in err

    @pytest.mark.parametrize("flag", ["braid", "invariants"])
    def test_too_many_strands_exits_quickly(self, capsys, flag):
        # The unknot word 1, ..., s-1 closes to a knot, so only the strand bound stops it.
        strands = MAX_STRANDS + 1
        letters = list(range(1, strands))
        argv = (["braid", "--strands", str(strands), "--word", ",".join(map(str, letters))]
                if flag == "braid"
                else ["invariants", "--braid", json.dumps({"strands": strands, "word": letters})])
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert f"TooManyStrands: {strands} strands, above the limit of {MAX_STRANDS}" in err

    @pytest.mark.parametrize("entry", BRAID_ENTRY_POINTS)
    @pytest.mark.parametrize("strands, length", [(32, MAX_LETTERS + 1), (5, 10 * MAX_LETTERS)],
                             ids=["one-past-the-limit", "ten-times-the-limit"])
    def test_overlong_braid_word_exits_quickly(self, capsys, entry, strands, length):
        # The Burau route took 2.3 s on the 1,000-letter word below; the length is checked first.
        letters = knot_word(strands, length)
        assert len(letters) == length
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *braid_argv(entry, strands, letters))
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == (f"error: WordTooLong: the braid word has {length} letters, "
                       f"above the limit of {MAX_LETTERS}\n")

    @pytest.mark.parametrize("entry", BRAID_ENTRY_POINTS)
    def test_longest_accepted_braid_word_answers(self, capsys, entry):
        # (sigma_1 sigma_2)^50 closes to T(3,50), an L-space knot, so invariants answers too.
        letters = [1, 2] * (MAX_LETTERS // 2)
        assert len(letters) == MAX_LETTERS
        report = run_json(capsys, *braid_argv(entry, 3, letters))
        assert report["alexander"] == torus_semigroup(3, MAX_LETTERS // 2).to_alexander().to_pairs()

    def test_named_words_are_not_bounded_by_the_letter_limit(self, capsys):
        # K1(MAX_TWIST) has 12 * MAX_TWIST + 17 letters; MAX_TWIST bounds it instead.
        report = run_json(capsys, "braid", "--named", "K1", "--n", str(MAX_TWIST))
        assert len(report["braid"]["word"]) == 12 * MAX_TWIST + 17 > MAX_LETTERS
        assert report["alexander"] == family.alexander_closed_form(
            family.FamilyKnot("K1", MAX_TWIST)).to_pairs()

    @pytest.mark.parametrize("argv, message", [
        (["--named", "K1(3)", "--n", "5"], "already carries its twist parameter"),
        (["--named", "t09847", "--n", "5"], "takes no twist parameter n"),
        (["--named", "v2871", "--strands", "3", "--word", "1"], "got 2: --named, --strands/--word"),
        (["--json", '{"strands":2,"word":[1,1,1]}', "--strands", "3", "--word", "1,2"],
         "got 2: --json, --strands/--word"),
        (["--json", '{"strands":2,"word":[1,1,1]}', "--named", "K1", "--n", "1"],
         "got 2: --named, --json"),
        (["--json", '{"strands":2,"word":[1,1,1]}', "--n", "2"], "--n goes only with --named"),
        (["--strands", "2", "--word", "1,1,1", "--n", "2"], "--n goes only with --named"),
        (["--strands", "2"], "--strands and --word go together"),
        ([], "got 0: none"),
    ], ids=["name-with-n-and-n", "fixed-name-with-n", "named-and-word", "json-and-word",
            "json-and-named", "json-with-n", "word-with-n", "strands-alone", "nothing"])
    def test_braid_inputs_are_exclusive(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "braid", *argv)
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (["family", "verify", "--n", str(10**18)], "n values must be from 1 to 10000"),
        (["invariants", "--family", "K1", "--n", str(10**18)], "twist parameter n must be from 1 to 10000"),
        (["braid", "--named", "K1", "--n", str(10**18)], "family parameter n must be from 1 to 10000"),
    ], ids=["family-verify", "invariants-family", "braid-named"])
    def test_huge_twist_value_exits_quickly(self, capsys, argv, message):
        # One twist value, not a range: bounded by MAX_TWIST before anything of size n is built.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert message in err


    @pytest.mark.parametrize("argv", [
        ["restore", "--designed-family", str(10**12)],
        ["restore", "--torus", "2,3000001"],
        ["invariants", "--torus", "1000003,1000033"],
        ["restore", "--alexander", SPARSE_HUGE_GENUS],
    ], ids=["designed-family", "restore-torus", "invariants-torus", "restore-sparse-alexander"])
    def test_genus_past_the_cap_exits_quickly(self, capsys, argv):
        # Checked against MAX_GENUS before anything of size g is built.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith("error: GenusTooLarge: ") and "above the limit of 100000" in err

    @pytest.mark.parametrize("argv", [
        ["invariants"],
        ["plot", "--what", "hull"],
        ["plot", "--what", "gapfn"],
    ], ids=["invariants", "plot-hull", "plot-gapfn"])
    def test_sparse_alexander_past_the_cap_exits_quickly(self, capsys, tmp_path, argv):
        # The seven-term g = 10**6 + 1 polynomial is capped where the spec is read.
        out = tmp_path / "x.svg"
        if argv[0] == "plot":
            argv = [*argv, "--out", str(out)]
        start = time.perf_counter()
        code, stdout, err = run_cli(capsys, *argv, "--alexander", SPARSE_HUGE_GENUS)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and stdout == "" and not out.exists()
        assert err == ("error: GenusTooLarge: the polynomial has genus 1000001, "
                       "above the limit of 100000\n")

    def test_closure_check_at_genus_ten_thousand(self, capsys):
        # The pairwise check took 21.6 s at g = 10,000; the bit-mask one takes O(g) big-int steps.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "invariants", "--torus", "2,20001")
        assert time.perf_counter() - start < 2
        assert code == 0, err
        report = json.loads(out)
        assert report["genus"] == 10_000 and report["semigroup_closed"] is True


class TestTorusSpec:
    """--torus takes its runs from torus_semigroup's gaps and builds Delta from them."""

    def test_matches_the_gated_per_gap_route(self):
        for p, q in coprime_torus_pairs(40):
            delta = per_gap_alexander(torus_semigroup(p, q).gaps)
            args = cli._parse_argv(["invariants", "--torus", f"{p},{q}"])
            assert cli._resolve_knot_spec(args) == (f"T({p},{q})", delta, lspace_runs(delta)), (p, q)

    def test_report_is_the_per_gap_report(self, capsys):
        delta = per_gap_alexander(torus_semigroup(7, 9).gaps)
        code, out, err = run_cli(capsys, "invariants", "--torus", "7,9")
        assert (code, err) == (0, "")
        assert out == json.dumps(knot_invariants(delta, name="T(7,9)"), indent=2) + "\n"

    def test_walks_no_gate_and_no_to_alexander(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(cli, "lspace_runs", refuse)
        monkeypatch.setattr(FormalSemigroup, "to_alexander", refuse)
        assert run_cli(capsys, "restore", "--torus", "3,4")[0] == 0

    def test_report_and_plot_take_the_torus_semigroup_as_built(self, monkeypatch, capsys, tmp_path):
        def refuse(*args):
            raise AssertionError("rebuilt the gaps from the runs")

        report = run_cli(capsys, "invariants", "--torus", "7,9")
        plot = ["plot", "--torus", "7,9", "--what", "gapfn", "--out"]
        assert run_cli(capsys, *plot, str(tmp_path / "a.svg"))[0] == 0
        monkeypatch.setattr(FormalSemigroup, "from_gap_runs", refuse)
        assert run_cli(capsys, "invariants", "--torus", "7,9") == report
        assert run_cli(capsys, *plot, str(tmp_path / "b.svg"))[0] == 0
        assert (tmp_path / "b.svg").read_bytes() == (tmp_path / "a.svg").read_bytes()


class TestLSpaceGate:
    """One gate on the knot specification: the same stderr line from every pipeline command."""

    @pytest.mark.parametrize("argv", [
        ["invariants"],
        ["restore"],
        ["plot", "--what", "hull"],
    ], ids=["invariants", "restore", "plot"])
    @pytest.mark.parametrize("alexander, message", [
        ("[[0,1],[1,-2],[2,1]]",
         "error: polynomial 1 - 2*t + t^2 is not in L-space form; the pipeline does not apply\n"),
        ("[[0,1],[1,-1],[4,1]]",
         "error: NotLSpaceForm: degree 4 does not equal twice the gap count 3\n"),
        (SPARSE_HUGE_GENUS,
         "error: GenusTooLarge: the polynomial has genus 1000001, above the limit of 100000\n"),
    ], ids=["not-lspace-shape", "degree-not-2g", "genus-past-cap"])
    def test_refusal_text(self, capsys, tmp_path, argv, alexander, message):
        out = tmp_path / "x.svg"
        if argv[0] == "plot":
            argv = [*argv, "--out", str(out)]
        code, stdout, err = run_cli(capsys, *argv, "--alexander", alexander)
        assert (code, stdout, err) == (2, "", message)
        assert not out.exists()

    def test_gate_runs_before_the_plot_kinds(self, capsys, tmp_path):
        # The gate runs where the knot specification is read, before plot's own checks.
        code, stdout, err = run_cli(capsys, "plot", "--what", "bogus", "--out", str(tmp_path / "x.svg"),
                                    "--alexander", "[[0,1],[1,-1],[4,1]]")
        assert (code, stdout, err) == (
            2, "", "error: NotLSpaceForm: degree 4 does not equal twice the gap count 3\n")
        code, _, err = run_cli(capsys, "plot", "--what", "bogus", "--out", str(tmp_path / "x.svg"),
                               "--torus", "3,4")
        assert (code, err) == (2, "error: unknown plot kinds: bogus\n")


def test_genus_cap_admits_the_largest_twist():
    from upsilon_lab.braids import MAX_TWIST
    from upsilon_lab.semigroups import MAX_GENUS

    assert 6 * MAX_TWIST + 6 <= MAX_GENUS  # the genus of K1(n) is 6n + 6


class TestRestore:
    def test_t09847_unique(self, capsys):
        report = run_json(capsys, "restore", "--catalog", "t09847")
        assert report["unique"] is True
        assert report["witnesses"] == [[1, 2, 3, 5, 6, 9, 13]]

    def test_family_k1_n2_not_unique(self, capsys):
        report = run_json(capsys, "restore", "--family", "K1", "--n", "2")
        assert report["unique"] is False
        assert report["budget_exhausted"] is False

    def test_budget_scientific_notation_is_exact(self):
        # --max-solutions is the one budget left: it caps the witness list.
        for text, value in (("1E4", 10_000), ("2e8", 200_000_000), ("1e18", 10**18)):
            args = build_parser().parse_args(
                ["restore", "--catalog", "t09847", "--max-solutions", text])
            assert args.max_solutions == value and type(args.max_solutions) is int

    @pytest.mark.parametrize("value", ["1e400", "1e999999999", "0", "0e5", "-5", "nan", "inf",
                                       "1.5", "2.5e8", "", "10000000000000000000"])
    def test_bad_budget_is_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "restore", "--catalog", "t09847",
                                 "--max-solutions", value)
        assert code == 2 and out == ""
        assert "argument --max-solutions: expected a whole number" in err
        # The node budget is gone: counts are exact, so --budget is no option at all.
        code, out, err = run_cli(capsys, "restore", "--catalog", "t09847", "--budget", value)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --budget" in err

    @pytest.mark.parametrize("value", ["0", "-1", "1.5", "inf"])
    def test_bad_max_solutions_is_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "restore", "--catalog", "t09847",
                                 "--max-solutions", value)
        assert code == 2 and out == ""
        assert "argument --max-solutions: expected a whole number" in err

    def test_all_flag_reports_every_profile(self, capsys):
        filtered = run_json(capsys, "restore", "--catalog", "pretzel_237")
        unfiltered = run_json(capsys, "restore", "--catalog", "pretzel_237", "--all")
        assert filtered["total_count"] == unfiltered["total_count"] == 2
        assert len(unfiltered["witnesses"]) == 2

    def test_designed_family(self, capsys):
        report = run_json(capsys, "restore", "--designed-family", "5")
        assert report["unique"] is True

    def test_genus_past_the_ladder_designed_family(self, capsys):
        # g = 601: a walk 2g + 1 steps deep must not hit the recursion limit.
        report = run_json(capsys, "restore", "--designed-family", "600")
        assert report["unique"] is True
        assert report["budget_exhausted"] is False

    def test_genus_past_the_ladder_torus_hits_the_cap(self, capsys):
        report = run_json(capsys, "restore", "--torus", "21,52")  # g = 510
        assert report["budget_exhausted"] is True
        assert report["total_count"] == int(
            "1146439429663839122768813361776646971585765283028443331237519974702855720917742604"
            "784173390646124958174567344695049803019515881738584238279223879156703915456000000000000")
        assert report["symmetric_count"] == int(
            "2081963756970833329610130324598700710685050134017743470077639190247690920807312000000")
        assert len(report["witnesses"]) == 1

    @pytest.mark.parametrize("argv, total, symmetric", [
        (["--torus", "13,23"], 103671993183697370234880000, 15711081408000),
        (["--torus", "11,13"], 375070500000, 945000),
        (["--family", "K1", "--n", "3"], 574992, 1320),
    ])
    def test_capped_search_reports_exact_counts(self, capsys, argv, total, symmetric):
        # A walk cut at 10,000 profiles printed symmetric_count 1 and "unique": true for the tori.
        report = run_json(capsys, "restore", *argv)
        assert (report["total_count"], report["symmetric_count"]) == (total, symmetric)
        assert report["unique"] is False and report["budget_exhausted"] is True

    def test_twist_twenty_is_fast(self, capsys):
        start = time.perf_counter()
        report = run_json(capsys, "restore", "--family", "K1", "--n", "20")
        assert time.perf_counter() - start < 1
        assert report["symmetric_count"] == 23967101236980083899511995200

    def test_count_past_the_cost_bound_exits_quickly(self, capsys):
        # Hull (-5k, 0), (0, 4k), (5k, 10k): two segments of k primitive steps (3, 2) and (2, 3).
        from upsilon_lab.invariants import hull_vertices
        from upsilon_lab.restorability import MAX_COUNT_WORK, _pattern_to_gaps
        from upsilon_lab.semigroups import FormalSemigroup

        k = 500
        assert 2 * (k * 5 * k) ** 2 > MAX_COUNT_WORK
        # Up 2k, flat 3k, up 3k - 1, flat 2k - 1, up, flat: above both chords, gap 1 included.
        steps = [2] * (2 * k) + [0] * (3 * k) + [2] * (3 * k - 1) + [0] * (2 * k - 1) + [2, 0]
        delta = FormalSemigroup(_pattern_to_gaps(bytes(steps))).to_alexander()
        assert hull_vertices(delta) == ((-5 * k, 0), (0, 4 * k), (5 * k, 10 * k))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "restore", "--alexander", json.dumps(delta.to_pairs()))
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith("error: CountTooCostly: ")

    def test_designed_family_below_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "restore", "--designed-family", "2")
        assert code == 2 and "m must be >= 3" in err

    def test_family_n_zero_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "invariants", "--family", "K1", "--n", "0")
        assert code == 2


class TestFamilyVerify:
    def test_json_all_pass(self, capsys):
        report = run_json(capsys, "family", "verify", "--n", "1..2")
        assert report["ok"] is True
        assert [r["n"] for r in report["results"]] == [1, 2]

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "family", "verify", "--n", "1", "--format", "text")
        assert code == 0
        assert "PASS overall" in out

    def test_single_member(self, capsys):
        # The other member's claims are dropped; the pair claims are kept.
        for which in ("K1", "K2"):
            report = run_json(capsys, "family", "verify", "--n", "1", "--which", which)
            assert list(report["results"][0]["checks"]) == [
                "alexander_distinct", f"semigroup_{which}", f"envelope_{which}", "upsilon_equal",
                f"torres_{which}", f"burau_{which}", f"not_semigroup_{which}",
            ]

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "family", "verify", "--n", "0..2")
        assert code == 2

    @pytest.mark.parametrize("text", ["3..1", "2..1"])
    def test_backward_range_is_empty(self, capsys, text):
        code, out, err = run_cli(capsys, "family", "verify", "--n", text)
        assert code == 2 and out == "" and f"n range {text!r} is empty" in err

    @pytest.mark.parametrize("text", [f"1..{10**18}", "1..1001", ",".join(["1"] * 1001)],
                             ids=["range-10**18", "range-1001", "list-1001"])
    def test_oversized_range_is_usage_error(self, capsys, monkeypatch, text):
        # Sized before any list is built or any member verified.
        from upsilon_lab import cli as cli_module

        monkeypatch.setattr(cli_module.family, "verify_family_pair",
                            lambda n: pytest.fail(f"verified n={n}"))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "family", "verify", "--n", text)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert "values; at most 1000 allowed" in err

    def test_largest_range_is_accepted(self, capsys, monkeypatch):
        from upsilon_lab import cli as cli_module
        from upsilon_lab.family import CheckResult, FamilyVerification

        monkeypatch.setattr(cli_module.family, "verify_family_pair",
                            lambda n: FamilyVerification(n, {"stub": CheckResult(True, "")}))
        report = run_json(capsys, "family", "verify", "--n", "1..1000")
        assert [r["n"] for r in report["results"]] == list(range(1, 1001))

    def test_failed_assertion_exits_one(self, capsys, monkeypatch):
        from upsilon_lab import cli as cli_module
        from upsilon_lab.family import CheckResult, FamilyVerification

        def broken(n):
            return FamilyVerification(n, {"alexander_distinct": CheckResult(False, "forced")})

        monkeypatch.setattr(cli_module.family, "verify_family_pair", broken)
        code, out, _ = run_cli(capsys, "family", "verify", "--n", "1")
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_internal_error_exits_three(self, capsys, monkeypatch):
        from upsilon_lab import cli as cli_module

        def crash(n):
            raise RuntimeError("forced crash")

        monkeypatch.setattr(cli_module.family, "verify_family_pair", crash)
        code, out, err = run_cli(capsys, "family", "verify", "--n", "1")
        assert code == cli_module.EXIT_INTERNAL == 3
        assert out == ""
        assert err == "error: internal: RuntimeError: forced crash\n"


class TestParserReuse:
    CALLS = (
        ["restore", "--catalog", "t09847", "--max-solutions", "0"],  # argparse usage error
        ["census", "scan", "sample"],
        ["invariants", "--catalog", "pretzel_237"],
    )

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_reused_parser_matches_fresh_parsers(self, capsys):
        fresh = []
        for argv in self.CALLS:
            build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        build_parser.cache_clear()
        reused = [run_cli(capsys, *argv) for argv in self.CALLS]
        assert [code for code, _, _ in reused] == [2, 0, 0]
        assert reused == fresh


class TestDispatch:
    """main() hands argv straight to the subcommand's parser; the outcome must be
    exactly that of build_parser().parse_args(argv)."""

    PARSED = (
        ["invariants", "--torus", "5,7"],
        ["invariants", "--torus=5,7"],
        ["invariants", "--tor", "5,7"],
        ["invariants"],  # parses: the one-spec rule is checked after parsing
        ["invariants", "--family", "K1", "--n", "-3"],
        ["restore", "--catalog", "t09847", "--all", "--max-solutions", "2e3"],
        ["restore", "--designed-family", "4"],
        ["family", "verify"],
        ["family", "verify", "--n", "1..2", "--which", "K1", "--format", "text"],
        ["seifert", "decide", "--e0", "0", "--r", " 1/3,-1/3,-1/4"],
        ["braid", "--named", "K1", "--n", "2"],
        ["braid", "--strands", "3", "--word", "1,-2,1"],
        ["census", "scan", "sample"],
        ["plot", "--torus", "3,4", "--what", "gapfn,upsilon", "-o", "x.svg"],
        ["plot", "--torus", "3,4", "--out=x.svg"],
    )
    REFUSED = (
        [], ["-h"], ["--help"], ["bogus"], ["bogus", "--torus", "5,7"],
        ["invariants", "-h"], ["family", "verify", "-h"], ["census", "-h"],
        ["--"], ["--tor"], ["--torus=5,7"], ["--", "invariants", "--torus", "5,7"],
        ["invariants", "--"], ["invariants", "--", "--torus", "5,7"],
        ["invariants", "--torus", "5,7", "extra"],
        ["restore", "--catalog", "t09847", "extra"],
        ["restore", "--catalog", "t09847", "--threads", "2"],
        ["restore", "--catalog", "t09847", "--max-solutions", "0"],
        ["family"], ["family", "bogus"], ["family", "verify", "extra"],
        ["family", "verify", "--n", "1", "--burau", "on"],
        ["census"], ["census", "scan"], ["census", "scan", "sample", "extra"],
        ["seifert", "decide", "--e0", "x", "--r", "1/2,1/3,1/5"],
        ["plot", "--torus", "3,4", "-o"],
        ["plot", "--torus", "3,4"],
    )

    @staticmethod
    def _outcome(capsys, parse, argv):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    @pytest.mark.parametrize("argv", PARSED, ids=" ".join)
    def test_parsed_namespace_matches_top_level_parse(self, capsys, argv):
        direct = self._outcome(capsys, cli._parse_argv, argv)
        assert isinstance(direct[0], dict) and direct[0]["command"] == argv[0]
        assert direct == self._outcome(capsys, build_parser().parse_args, argv)

    @pytest.mark.parametrize("argv", REFUSED, ids=lambda argv: " ".join(argv) or "no-args")
    def test_refusal_and_help_match_top_level_parse(self, capsys, argv):
        direct = self._outcome(capsys, cli._parse_argv, argv)
        assert direct[0] in (0, 2)
        assert direct == self._outcome(capsys, build_parser().parse_args, argv)

    def test_subcommand_parser_reads_argv_once(self, monkeypatch):
        # The top-level parser is not consulted when argv starts with a command.
        parser = build_parser()
        monkeypatch.setattr(parser, "parse_known_args", None)
        assert cli._parse_argv(["census", "scan", "sample"]).path == "sample"


class TestSeifert:
    def test_decide_lspace(self, capsys):
        report = run_json(capsys, "seifert", "decide", "--e0", "0", "--r", " 1/3,-1/3,-1/4")
        assert report["verdict"] == "LSpace"
        assert report["certificate"]["normalized"]["e0"] == -1

    def test_decide_undecided(self, capsys):
        # Leading space keeps argparse from reading the ratios as a flag.
        report = run_json(capsys, "seifert", "decide", "--e0", "0", "--r", " -3/7,-1/3,-1/2")
        assert report["verdict"] == "Undecided"

    def test_bad_ratio_count(self, capsys):
        code, _, _ = run_cli(capsys, "seifert", "decide", "--e0", "0", "--r", "1/2,1/3")
        assert code == 2

    def test_zero_denominator_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "seifert", "decide", "--e0", "0", "--r", "1/0,1,1")
        assert code == 2
        assert "zero denominator" in err

    @pytest.mark.parametrize("ratio", ["1e10000000", "1e100000000", "1.5", "1_000", "\u0661/2"])
    def test_only_the_written_forms_parse(self, capsys, ratio):
        # An exponent is refused from its text: "1e10000000" no longer builds 10**(10**7).
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "seifert", "decide", "--e0", "-1", "--r", f"{ratio},1/2,1/3")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert "expected p or p/q in whole numbers" in err


class TestBraid:
    def test_named_word(self, capsys):
        report = run_json(capsys, "braid", "--named", "t09847")
        assert report["exponent_sum"] == 17
        assert report["alexander"][0] == [0, 1]
        assert report["alexander"][-1] == [14, 1]

    def test_family_word(self, capsys):
        report = run_json(capsys, "braid", "--named", "K2", "--n", "1")
        assert report["braid"]["strands"] == 4
        assert report["exponent_sum"] == 27

    def test_word_flags(self, capsys):
        report = run_json(capsys, "braid", "--strands", "2", "--word", "1,1,1")
        assert report["alexander"] == [[0, 1], [1, -1], [2, 1]]

    def test_json_flag(self, capsys):
        report = run_json(capsys, "braid", "--json", '{"strands": 3, "word": [1, -2, 1, -2]}')
        assert report["exponent_sum"] == 0


class TestCensus:
    def test_scan_sample(self, capsys):
        report = run_json(capsys, "census", "scan", "sample")
        assert report["records"] == 10
        assert report["upsilon_duplicate_groups"] == [["K1(1)", "K2(1)"]]

    def test_scan_path(self, capsys):
        report = run_json(capsys, "census", "scan", str(sample_census_path()))
        assert report["delta_duplicate_groups"] == []

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "census", "scan", "/nonexistent/file.jsonl")
        assert code == 2


class TestPlot:
    def test_deterministic_bytes(self, capsys, tmp_path):
        paths = [tmp_path / "a.svg", tmp_path / "b.svg"]
        for path in paths:
            code, _, err = run_cli(
                capsys, "plot", "--catalog", "pretzel_237",
                "--what", "gapfn,hull,upsilon", "--out", str(path),
            )
            assert code == 0, err
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        text = first.decode()
        assert text.startswith('<?xml version="1.0"')
        assert text.count("<polyline") == 3
        assert 'stroke-dasharray' in text

    def test_unknot(self, capsys, tmp_path):
        out = tmp_path / "unknot.svg"
        code, _, _ = run_cli(capsys, "plot", "--alexander", "[[0,1]]",
                             "--what", "gapfn,hull", "--out", str(out))
        assert code == 0
        assert out.exists()

    def test_upsilon_only_panel(self, capsys, tmp_path):
        out = tmp_path / "u.svg"
        code, _, _ = run_cli(capsys, "plot", "--torus", "3,4",
                             "--what", "upsilon", "--out", str(out))
        assert code == 0
        assert out.read_text().count("<polyline") == 1

    def test_unknown_kind(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "plot", "--catalog", "t09847",
                               "--what", "spaghetti", "--out", str(tmp_path / "x.svg"))
        assert code == 2

    @pytest.mark.parametrize("what, named", [("", '""'), ("gapfn,", '""'), (",bogus,hull", '"", bogus')])
    def test_empty_kind_is_named(self, capsys, tmp_path, what, named):
        out = tmp_path / "x.svg"
        code, stdout, err = run_cli(capsys, "plot", "--torus", "3,4", "--what", what, "--out", str(out))
        assert (code, stdout, err) == (2, "", f"error: unknown plot kinds: {named}\n")
        assert not out.exists()


def emitted(monkeypatch, *argv):
    """The object a CLI call hands to _emit."""
    seen = []
    monkeypatch.setattr(cli, "_emit", seen.append)
    assert main(list(argv)) == 0
    (data,) = seen
    return data


REPORTS = [
    *(["invariants", "--catalog", name] for name in catalog_names()),
    *(["restore", "--catalog", name] for name in catalog_names()),
    *(["restore", "--catalog", name, "--all"] for name in catalog_names()),
    ["family", "verify", "--n", "1..3"],
    ["seifert", "decide", "--e0", "0", "--r=-3/7,-1/3,-1/2"],
    ["seifert", "decide", "--e0", "0", "--r", " 1/3,-1/3,-1/4"],
    ["braid", "--named", "K1", "--n", "3"],
    ["census", "scan", "sample"],
    ["restore", "--family", "K1", "--n", "3", "--all"],  # 10,000 witnesses, at the cap
    ["restore", "--torus", "13,23"],  # symmetric witnesses cut by rank
]


class CountingStdout(io.StringIO):
    """A stdout that keeps each text handed to write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


class WriteSizes:
    """A stdout that keeps only the length of each text handed to write."""

    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


class TestJsonChunks:
    """_json_text and _emit against json.dumps(indent=2), the encoder they replaced."""

    @pytest.mark.parametrize("argv", REPORTS, ids=" ".join)
    def test_reports_match_json_dumps(self, monkeypatch, capsys, argv):
        data = emitted(monkeypatch, *argv)
        # json.dumps reads restore witnesses (a lazy sequence) through default=list.
        expected = json.dumps(data, indent=2, default=list)
        assert cli._json_text(data) == expected
        monkeypatch.undo()
        cli._emit(data)
        # Compared line by line, so a mismatch is reported without diffing megabytes.
        assert capsys.readouterr().out.split("\n") == (expected + "\n").split("\n")

    def test_witnesses_are_written_as_gap_lists(self):
        patterns = [bytes([2, 0, 0, 2, 2, 0]), bytes([2, 0])]
        value = {"witnesses": Witnesses(patterns), "empty": Witnesses()}
        assert cli._json_text(value) == json.dumps(
            {"witnesses": [[1, 2, 5], [1]], "empty": []}, indent=2)

    def test_nested_witnesses_match_json_dumps(self):
        patterns = [bytes([2, 0, 0, 2, 2, 0]), bytes([2, 0, 2, 0, 0, 2, 2, 0])]
        value = {"outer": [{"witnesses": Witnesses(patterns)}, 7]}
        gaps = [[1, 2, 5], [1, 2, 5, 7]]
        assert cli._json_text(value) == json.dumps(
            {"outer": [{"witnesses": gaps}, 7]}, indent=2)

    @pytest.mark.parametrize("patterns, gaps", [
        ([b""], [[]]),
        ([b"", b""], [[], []]),
        ([bytes([2, 0]), b"", bytes([2, 0, 0, 2, 2, 0]), bytes([2, 0, 2, 0])],
         [[1], [], [1, 2, 5], [1, 3]]),
        ([bytes([2, 2, 0, 2, 0, 0, 2, 0, 2, 0, 2, 0]), bytes([2, 0])],
         [[1, 3, 5, 8, 10, 11], [1]]),
    ], ids=["genus-0", "two-genus-0", "mixed-lengths", "long-then-short"])
    def test_witness_edge_cases_match_json_dumps(self, patterns, gaps):
        assert list(Witnesses(patterns)) == [tuple(x) for x in gaps]
        for value, expected in ((Witnesses(patterns), gaps),
                                ([[Witnesses(patterns)]], [[gaps]])):
            assert cli._json_text(value) == json.dumps(expected, indent=2)

    @pytest.mark.parametrize("pattern", [bytes([0, 2]), bytes([2, 0, 0]), bytes([2, 1]),
                                         bytes([0, 2, 2, 0]), bytes([2, 0, 2, 0, 0, 2])])
    def test_malformed_witness_pattern_raises(self, pattern):
        # A pattern is checked once, when its Witnesses is built, so none reaches the encoder.
        with pytest.raises(InvalidStepPattern):
            Witnesses([bytes([2, 0]), pattern])

    @pytest.mark.parametrize("n, size", [(3, 2_450_514), (5, 3_658_273), (100, 66_499_924)],
                             ids=["K1-n3-pieces", "K1-n5-long-runs", "K1-n100-one-piece"])
    def test_witnesses_stream_in_bounded_blocks(self, monkeypatch, n, size):
        # _emit writes a top-level Witnesses in blocks of at most 64 KiB, never as one string.
        # K1(5)'s last piece has 969 paths: its runs of witnesses are cut into several blocks.
        data = emitted(monkeypatch, "restore", "--family", "K1", "--n", str(n), "--all")
        monkeypatch.undo()
        stdout = WriteSizes()
        monkeypatch.setattr(sys, "stdout", stdout)
        cli._emit(data)
        assert len(data["witnesses"]) == 10_000 and sum(stdout.sizes) == size
        assert max(stdout.sizes) <= 2**16 < size
        assert len(stdout.sizes) < 10_000  # a block holds many witnesses

    def test_witness_longer_than_a_block_is_a_block_alone(self):
        long = bytes([2, 0] * 7_000)  # gaps 1, 3, ..., 13999: about 74 KB of text
        patterns = [long, bytes([2, 0]), long, long, bytes([2, 0, 0, 2, 2, 0]), bytes([2, 0])]
        chunks = list(cli._witness_chunks(Witnesses(patterns), ""))
        witness_texts = json.dumps([list(gaps) for gaps in Witnesses(patterns)], indent=2)
        assert "".join(chunks) == witness_texts
        assert all(len(chunk) <= 2**16 or chunk.count("[") - (i == 0) == 1
                   for i, chunk in enumerate(chunks))
        assert sum(len(chunk) > 2**16 for chunk in chunks) == 3

    @pytest.mark.parametrize("argv", [
        *(["--n", "3", "--max-solutions", cap]
          for cap in ("1", "21", "22", "23", "44", "45", "65", "66", "67", "132", "133", "9999")),
        ["--n", "2", "--max-solutions", "2016"], ["--n", "2", "--max-solutions", "1e18"],
        *(["--n", "5", "--max-solutions", cap] for cap in ("968", "969", "970")),
    ], ids=" ".join)
    def test_caps_at_block_edges_match_json_dumps(self, monkeypatch, capsys, argv):
        # K1(3)'s last piece has 22 paths and the one before it 3: runs of 22 and 66.
        # K1(5)'s last piece has 969 paths: caps within it, at its end and just past it.
        data = emitted(monkeypatch, "restore", "--family", "K1", *argv, "--all")
        monkeypatch.undo()
        cli._emit(data)
        # Compared line by line, so a mismatch is reported without diffing megabytes.
        expected = json.dumps(data, indent=2, default=list) + "\n"
        assert capsys.readouterr().out.split("\n") == expected.split("\n")

    @pytest.mark.parametrize("value", [10**4299, -(10**4300), 7**30000, [3**20000 + 1]],
                             ids=["4300-digits", "negative-4301", "25353-digits", "in-list"])
    def test_ints_past_the_digit_limit(self, value):
        # Exact counts can have tens of thousands of digits; repr stops at 4,300 by default.
        text = cli._json_text(value)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert text == json.dumps(value, indent=2)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("value", [
        [], {}, [[]], {"a": {}}, [True, 1], [0, -3, 10**30], (1, 2), None,
        {"q": 'say "hi"', "b": "back\\slash", "c": "bell\x07", "u": "Υ(t) — ünïcode"},
        [[1, 2], [], [[3]], {"k": [False, None, "s", 4]}],
    ])
    def test_edge_values_match_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        [], [""], ["", ""], ['say "hi"', "back\\slash", "tab\tnew\nline"],
        ["K1(3)", "Υ(t)", "ünïcode", "bell\x07", "\U0001d4b0"],
        ["3", 7, "-2/3"], [7, "3"], ["x", None, True],
        {"pairs": [["0", "-1/2"], ["2", "0"]], "slopes": ["1/2", "0", "-1"]},
        [[0, 1], [1, -1], (2, 1), [], [10**30, -7]],
        [["a", 1], [True], [None], [[1]], [False, 0], ["b"]],
    ], ids=["empty", "empty-string", "two-empty-strings", "escapes", "non-ascii",
            "str-then-int", "int-then-str", "str-then-literals", "nested", "flat-entries",
            "non-flat-entries"])
    def test_flat_lists_match_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_string_list_is_one_chunk(self, monkeypatch):
        # Flat lists and equal-length rows are each one _uniform_text call; no entry
        # of theirs reaches _json_text.  Any other list is written entry by entry.
        uniform, texts = [], []

        def uniform_text(items, indent, real=cli._uniform_text):
            uniform.append(real(items, indent))
            return uniform[-1]

        def json_text(obj, indent="", real=cli._json_text):
            texts.append(obj)
            return real(obj, indent)

        monkeypatch.setattr(cli, "_uniform_text", uniform_text)
        monkeypatch.setattr(cli, "_json_text", json_text)
        value = {"names": ["T(3,4)", "Υ"], "gaps": [1, 2, 5], "rows": [[1, 2], [3, 4]],
                 "mixed": ["a", 1]}
        assert cli._json_text(value) == json.dumps(value, indent=2)
        assert uniform == ['[\n    "T(3,4)",\n    "\\u03a5"\n  ]', "[\n    1,\n    2,\n    5\n  ]",
                           "[\n    [\n      1,\n      2\n    ],\n    [\n      3,\n      4\n    ]\n  ]",
                           None]
        assert texts == [value, *value.values(), "a", 1]

    @pytest.mark.parametrize("value", [
        [[0, 1], [1, -1], [2, 1]], [["0", "-1/2"], ["2", "0"]], [[7]], {"rows": [[1, 2], [3, 4]]},
        [[1, 2], [3], [4, 5]], [[1, 2], [], [3, 4]], [[], []],
        [[1, "a"], [2, "b"]], [[1, 2], ["a", "b"]],
        [[True, False], [False, True]], [[1, True], [0, 1]],
        [(1, 2), (3, 4)], ((1, 2), [3, 4]), ([5, 6],),
        [["Υ(t)", "ünïcode"], ['say "hi"', "back\\slash"], ["tab\tnew\nline", "\U0001d4b0"]],
        [[None, 1], [None, 2]], [[[1]], [[2]]], [[1, 2], {"a": 1}], [[1, 2], 3],
    ], ids=["int-rows", "str-rows", "one-row", "nested", "ragged", "empty-row", "all-empty",
            "mixed-in-row", "mixed-across-rows", "bools", "int-and-bool",
            "tuples", "tuple-of-rows", "one-tuple-row", "escapes-and-non-ascii",
            "none", "deeper", "row-then-dict", "row-then-int"])
    def test_rows_match_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [[[1, 10**4300], [2, 3]], [[-(7**6000)], [0]]],
                             ids=["4301-digits", "negative-5071-digits"])
    def test_row_int_past_the_digit_limit(self, value):
        text = cli._json_text(value)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert text == json.dumps(value, indent=2)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("value", [[[1.5, 2], [3, 4]], [[Fraction(1, 2)], [1]]],
                             ids=["float", "fraction"])
    def test_rows_of_non_json_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)

    def test_emit_streams_per_entry(self, monkeypatch):
        # One write per top-level entry, each holding that entry's whole value.
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        rows, ragged = [(1, 2, 5), (1, 3, 5)], [(1, 2, 5), (1, 3)]
        cli._emit({"rows": rows, "ragged": ragged, "unique": False})
        assert stdout.getvalue() == json.dumps(
            {"rows": rows, "ragged": ragged, "unique": False}, indent=2) + "\n"
        assert stdout.writes == [
            '{\n  "rows": ', json.dumps(rows, indent=2).replace("\n", "\n  "),
            ',\n  "ragged": ', json.dumps(ragged, indent=2).replace("\n", "\n  "),
            ',\n  "unique": ', "false", "\n}\n",
        ]

    def test_emit_empty_report(self, capsys):
        cli._emit({})
        assert capsys.readouterr().out == "{}\n"

    def test_non_str_top_level_key_exits_3(self, monkeypatch, capsys):
        with pytest.raises(TypeError):
            cli._emit({1: "int key"})
        monkeypatch.setattr(cli, "knot_invariants", lambda delta, name=None, _runs=None: {("a",): 0})
        code, _, err = run_cli(capsys, "invariants", "--torus", "2,3")
        assert code == 3 and err.startswith("error: internal: TypeError: ")

    @pytest.mark.parametrize("value", [
        1.5, [Fraction(1, 2)], {"s": {1, 2}}, {1: "int key"}, {"deep": [{"x": 0.0}]},
    ], ids=["float", "fraction", "set", "int-key", "nested-float"])
    def test_non_json_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)

    def test_non_json_value_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "knot_invariants", lambda delta, name=None, _runs=None: {"x": 0.5})
        code, _, err = run_cli(capsys, "invariants", "--torus", "2,3")
        assert code == 3 and err.startswith("error: internal: TypeError: ")

    @pytest.mark.parametrize("report", [{"genus": 1, "x": 0.5}, {"genus": 1, 2: "int key"}],
                             ids=["float-value", "int-key"])
    def test_unencodable_report_writes_nothing(self, monkeypatch, capsys, report):
        # The good entry before the bad one must not reach stdout either.
        monkeypatch.setattr(cli, "knot_invariants", lambda delta, name=None, _runs=None: report)
        code, out, err = run_cli(capsys, "invariants", "--torus", "2,3")
        assert (code, out) == (3, "")
        assert err.startswith("error: internal: TypeError: ")


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "upsilon_lab", "invariants", "--torus", "3,4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["genus"] == 3

    def test_restore_memory_follows_the_listed_witnesses(self):
        # K1(1000) has g = 6006; one of its symmetric profiles ranks below
        # 10,000.  Storing every walked profile needed about 935 MB.
        proc = run_capped(["restore", "--family", "K1", "--n", "1000"])
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        n = 1000
        fuss = math.comb(4 * n, n) // (3 * n + 1)
        assert report["total_count"] == fuss**2 * 9 * math.comb(4 * n, 2 * n) // (2 * n + 1)
        assert report["symmetric_count"] == fuss * 3 * math.comb(2 * n, n)
        assert report["budget_exhausted"] is True and len(report["witnesses"]) == 1

    def test_restore_at_the_largest_twist(self):
        # g = 60,006: the counts have about 31,560 and 15,781 digits.
        proc = run_capped(["restore", "--family", "K1", "--n", "10000"])
        assert proc.returncode == 0, proc.stderr
        total = re.search(r'"total_count": ([0-9]+),', proc.stdout)[1]
        assert len(total) > 30_000 and '"unique": false' in proc.stdout

    def test_restore_all_converts_each_witness_as_written(self):
        # 10,000 witnesses of g = 606 as gap tuples took about 200 MB.
        proc = run_capped(["restore", "--family", "K1", "--n", "100", "--all"], megabytes=128)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert len(report["witnesses"]) == 10_000 and report["budget_exhausted"] is True



def run_capped(argv, megabytes=512):
    """Run the CLI in a child process under an address-space limit."""
    resource = pytest.importorskip("resource")
    limit = megabytes * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, "-m", "upsilon_lab", *argv],
                          capture_output=True, text=True, preexec_fn=cap_address_space)


def _readme_examples() -> list[str]:
    """Every `upsilon-lab ...` line of the README's sh blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("upsilon-lab ")]


README_EXAMPLES = _readme_examples()


class TestReadmeAgreesWithCli:
    def test_examples_found(self):
        assert len(README_EXAMPLES) >= 10

    @pytest.mark.parametrize("line", README_EXAMPLES)
    def test_example_parses(self, line):
        build_parser().parse_args(shlex.split(line)[1:])

    @pytest.mark.parametrize("argv", [
        ["restore", "--catalog", "t09847", "--threads", "2"],
        ["restore", "--catalog", "t09847", "-j", "2"],
        ["restore", "--catalog", "t09847", "--symmetric-only"],
        ["restore", "--catalog", "t09847", "--budget", "2e8"],
        ["census", "scan", "sample", "--threads", "2"],
        ["family", "verify", "--n", "1", "--burau", "on"],
    ])
    def test_removed_flags_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
