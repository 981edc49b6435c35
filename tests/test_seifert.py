"""Seifert-form normalization and the coprime-pair L-space criterion."""

import json
import random
import time
from fractions import Fraction as F
from math import gcd

import pytest

from upsilon_lab.cli import main
from upsilon_lab.errors import BadOrdering
from upsilon_lab.rationals import int_text
from upsilon_lab.seifert import (
    SeifertForm,
    coprime_obstruction,
    decide,
    negate,
    normalize,
)


class TestNormalize:
    def test_shift_into_unit_interval(self):
        s = normalize(SeifertForm(0, (F(-1, 3), F(1, 3), F(1, 4))))
        assert s.e0 == -1
        assert s.ratios == (F(2, 3), F(1, 3), F(1, 4))

    def test_all_zero(self):
        s = normalize(SeifertForm(0, (0, 0, 0)))
        assert s.e0 == 0 and s.ratios == (0, 0, 0)

    def test_negate_then_normalize(self):
        s = normalize(negate(SeifertForm(0, (F(1, 3), F(-1, 3), F(-1, 2)))))
        assert s.e0 == -1
        assert s.ratios == (F(2, 3), F(1, 2), F(1, 3))

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(100):
            ratios = tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
            s = normalize(SeifertForm(rng.randint(-3, 3), ratios))
            assert normalize(s) == s
            assert all(0 <= r < 1 for r in s.ratios)

    def test_negation_involution_up_to_normalize(self):
        rng = random.Random(4)
        for _ in range(100):
            ratios = tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
            s = SeifertForm(rng.randint(-3, 3), ratios)
            assert normalize(negate(negate(s))) == normalize(s)


def naive_obstruction(r1, r2, r3, m_cap=1000):
    for m in range(2, m_cap + 1):
        if F(1, m) <= r3:
            break
        for a in range(1, m):
            if gcd(a, m) == 1 and F(a, m) > r1 and F(m - a, m) > r2:
                return (m, a)
    return None


def assert_certificate(cert):
    """The O(1) check that no m <= m_max has an admissible a."""
    assert cert["side"] in ("M", "-M") and cert["normalized"]["e0"] == -1
    r1, r2, r3 = (F(r) for r in cert["normalized"]["ratios"])
    assert 1 > r1 >= r2 >= r3 > 0
    m_max = cert["m_max"]
    assert F(1, m_max) > r3 >= F(1, m_max + 1)
    if cert["simplest"] is None:
        assert cert["neighbours"] is None and r1 >= 1 - r2
        return
    left, right = (F(r) for r in cert["neighbours"])
    a, b, c, d = left.numerator, left.denominator, right.numerator, right.denominator
    assert b * c - a * d == 1
    assert left <= r1 and right >= 1 - r2 and b + d > m_max
    assert cert["simplest"] == f"{a + c}/{b + d}"


def fibonacci_pair(digits):
    """Consecutive Fibonacci numbers F(n), F(n + 1), F(n) the first with this many digits."""
    a, b, least = 1, 2, 10 ** (digits - 1)
    while a < least:
        a, b = b, a + b
    return a, b


class TestCoprimeObstruction:
    def test_no_pair_for_tight_bounds(self):
        assert coprime_obstruction(F(2, 3), F(1, 2), F(1, 3)) is None

    def test_no_pair_forced_by_first_two(self):
        assert coprime_obstruction(F(2, 3), F(1, 3), F(1, 4)) is None

    def test_smallest_pair_found(self):
        assert coprime_obstruction(F(1, 3), F(1, 3), F(1, 5)) == (2, 1)

    def test_bad_ordering(self):
        with pytest.raises(BadOrdering):
            coprime_obstruction(F(1, 3), F(2, 3), F(1, 4))
        with pytest.raises(BadOrdering):
            coprime_obstruction(F(2, 3), F(1, 3), F(0))

    def test_agrees_with_naive_search(self):
        rng = random.Random(12)
        shapes = {"r1 = 1": 0, "r1 + r2 >= 1": 0, "pair": 0, "no pair": 0}
        for i in range(1200):
            dens = [rng.randint(1, 40) for _ in range(3)]
            r1, r2, r3 = sorted((F(rng.randint(1, d), d) for d in dens), reverse=True)
            if i % 3 == 0:  # widen the draws past the empty interval (r1, 1 - r2)
                r1 = max(r1, 1 - r2) if i % 2 else F(1)
            pair = coprime_obstruction(r1, r2, r3)
            assert pair == naive_obstruction(r1, r2, r3), (r1, r2, r3)
            shape = "r1 = 1" if r1 == 1 else "r1 + r2 >= 1" if r1 + r2 >= 1 else None
            shapes[shape or ("no pair" if pair is None else "pair")] += 1
        assert min(shapes.values()) >= 20, shapes

    def test_least_pair_is_the_simplest_fraction(self):
        # (L, 2/3) with L just below 2/3: the simplest fraction is 1111111111111/1666666666667.
        r1 = F(1111111111109, 1666666666664)
        assert coprime_obstruction(r1, F(1, 3), F(1, 10**13)) == (1666666666667, 1111111111111)
        assert coprime_obstruction(r1, F(1, 3), F(1, 1666666666667)) is None


class TestDecide:
    def test_double_cover_branch_family(self):
        verdict = decide(SeifertForm(0, (F(1, 3), F(-1, 3), F(-1, 4))))
        assert verdict.is_lspace
        assert verdict.certificate["side"] == "-M"
        assert verdict.certificate["simplest"] is None  # 2/3 + 1/3 >= 1
        assert_certificate(verdict.certificate)

    def test_connected_summand_family(self):
        verdict = decide(SeifertForm(0, (F(1, 2), F(-1, 3), F(2, 5))))
        assert verdict.is_lspace
        assert verdict.certificate["side"] == "M"

    def test_undecided_when_no_side_normalizes(self):
        verdict = decide(SeifertForm(0, (F(-3, 7), F(-1, 3), F(-1, 2))))
        assert not verdict.is_lspace
        assert "e0 = -3" in verdict.detail and "e0 = 0" in verdict.detail

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_pretzel_cover_instances(self, n):
        verdict = decide(SeifertForm(0, (F(1, 3), F(-1, 3), F(-1, n - 1))))
        assert verdict.is_lspace
        assert_certificate(verdict.certificate)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_montesinos_summand_instances(self, n):
        verdict = decide(SeifertForm(0, (F(1, 2), F(-1, 3), F(n, 2 * n + 1))))
        assert verdict.is_lspace

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_documented_limitation(self, n):
        # The e0 = 0 shape never reaches the implemented criterion; only a
        # sufficiency direction is implemented, so this stays Undecided.
        verdict = decide(SeifertForm(0, (F(3, 7), F(1, 3), F(1, n))))
        assert not verdict.is_lspace

    def test_lspace_always_carries_certificate(self):
        rng = random.Random(21)
        for _ in range(200):
            ratios = tuple(F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(3))
            verdict = decide(SeifertForm(rng.randint(-2, 1), ratios))
            if verdict.is_lspace:
                assert verdict.certificate is not None
                assert_certificate(verdict.certificate)

    def test_json_shape(self):
        verdict = decide(SeifertForm(0, (F(1, 3), F(-1, 3), F(-1, 4))))
        data = verdict.to_json()
        assert data["verdict"] == "LSpace"
        assert "certificate" in data


class TestClosedFormScale:
    """The cost follows the size of r1 and 1 - r2, never 1/r3."""

    @pytest.mark.parametrize("ratios, simplest", [
        ("1/2,1/2,1/1000000000000", None),
        ("1111111111109/1666666666664,1/3,1/1000000000000", "1111111111111/1666666666667"),
    ])
    def test_tiny_r3_answers_at_once(self, capsys, ratios, simplest):
        start = time.perf_counter()
        code = main(["seifert", "decide", "--e0", "-1", "--r", ratios])
        assert time.perf_counter() - start < 0.5
        out = capsys.readouterr().out
        assert code == 0 and len(out) < 1024
        report = json.loads(out)
        assert report["verdict"] == "LSpace"
        assert report["certificate"]["m_max"] == 10**12 - 1
        assert report["certificate"]["simplest"] == simplest
        assert_certificate(report["certificate"])

    def test_fibonacci_ratios_of_4000_digits(self, capsys):
        # F(n)/F(n+1) and F(n+1)/F(n+2) are adjacent: about 19,000 continued-fraction
        # terms lead to the simplest fraction between them, F(n+2)/F(n+3).
        f0, f1 = fibonacci_pair(4000)
        f2, f3 = f0 + f1, f0 + 2 * f1
        lo, hi = sorted((F(f0, f1), F(f1, f2)))
        code = main(["seifert", "decide", "--e0", "-1", "--r", f"{lo},{1 - hi},1/3"])
        assert code == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["simplest"] == f"{f2}/{f3}"
        assert_certificate(cert)

    def test_simplest_fraction_past_the_int_digit_limit(self, capsys):
        # Ratios of at most 4,300 digits (all int() reads by default) whose simplest
        # fraction has a 4,301-digit denominator: still LSpace, exit 0.
        f0, f1 = fibonacci_pair(4300)
        while f0 + 2 * f1 < 10**4300:
            f0, f1 = f1, f0 + f1
        f2, f3 = f0 + f1, f0 + 2 * f1
        lo, hi = sorted((F(f0, f1), F(f1, f2)))
        code = main(["seifert", "decide", "--e0", "-1", "--r", f"{lo},{1 - hi},1/1000"])
        assert code == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["simplest"] == f"{f2}/{int_text(f3)}" and len(int_text(f3)) == 4301
