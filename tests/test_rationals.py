"""fixed6 in integer arithmetic against the Fraction-based formula it replaced, and
parse_rational bounded to the forms format_rational writes."""

from fractions import Fraction as F

import pytest

from upsilon_lab.rationals import fixed6, format_rational, int_text, parse_rational


def fixed6_oracle(value) -> str:
    """The former formula: scale a Fraction by 10**6, then round half away from zero."""
    scaled = F(value) * 10**6
    n, d = scaled.numerator, scaled.denominator
    q, r = divmod(abs(n), d)
    if 2 * r >= d:
        q += 1
    sign = "-" if n < 0 and q > 0 else ""
    whole, frac = divmod(q, 10**6)
    return f"{sign}{whole}.{frac:06d}"


def test_ints():
    for n in range(-10**4, 10**4 + 1):
        assert fixed6(n) == fixed6_oracle(n) == f"{n}.000000"


@pytest.mark.parametrize("value", [10**30, -(10**30), True, False],
                         ids=["big", "big-negative", "true", "false"])
def test_int_fast_path_matches_the_general_route(value):
    # Exact ints print as digits plus ".000000"; a bool takes the rounding route.
    assert fixed6(value) == fixed6_oracle(value)


@pytest.mark.parametrize("d", range(1, 65))
def test_fractions_by_denominator(d):
    for n in range(-3 * d - 7, 3 * d + 8):
        value = F(n, d)
        assert fixed6(value) == fixed6_oracle(value)


@pytest.mark.parametrize("value, text", [
    (F(1, 2 * 10**6), "0.000001"),
    (F(-1, 2 * 10**6), "-0.000001"),
    (F(3, 2 * 10**6), "0.000002"),
    (F(-3, 2 * 10**6), "-0.000002"),
    (F(2 * 10**6 + 1, 2 * 10**6), "1.000001"),
    (F(-(2 * 10**6 + 1), 2 * 10**6), "-1.000001"),
])
def test_half_way_rounds_away_from_zero(value, text):
    assert fixed6(value) == fixed6_oracle(value) == text


@pytest.mark.parametrize("value", [F(-1, 3 * 10**6), F(-1, 10**7), F(-499_999, 10**12)])
def test_small_negatives_print_without_sign(value):
    assert fixed6(value) == fixed6_oracle(value) == "0.000000"


def test_parse_reads_back_what_format_writes():
    for value in (F(0), F(7), F(-2, 3), F(10**30 + 1, 3), F(-1, 10**12)):
        assert parse_rational(format_rational(value)) == value
        assert parse_rational(f" +{format_rational(abs(value))}\t") == abs(value)


@pytest.mark.parametrize("text", ["1e3", "1E3", "1.5", ".5", "1_000", "1/-2", "1 /2", "", "/2", "2/",
                                  "\u0661", "inf", "nan"])
def test_parse_refuses_other_forms(text):
    with pytest.raises(ValueError, match="expected p or p/q"):
        parse_rational(text)


def test_format_past_the_int_digit_limit():
    big = 10**5000 + 1
    assert format_rational(F(-big, 3)) == "-" + int_text(big) + "/3"
    assert format_rational(big) == int_text(big) == "1" + "0" * 4999 + "1"


def format_rational_oracle(value) -> str:
    """The former route: str(Fraction(value)), with int_text past the int digit limit."""
    try:
        return str(F(value))
    except ValueError:
        f = F(value)
        text = int_text(f.numerator)
        return text if f.denominator == 1 else f"{text}/{int_text(f.denominator)}"


@pytest.mark.parametrize("value", [
    0, 7, -7, 10**30, -(10**30), True, False, F(0), F(4, 2), F(-2, 3), F(10**30 + 1, 3),
    F(-1, 10**12), 10**4300, -(10**5000 + 1), F(10**4400 + 1, 7), F(-3, 10**4301 + 1),
], ids=["0", "7", "-7", "big", "big-negative", "true", "false", "F0", "F4/2", "F-2/3",
        "Fbig/3", "F-1/big", "4301-digits", "negative-5001-digits", "Fpast-limit/7",
        "F-3/past-limit"])
def test_format_matches_the_fraction_route(value):
    assert format_rational(value) == format_rational_oracle(value)


def test_format_matches_the_fraction_route_on_small_values():
    for n in range(-200, 201):
        assert format_rational(n) == format_rational_oracle(n)
        for d in range(1, 30):
            assert format_rational(F(n, d)) == format_rational_oracle(F(n, d))
