"""Exact rational parsing and formatting.

Rationals are serialized as strings everywhere ("5", "-2/3"), never as
floats, so JSON output can be diffed exactly.
"""

from __future__ import annotations

import re

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str | int) -> Fraction:
    """Parse the forms format_rational writes, "p" or "p/q", into a Fraction.

    An optional sign and surrounding whitespace are allowed; ints are also
    accepted.  Anything else (an exponent, a decimal point, an underscore) is
    bad input, as is a zero denominator: ValueError, before any big number is
    built.

    >>> parse_rational(" -2/3 ")
    Fraction(-2, 3)
    >>> parse_rational("7")
    Fraction(7, 1)
    >>> parse_rational("1/0")
    Traceback (most recent call last):
    ...
    ValueError: zero denominator in '1/0'
    >>> parse_rational("1e10000000")
    Traceback (most recent call last):
    ...
    ValueError: expected p or p/q in whole numbers, got '1e10000000'
    """
    from fractions import Fraction  # here, not at the top: formatting builds none

    if isinstance(text, int):
        return Fraction(text)
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"expected p or p/q in whole numbers, got {text!r}")
    num, den = match.groups()
    den = 1 if den is None else int(den)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), den)


# Below the smallest limit sys.set_int_max_str_digits accepts (640).
_DIGIT_CHUNK = 10**600


def int_text(n: int) -> str:
    """repr(n), also past sys.get_int_max_str_digits(): exact counts run to thousands of digits.

    >>> int_text(-7 * 10**1200) == "-7" + "0" * 1200
    True
    """
    try:
        return repr(n)
    except ValueError:
        pass
    rest, parts = abs(n), []
    while rest >= _DIGIT_CHUNK:
        rest, low = divmod(rest, _DIGIT_CHUNK)
        parts.append(f"{low:0600d}")
    parts.append(repr(rest))
    return "-" * (n < 0) + "".join(reversed(parts))


def format_rational(value: Fraction | int) -> str:
    """Render a rational as "p" or "p/q" with q > 0, also past the int digit limit.

    >>> from fractions import Fraction
    >>> format_rational(Fraction(-2, 3))
    '-2/3'
    >>> format_rational(Fraction(4, 2))
    '2'
    """
    # int and Fraction both carry numerator and denominator; no Fraction is built.
    text = int_text(value.numerator)
    return text if value.denominator == 1 else f"{text}/{int_text(value.denominator)}"


def fixed6(value: Fraction | int) -> str:
    """Fixed-point decimal with 6 digits, computed in integer arithmetic.

    Used only for SVG coordinates (presentation, not data), where byte-exact
    deterministic output matters.  svgplot writes an int pixel (every tick,
    and every gap-function and hull vertex) as its digits and ".000000"
    itself; what reaches fixed6 is a polyline vertex with a pixel that is
    not an int (a non-integral Upsilon vertex), the axis lines, the tick
    halves that are constant along an axis, and the document's width and
    height.  An exact int is its digits and ".000000"; a Fraction (or a
    bool) takes the rounding route.

    >>> from fractions import Fraction
    >>> fixed6(Fraction(1, 3))
    '0.333333'
    >>> fixed6(Fraction(-5, 4))
    '-1.250000'
    >>> fixed6(-7)
    '-7.000000'
    """
    if type(value) is int:
        return f"{value}.000000"
    # int and Fraction both carry numerator and denominator; no Fraction is built.
    n, d = value.numerator * 10**6, value.denominator
    # Round half away from zero so the sign never flips the digit pattern.
    q, r = divmod(abs(n), d)
    if 2 * r >= d:
        q += 1
    sign = "-" if n < 0 and q > 0 else ""
    whole, frac = divmod(q, 10**6)
    return f"{sign}{whole}.{frac:06d}"
