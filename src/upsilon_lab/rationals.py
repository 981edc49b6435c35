"""Exact rational parsing and formatting.

Rationals are serialized as strings everywhere ("5", "-2/3"), never as
floats, so JSON output can be diffed exactly.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str | int) -> Fraction:
    """Parse "p/q" or "p" (ints also accepted) into a Fraction.

    A zero denominator is bad input like any other: ValueError.

    >>> parse_rational("-2/3")
    Fraction(-2, 3)
    >>> parse_rational("7")
    Fraction(7, 1)
    >>> parse_rational("1/0")
    Traceback (most recent call last):
    ...
    ValueError: zero denominator in '1/0'
    """
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value: Fraction | int) -> str:
    """Render a rational as "p" or "p/q" with q > 0.

    >>> format_rational(Fraction(-2, 3))
    '-2/3'
    >>> format_rational(Fraction(4, 2))
    '2'
    """
    return str(Fraction(value))


def fixed6(value: Fraction | int) -> str:
    """Fixed-point decimal with 6 digits, computed in integer arithmetic.

    Used only for SVG coordinates (presentation, not data), where byte-exact
    deterministic output matters.  An exact int, the common case, is its
    digits and ".000000"; a Fraction (or a bool) takes the rounding route.

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
