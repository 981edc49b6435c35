"""Braid words and Alexander polynomials of their closures.

A braid word in B_s is a sequence of nonzero integers, letter +-i meaning
the standard generator sigma_i or its inverse.  The Alexander polynomial of
the closure comes from the reduced Burau representation:

    Delta(t) * (t^s - 1) = (unit) * det(I - B(word)) * (t - 1),

where B is the (s-1)-dimensional reduced Burau matrix.  A generator differs
from the identity in one column only, so B is built letter by letter by
rewriting column i-1 of the running product from its neighbouring columns c:

    sigma_i:     t*c[i-2] - t*c[i-1] + c[i]
    sigma_i^-1:  c[i-2] - t^-1*c[i-1] + t^-1*c[i]

where a column outside the matrix counts as zero.  Each column is one plain
dict of integer coefficients keyed by e * (s-1) + row for the term t^e of
that row, so a factor t^k is a shift of every key by k * (s-1) and a letter
builds one new dict; the keys become Laurent polynomials only once, at the
end.  The determinant is taken by fraction-free elimination directly over
the Laurent ring, and the unit ambiguity is fixed by shifting the minimum
exponent to 0 and scaling the sign so that Delta(1) = +1.  Its cost grows
faster than the cube of the strand count, so a closure with more than
MAX_STRANDS strands is refused before it is built; the CLI also refuses a
word of its own with more than MAX_LETTERS letters.

This gives an independent oracle for every Alexander polynomial stored with a braid
word elsewhere in the package.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .errors import NotAKnot, TooManyStrands, UnknownName
from .laurent import IntLaurentPoly, determinant

# The most strands a closure may have for the Burau determinant.  On the
# unknot word 1, 2, ..., s-1, alexander_of_closure took about 0.16 s at
# s = 32, 1.6 s at 64 and 3.5 s at 80 (CPython 3.11, a shared 2-CPU host).
MAX_STRANDS = 32

# The most letters a braid word given on the command line may have.  The
# cost grows about as the square of the length on 5 strands and the cube on
# 32: the worst of three knot-closing words (random signs, or all positive)
# of 99 to 100 letters took 0.003 s on 3 strands, 0.03 s on 5 and 1.5 s on
# 32, against 3.5 s at 127 letters on 32 strands and 7.6 s at 2,000 letters
# on 5 (CPython 3.11, a shared 2-CPU host).  Named family words are bounded
# by MAX_TWIST instead.
MAX_LETTERS = 100


class BraidWord:
    """A word in the braid group B_strands.

    >>> b = BraidWord(2, [1, 1, 1])
    >>> b.alexander_of_closure()
    IntLaurentPoly('1 - t + t^2')
    """

    __slots__ = ("_strands", "_letters")

    def __init__(self, strands: int, letters: Iterable[int] = ()):
        """Strands and letters must be ints: 4.9 or True raises TypeError."""
        if not isinstance(strands, int) or isinstance(strands, bool):
            raise TypeError(f"strand count {strands!r} is not an int")
        if strands < 2:
            raise ValueError("a braid group needs at least 2 strands")
        letts = tuple(letters)
        for x in letts:
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"letter {x!r} is not an int")
            if x == 0 or abs(x) >= strands:
                raise ValueError(f"letter {x} is not a generator of B_{strands}")
        self._strands = strands
        self._letters = letts

    @property
    def strands(self) -> int:
        return self._strands

    @property
    def letters(self) -> tuple[int, ...]:
        return self._letters

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BraidWord):
            return self._strands == other._strands and self._letters == other._letters
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._strands, self._letters))

    def __repr__(self) -> str:
        return f"BraidWord(strands={self._strands}, letters={list(self._letters)})"

    def to_json(self) -> dict:
        return {"strands": self._strands, "word": list(self._letters)}

    # -- combinatorics ---------------------------------------------------------

    def exponent_sum(self) -> int:
        return sum(1 if x > 0 else -1 for x in self._letters)

    def closure_components(self) -> int:
        """Number of cycles of the underlying permutation.

        Only strands up to the largest |letter| move; each strand right of
        them is a cycle of its own and is counted, not walked.
        """
        touched = max((abs(x) for x in self._letters), default=0) + 1
        perm = list(range(touched))
        for x in self._letters:
            i = abs(x) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        seen = [False] * touched
        cycles = self._strands - touched
        for start in range(touched):
            if seen[start]:
                continue
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
        return cycles

    def is_knot_closure(self) -> bool:
        return self.closure_components() == 1

    # -- Burau ---------------------------------------------------------------------

    def reduced_burau(self) -> list[list[IntLaurentPoly]]:
        """Product of reduced Burau matrices, (s-1) x (s-1) over Z[t, t^-1].

        Column j of the running product is one dict {e * (s-1) + row: coeff}
        for the term coeff * t^e in that row, so multiplying a column by t^k
        adds k * (s-1) to its keys.  Each letter +-i builds a new column
        j = i-1 from its neighbours: sigma_i gives t*c[j-1] - t*c[j] + c[j+1]
        and its inverse c[j-1] - t^-1*c[j] + t^-1*c[j+1], a column outside the
        matrix counting as zero and cancelled terms deleted.  The keys are
        decoded once at the end by divmod(key, s-1), whose floor division
        gives the right (e, row) for negative e too.

        >>> BraidWord(2, [1, 1, 1]).reduced_burau()
        [[IntLaurentPoly('-t^3')]]
        """
        n = self._strands - 1
        columns = [{j: 1} for j in range(n)]
        for letter in self._letters:
            j = abs(letter) - 1
            left, mid, right = (n, n, 0) if letter > 0 else (0, -n, -n)
            column = {key + mid: -c for key, c in columns[j].items()}
            for k, shift in ((j - 1, left), (j + 1, right)):
                if 0 <= k < n:
                    for key, c in columns[k].items():
                        key += shift
                        new = column.get(key, 0) + c
                        if new:
                            column[key] = new
                        else:
                            del column[key]
            columns[j] = column
        entries: list[list[dict[int, int]]] = [[{} for _ in range(n)] for _ in range(n)]
        for j, column in enumerate(columns):
            for key, c in column.items():
                e, row = divmod(key, n)
                entries[row][j][e] = c
        return [[IntLaurentPoly._from_terms(terms) for terms in row] for row in entries]

    def alexander_of_closure(self) -> IntLaurentPoly:
        """Alexander polynomial of the closure, normalized so Delta(1) = +1."""
        if not self.is_knot_closure():
            raise NotAKnot(
                f"closure has {self.closure_components()} components, need 1"
            )
        if self._strands > MAX_STRANDS:
            raise TooManyStrands(
                f"{self._strands} strands, above the limit of {MAX_STRANDS} for the Burau determinant"
            )
        n = self._strands - 1
        burau = self.reduced_burau()
        i_minus_b = [
            [
                (IntLaurentPoly.one() if i == j else IntLaurentPoly.zero()) - burau[i][j]
                for j in range(n)
            ]
            for i in range(n)
        ]
        det = determinant(i_minus_b)
        t = IntLaurentPoly.t()
        numerator = det * (t - 1)
        denominator = IntLaurentPoly.monomial(self._strands) - 1
        delta = numerator.exact_div(denominator)
        delta = delta.shifted(-delta.min_exp)
        at_one = sum(c for _, c in delta.items())
        if abs(at_one) != 1:
            raise NotAKnot(f"Delta(1) = {at_one}; the closure is not a knot")
        return -delta if at_one < 0 else delta


# -- named words -------------------------------------------------------------------

_FAMILY_PREFIX = (2, 1, 3, 2)
_FAMILY_TWIST = (1, 2, 3)
_FAMILY_SUFFIX = (2, 3) * 6

_CENSUS_WORDS = {
    "t09847": (2, 1, 3, 2) * 3 + (2, 1, 1, 2) + (1,),
    "v2871": (2, 1, 3, 2) * 3 + (2, 1, 1, 2) + (1, 1, 1),
}

_NAME_WITH_ARG = re.compile(r"^(K[12])\((\d+)\)$")

# The largest twist value n (genus 6n + 6 = 60,006): K1(n) and K2(n) grow with n.
MAX_TWIST = 10_000


def family_braid(which: str, n: int) -> BraidWord:
    """The 4-braid whose closure is the family knot K1(n) or K2(n)."""
    if which not in ("K1", "K2"):
        raise UnknownName(f"family member must be K1 or K2, got {which!r}")
    if not 1 <= n <= MAX_TWIST:
        raise ValueError(f"family parameter n must be from 1 to {MAX_TWIST}, got {n}")
    cancel = -2 if which == "K1" else -3
    letters = _FAMILY_PREFIX + _FAMILY_TWIST * (4 * n) + (cancel,) + _FAMILY_SUFFIX
    return BraidWord(4, letters)


def named_braid(name: str, n: int | None = None) -> BraidWord:
    """Built-in words: "t09847", "v2871", "K1"/"K2" (with n), or "K1(3)" style.

    n is the twist parameter of a bare "K1"/"K2"; any other name given an n
    raises ValueError rather than ignoring it.
    """
    match = _NAME_WITH_ARG.match(name)
    if match:
        if n is not None:
            raise ValueError(f"{name} already carries its twist parameter; give no separate n")
        name, n = match.group(1), int(match.group(2))
    if name in _CENSUS_WORDS:
        if n is not None:
            raise ValueError(f"{name} takes no twist parameter n")
        return BraidWord(4, _CENSUS_WORDS[name])
    if name in ("K1", "K2"):
        if n is None:
            raise UnknownName(f"{name} needs the twist parameter n, e.g. {name}(2)")
        return family_braid(name, n)
    raise UnknownName(f"no built-in braid word named {name!r}")


def torus_braid(p: int, q: int) -> BraidWord:
    """The standard p-strand word (sigma_1 ... sigma_{p-1})^q closing to T(p, q)."""
    if p < 2 or q < 1:
        raise ValueError("need p >= 2 and q >= 1")
    return BraidWord(p, tuple(range(1, p)) * q)
