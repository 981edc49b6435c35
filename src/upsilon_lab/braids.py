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
builds one new dict.  The full twist Delta^2 = (sigma_1 ... sigma_{s-1})^s
is central, with image t^s * I, so each literal full twist in the word
(K1(n) and K2(n) hold n, the torus word of T(p, q) floor(q/p)) is cut out
once, when the word is built, and applied as one shift of t's exponent by
+-s; the component count, the letter loop and the exponent sum all read
that one cut.

The closure stays on plain {exponent: coefficient} dicts until Delta is
found.  B - I is the decoded column dicts with 1 taken off the diagonal,
and its determinant is taken by fraction-free elimination on those dicts
(laurent._bareiss, the elimination behind laurent.determinant).  Dividing
by t^s - 1 and multiplying by t - 1 is dividing det(I - B) by
1 + t + ... + t^(s-1): det's terms are scattered as coefficient
differences into one dense list read from t^0, and one running sum per
residue class mod s turns that list into Delta.  The unit ambiguity is
fixed by reading from t^0 and by the parity of s alone:
det(I - B) = (-1)^(s-1) * det(B - I), and det(I - B)(1) = s for a knot,
so Delta(1) = +1.  The determinant's cost grows faster than the cube of
the strand count, so a closure with more than MAX_STRANDS strands is
refused before it is built; the CLI also refuses a word of its own with
more than MAX_LETTERS letters.

This gives an independent oracle for every Alexander polynomial stored with a braid
word elsewhere in the package.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Iterable
from itertools import accumulate, compress, count, repeat
from operator import lt

from .errors import NonExactDivision, NotAKnot, TooManyStrands, UnknownName
from .laurent import IntLaurentPoly, _bareiss
from .records import Record

# The most strands a closure may have for the Burau determinant.  On the
# unknot word 1, 2, ..., s-1, alexander_of_closure took about 0.04 s at
# s = 32, 0.5 s at 64 and 1.6 s at 80 (CPython 3.11, a shared 2-CPU host).
MAX_STRANDS = 32

# The most letters a braid word given on the command line may have.  The
# cost grows with the length and the strand count: the worst of three
# seeded knot-closing words (random signs) of 99 to 100 letters took
# 0.001 s on 3 strands, 0.005 s on 5 and 0.25 s on 32, against 0.31 s at
# 127 letters on 32 strands and 4.2 s at 2,000 letters on 5 (one call each,
# CPython 3.11, a shared 2-CPU host).  These costs are those of words
# without full twists: each literal full twist is cut out when the word is
# built (BraidWord._full_twists_removed) and costs only its share of a bytes scan,
# but the bound counts every letter as given.  Named family words are
# bounded by MAX_TWIST instead.
MAX_LETTERS = 100


class BraidWord(Record):
    """A word in the braid group B_strands.

    >>> b = BraidWord(2, [1, 1, 1])
    >>> b.alexander_of_closure()
    IntLaurentPoly('1 - t + t^2')
    """

    __slots__ = ("strands", "letters", "_cut")
    _compared = ("strands", "letters")

    strands: int
    letters: tuple[int, ...]

    def __init__(self, strands: int, letters: Iterable[int] = (),
                 _cut: tuple[tuple[int, ...], int] | None = None):
        """Strands and letters must be ints: 4.9 or True raises TypeError.

        The checks run on the word's set of letter types and its distinct
        letters; the letters are walked one by one only to name the first
        offender.  The word's full twists are cut here, once: only copy and
        pickle pass _cut, the private slot that ==, hash and repr leave out.
        """
        if not isinstance(strands, int) or isinstance(strands, bool):
            raise TypeError(f"strand count {strands!r} is not an int")
        if strands < 2:
            raise ValueError("a braid group needs at least 2 strands")
        letts = tuple(letters)
        if not (all(issubclass(kind, int) and kind is not bool for kind in set(map(type, letts)))
                and all(0 < abs(x) < strands for x in set(letts))):
            for x in letts:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"letter {x!r} is not an int")
                if x == 0 or abs(x) >= strands:
                    raise ValueError(f"letter {x} is not a generator of B_{strands}")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letts)
        object.__setattr__(self, "_cut", self._full_twists_removed() if _cut is None else _cut)

    def __repr__(self) -> str:
        return f"BraidWord(strands={self.strands}, letters={list(self.letters)})"

    def to_json(self) -> dict:
        return {"strands": self.strands, "word": list(self.letters)}

    # -- combinatorics ---------------------------------------------------------

    def exponent_sum(self) -> int:
        """Positive letters minus negative ones, the negatives counted in C.

        Each full twist cut from the word (_cut) is s(s - 1) letters of one
        sign and adds +-s to t's exponent, so the cut letters add
        power * (s - 1); only the letters left over are counted.
        """
        letters, power = self._cut
        return len(letters) - 2 * sum(map(lt, letters, repeat(0))) + power * (self.strands - 1)

    def _full_twists_removed(self) -> tuple[tuple[int, ...], int]:
        """The letters with each literal full twist cut out, and t's exponent for them.

        __init__ calls this once per word and keeps the result as _cut, which
        closure_components, reduced_burau and exponent_sum read.  Four
        spellings are cut: (1, ..., s-1)^s and (s-1, ..., 1)^s, both Delta^2
        with image t^s * I, and their mirrors, both Delta^-2 with image
        t^-s * I.  The letters, in -31 .. 31, are written as signed bytes
        (two's complement) so that bytes.count and bytes.replace do the scan;
        a word on more than MAX_STRANDS strands, or too short to hold a
        twist, is returned whole.
        """
        s, letters = self.strands, self.letters
        if s > MAX_STRANDS or s * (s - 1) > len(letters):
            return letters, 0
        text = array("b", letters).tobytes()
        power = 0
        # Letter -x is the byte 256 - x: the mirrors run over 255 .. 257 - s.
        for spelling, sign in ((range(1, s), 1), (range(s - 1, 0, -1), 1),
                               (range(255, 256 - s, -1), -1), (range(257 - s, 256), -1)):
            twist = bytes(spelling) * s
            count = text.count(twist)
            if count:
                text = text.replace(twist, b"")
                power += sign * count * s
        if len(text) == len(letters):
            return letters, 0
        return tuple(array("b", text)), power

    def closure_components(self) -> int:
        """Number of cycles of the underlying permutation.

        A full twist is a pure braid, so the word is walked with its literal
        full twists removed (the cut made in __init__).  Only strands up to
        the largest remaining |letter| move; each strand right of them is a
        cycle of its own and is counted, not walked.
        """
        letters, _ = self._cut
        touched = max((abs(x) for x in letters), default=0) + 1
        perm = list(range(touched))
        for x in letters:
            i = abs(x) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        seen = [False] * touched
        cycles = self.strands - touched
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

        The letters walked are those left once every literal full twist is
        cut out (the cut made in __init__).  Each twist cut is central with image
        t^{+-s} * I, so the product of the cut word times t^power, power a
        multiple of +-s, is exactly the product of the whole word; the
        factor is added to e as the keys are decoded.  On K1(n) and K2(n)
        this leaves 17 letters of 12n + 17, whatever n is.

        >>> BraidWord(2, [1, 1, 1]).reduced_burau()
        [[IntLaurentPoly('-t^3')]]
        """
        return [[IntLaurentPoly._from_terms(terms) for terms in row] for row in self._burau_terms()]

    def _burau_terms(self) -> list[list[dict[int, int]]]:
        """reduced_burau's entries as fresh {exponent: coefficient} dicts."""
        n = self.strands - 1
        letters, power = self._cut
        columns = [{j: 1} for j in range(n)]
        for letter in letters:
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
                entries[row][j][e + power] = c
        return entries

    def alexander_of_closure(self) -> IntLaurentPoly:
        """Alexander polynomial of the closure, normalized so Delta(1) = +1.

        B - I is the Burau entries' fresh term dicts with 1 taken off the
        diagonal, and its determinant is taken on those dicts.  As
        Delta * (1 + t + ... + t^(s-1)) = det(I - B), Delta_k - Delta_(k-s)
        is the difference of det's coefficients, read from t^0; one running
        sum per residue class mod s undoes it, and Delta is wrapped once.
        """
        components = self.closure_components()
        if components != 1:
            raise NotAKnot(f"closure has {components} components, need 1")
        s = self.strands
        if s > MAX_STRANDS:
            raise TooManyStrands(
                f"{s} strands, above the limit of {MAX_STRANDS} for the Burau determinant"
            )
        b_minus_i = self._burau_terms()
        for i, row in enumerate(b_minus_i):
            diagonal = row[i]
            c = diagonal.pop(0, 0) - 1
            if c:
                diagonal[0] = c
        det = _bareiss(b_minus_i)
        # det(I - B) = (-1)^(s-1) * det(B - I), and no other sign is needed:
        # B at t = 1 is the standard representation of the closure's s-cycle,
        # so det(I - B)(1) = s and Delta(1) = 1.  Each term of det, so signed,
        # is scattered as a difference into one dense list read from t^0.
        lo, hi = min(det, default=0), max(det, default=-1)
        sums = [0] * (hi - lo + 2)
        for e, c in det.items():
            c = c if s % 2 else -c
            sums[e - lo] += c
            sums[e - lo + 1] -= c
        for r in range(s):
            sums[r::s] = accumulate(sums[r::s])
        # The quotient is exact iff the last s running sums are zero.
        top = max(len(sums) - s, 0)
        e = next((e for e in range(top, len(sums)) if sums[e]), None)
        if e is not None:
            raise NonExactDivision(f"nonzero remainder at exponent {e}", exponent=e)
        head = sums[:top]
        delta = dict(zip(compress(count(), head), compress(head, head)))
        at_one = sum(delta.values())
        if at_one != 1:
            raise NotAKnot(f"Delta(1) = {at_one}; the closure is not a knot")
        return IntLaurentPoly._from_terms(delta)


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
