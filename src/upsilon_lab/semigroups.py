"""Formal semigroups of Alexander polynomials, and the L-space gate.

Expanding Delta(t)/(1-t) as a power series yields sum_{s in S} t^s for a set
S of nonnegative integers, the formal semigroup.  Its complement in Z splits
as the negative integers plus a finite gap sequence a_1 < ... < a_g with
a_g = 2g - 1, and that gap sequence is the canonical encoding here: a
FormalSemigroup stores only the gaps, membership is a binary search plus a
sign test.

Despite the name, the set S need not be closed under addition; the closure
test below reports a witness pair when it is not.

Two notions of "L-space form" meet here.  A formal gap sequence needs only
a_g = 2g - 1; gap_runs, FormalSemigroup and the restorability search work
with those.  The Alexander polynomial of an L-space knot also has gap 1: it
has the shape 1 - t + t^{a_2} - ... + t^{2g} (Hedden-Watson), and
lspace_runs alone decides that shape.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from math import gcd

from .errors import BadParameters, GenusTooLarge, NotLSpaceForm
from .laurent import IntLaurentPoly

# Largest genus accepted where one input number would otherwise set the cost
# (torus parameters, the designed family, the restore search); K1(MAX_TWIST)
# has genus 60,006.
MAX_GENUS = 100_000


class FormalSemigroup:
    """Gap-sequence encoding of a formal semigroup.

    >>> S = FormalSemigroup([1, 2, 4, 6, 9])
    >>> S.genus, S.contains(3), S.contains(4)
    (5, True, False)
    """

    __slots__ = ("_gaps",)

    def __init__(self, gaps: Iterable[int] = ()):
        """Gaps must be ints: 2.7, "2" or True raises TypeError, never truncated."""
        gap_list = list(gaps)
        for a in gap_list:
            if type(a) is not int:
                raise TypeError(f"gap {a!r} is not an int")
        for prev, cur in zip(gap_list, gap_list[1:]):
            if cur <= prev:
                raise ValueError("gap sequence must be strictly increasing")
        if gap_list and gap_list[0] < 1:
            raise ValueError("gaps must be positive integers")
        g = len(gap_list)
        if g and gap_list[-1] != 2 * g - 1:
            raise ValueError(
                f"top gap must be 2g-1 = {2 * g - 1}, got {gap_list[-1]}"
            )
        self._gaps = tuple(gap_list)

    @property
    def gaps(self) -> tuple[int, ...]:
        return self._gaps

    @property
    def genus(self) -> int:
        return len(self._gaps)

    @property
    def surgery_threshold(self) -> int:
        """Smallest r with r-surgery an L-space: 2g - 1 (equals -1 for g=0)."""
        return 2 * self.genus - 1

    def contains(self, s: int) -> bool:
        if s < 0:
            return False
        i = bisect_left(self._gaps, s)
        return not (i < len(self._gaps) and self._gaps[i] == s)

    def elements_below(self, bound: int) -> list[int]:
        """Members of S in [0, bound)."""
        return [s for s in range(max(bound, 0)) if self.contains(s)]

    def count_gaps_at_least(self, m: int) -> int:
        """The gap-counting function I(m) = #{i in G : i >= m}.

        The gap set G includes all negative integers, so for m <= 0 this is
        the closed form g + |m| rather than a materialized count.
        """
        if m <= 0:
            return len(self._gaps) - m
        return len(self._gaps) - bisect_left(self._gaps, m)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FormalSemigroup):
            return self._gaps == other._gaps
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._gaps)

    def __repr__(self) -> str:
        return f"FormalSemigroup(gaps={list(self._gaps)})"

    # -- conversions ---------------------------------------------------------

    @classmethod
    def from_alexander(cls, delta: IntLaurentPoly) -> "FormalSemigroup":
        """Read off S from the power series expansion of Delta/(1-t).

        The coefficient of t^m in the expansion is the partial sum of
        Delta's coefficients up to exponent m; for an L-space-form input
        those sums are always 0 or 1 and S is the set of exponents where the
        sum is 1.  Raises NotLSpaceForm with the offending exponent when a
        partial sum leaves {0, 1}, and on any other shape violation.

        The gate here is the partial-sum structure itself (which is the
        alternating property seen through the expansion) plus deg = 2g, so
        the round trip with to_alexander covers every formal gap sequence,
        including those without gap 1.  The stricter L-space shape (first
        sign change at exponent 1) is lspace_runs, which the command line
        and the census apply where input arrives.  Both checks here run on
        the terms (gap_runs) before any gap is built, so the cost follows
        the term count and the genus, never the degree alone.
        """
        return cls.from_gap_runs(gap_runs(delta))

    @classmethod
    def from_gap_runs(cls, runs: Iterable[tuple[int, int]]) -> "FormalSemigroup":
        """The semigroup whose gaps are the half-open runs [a, b), as gap_runs returns them."""
        return cls(e for a, b in runs for e in range(a, b))

    def to_alexander(self) -> IntLaurentPoly:
        """Restore Delta = 1 + (t - 1) * sum_i t^{a_i}."""
        terms: dict[int, int] = {0: 1}
        for a in self._gaps:
            terms[a + 1] = terms.get(a + 1, 0) + 1
            terms[a] = terms.get(a, 0) - 1
        return IntLaurentPoly._from_terms({e: c for e, c in terms.items() if c})

    # -- predicates -----------------------------------------------------------

    def is_closed_under_addition(self) -> tuple[bool, tuple[int, int] | None]:
        """Whether s + s' stays in S for all members.

        Only sums below 2g need checking (everything from 2g on is in S), so
        s < g.  With S and the gaps as bit masks below 2g, bit j of
        (members >> s) & (gaps >> 2s) says that s' = s + j is a member and
        s + s' a gap, so its lowest bit is the smallest failing s'.  That is
        O(g) operations on 2g-bit integers.  Returns (True, None) or
        (False, witness) with the lexicographically first failing pair
        (s, s'), s <= s'.

        >>> FormalSemigroup([1, 2, 3, 5, 6, 8, 11, 15]).is_closed_under_addition()
        (False, (4, 4))
        """
        g = self.genus
        digits = bytearray(b"1") * (2 * g)  # digits[i] is "1" iff i is in S, 0 <= i < 2g
        for a in self._gaps:
            digits[a] = ord("0")
        members = int(digits[::-1] or b"0", 2)
        gaps = members ^ ((1 << 2 * g) - 1)
        for s in range(g):
            if digits[s] == ord("1"):
                clash = (members >> s) & (gaps >> 2 * s)
                if clash:
                    return False, (s, s + (clash & -clash).bit_length() - 1)
        return True, None

    def symmetry_check(self) -> bool:
        """Alexander symmetry seen through the gap set.

        True iff s in S <=> 2g-1-s not in S for 0 <= s <= 2g-1.  Trivially
        true for the unknot (g = 0).
        """
        n = 2 * self.genus
        return all(self.contains(s) != self.contains(n - 1 - s) for s in range(n))

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"genus": self.genus, "gaps": list(self._gaps)}


def gap_runs(delta: IntLaurentPoly) -> list[tuple[int, int]]:
    """The gaps of a polynomial with partial coefficient sums in {0, 1}, as runs [a, b).

    The partial coefficient sums change only at the terms, so the gaps (the
    exponents where the sum is 0) run from each -1 term at a up to the next
    +1 term at b.  Walking the terms checks every partial sum, Delta(1) = 1
    and deg = 2g in O(terms); the errors are those documented on
    FormalSemigroup.from_alexander.

    >>> gap_runs(IntLaurentPoly({0: 1, 1: -1, 3: 1, 5: -1, 6: 1}))
    [(1, 3), (5, 6)]
    """
    if delta.is_zero:
        raise NotLSpaceForm("zero polynomial")
    if delta.min_exp != 0 or delta.coeff(0) != 1:
        raise NotLSpaceForm("polynomial is not in knot-normal form")
    psum = 0
    exps = []
    for e, c in delta.items():
        psum += c
        if psum not in (0, 1):
            raise NotLSpaceForm(f"partial coefficient sum {psum} at exponent {e}", exponent=e)
        exps.append(e)
    if psum != 1:
        raise NotLSpaceForm(f"Delta(1) = {psum}, expected 1")
    return _runs_of_alternating(exps)


def lspace_runs(delta: IntLaurentPoly) -> list[tuple[int, int]] | None:
    """The gap runs of a polynomial of the shape 1 - t + t^{a_2} - ... + t^{2g}, else None.

    The shape: coefficients alternating +1, -1 from +1 at exponent 0, an odd
    number of terms, the first sign change at exponent 1 and an even top
    exponent.  Any other shape gives None, so each caller words its own
    refusal; the shape with deg != 2g raises NotLSpaceForm as gap_runs does.

    >>> lspace_runs(IntLaurentPoly({0: 1, 1: -1, 3: 1, 5: -1, 6: 1}))
    [(1, 3), (5, 6)]
    >>> lspace_runs(IntLaurentPoly({0: 1, 2: -1, 4: 1})) is None
    True
    """
    # The term dict is read directly: the shape test needs the sorted exponents
    # as one list, and every census record passes here.
    terms = delta._terms
    exps = sorted(terms)
    n = len(exps)
    if not (
        n % 2
        and exps[0] == 0
        and (n == 1 or exps[1] == 1)
        and exps[-1] % 2 == 0
        and [terms[e] for e in exps] == [1, -1] * (n // 2) + [1]
    ):
        return None
    return _runs_of_alternating(exps)


def _runs_of_alternating(exps: list[int]) -> list[tuple[int, int]]:
    """The runs [exps[i], exps[i + 1]), i odd, of sorted terms alternating +1, -1 from 0.

    Every term moves the partial sum between 1 and 0, so odd-indexed terms
    open a run.  Raises NotLSpaceForm unless deg = 2g.
    """
    opens, closes = exps[1::2], exps[2::2]
    genus = sum(closes) - sum(opens)
    if 2 * genus != exps[-1]:
        raise NotLSpaceForm(f"degree {exps[-1]} does not equal twice the gap count {genus}")
    return list(zip(opens, closes))


def torus_semigroup(p: int, q: int) -> FormalSemigroup:
    """The rank-two semigroup <p, q> = {ap + bq : a, b >= 0} of T(p, q).

    Requires 1 < p < q coprime; the genus is (p-1)(q-1)/2, at most MAX_GENUS.
    """
    if not (1 < p < q):
        raise BadParameters(f"need 1 < p < q, got p={p}, q={q}")
    if gcd(p, q) != 1:
        raise BadParameters(f"p={p} and q={q} are not coprime")
    bound = (p - 1) * (q - 1)
    if bound // 2 > MAX_GENUS:
        raise GenusTooLarge(f"T({p},{q}) has genus {bound // 2}, above the limit of {MAX_GENUS}")
    reachable = [False] * (bound + 1)
    reachable[0] = True
    for step in (p, q):
        for i in range(step, bound + 1):
            if reachable[i - step]:
                reachable[i] = True
    gaps = [e for e in range(1, bound) if not reachable[e]]
    return FormalSemigroup(gaps)
