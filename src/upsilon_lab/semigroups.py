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
has the shape 1 - t + t^{a_2} - ... + t^{2g} (Hedden-Watson).  Both gates
call one shape test, coefficients alternating +1, -1, ..., +1 from exponent
0; lspace_runs adds gap 1 and an even top exponent.  JSON pairs that arrive
sorted in that pattern meet lspace_runs' tests in the same pass that reads
them (_lspace_pairs).  A gap tuple gives its runs directly (_runs_of_gaps),
and runs give Delta (_alexander_of_runs): to_alexander and the command
line's torus knots take that route, with no gate.  The torus knots' runs
carry the semigroup they were read from (_runs_of_semigroup), so the report
takes it back (_semigroup_of_runs) instead of rebuilding the gap tuple.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from itertools import chain, compress, cycle, starmap
from math import gcd

from .errors import BadParameters, GenusTooLarge, NotLSpaceForm
from .laurent import IntLaurentPoly
from .records import Record

# Largest genus accepted where one input number would otherwise set the cost
# (torus parameters, the designed family, the restore search); K1(MAX_TWIST)
# has genus 60,006.
MAX_GENUS = 100_000


class FormalSemigroup(Record):
    """Gap-sequence encoding of a formal semigroup.

    >>> S = FormalSemigroup([1, 2, 4, 6, 9])
    >>> S.genus, S.contains(3), S.contains(4)
    (5, True, False)
    """

    __slots__ = ("gaps",)

    gaps: tuple[int, ...]

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
        object.__setattr__(self, "gaps", tuple(gap_list))

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def surgery_threshold(self) -> int:
        """Smallest r with r-surgery an L-space: 2g - 1 (equals -1 for g=0)."""
        return 2 * self.genus - 1

    def contains(self, s: int) -> bool:
        if s < 0:
            return False
        i = bisect_left(self.gaps, s)
        return not (i < len(self.gaps) and self.gaps[i] == s)

    def elements_below(self, bound: int) -> list[int]:
        """Members of S in [0, bound)."""
        return [s for s in range(max(bound, 0)) if self.contains(s)]

    def count_gaps_at_least(self, m: int) -> int:
        """The gap-counting function I(m) = #{i in G : i >= m}.

        The gap set G includes all negative integers, so for m <= 0 this is
        the closed form g + |m| rather than a materialized count.
        """
        if m <= 0:
            return len(self.gaps) - m
        return len(self.gaps) - bisect_left(self.gaps, m)

    def __repr__(self) -> str:
        return f"FormalSemigroup(gaps={list(self.gaps)})"

    # -- conversions ---------------------------------------------------------

    @classmethod
    def from_alexander(cls, delta: IntLaurentPoly) -> "FormalSemigroup":
        """Read off S from the power series expansion of Delta/(1-t).

        The coefficient of t^m in the expansion is the partial sum of
        Delta's coefficients up to exponent m; for an L-space-form input
        those sums are always 0 or 1 and S is the set of exponents where the
        sum is 1.  Raises NotLSpaceForm with the offending exponent when a
        partial sum leaves {0, 1}, and on any other shape violation.

        The gate here (gap_runs) is the shape test it shares with
        lspace_runs, coefficients alternating +1, -1, ..., +1 from exponent 0
        (the partial-sum structure read term by term), plus deg = 2g.  So the
        round trip with to_alexander covers every formal gap sequence, even
        one without gap 1; lspace_runs, which the command line and the census
        apply where input arrives, also asks for gap 1.  The test runs on the
        terms before any gap is built, so the cost follows the term count and
        the genus, never the degree alone.
        """
        return cls.from_gap_runs(gap_runs(delta))

    @classmethod
    def from_gap_runs(cls, runs: Iterable[tuple[int, int]]) -> "FormalSemigroup":
        """The semigroup whose gaps are the half-open runs [a, b), as gap_runs returns them.

        gap_runs has checked those runs, so the gaps are not checked again.
        """
        return cls._of_gaps(tuple(chain.from_iterable(starmap(range, runs))))

    @classmethod
    def _of_gaps(cls, gaps: tuple[int, ...]) -> "FormalSemigroup":
        """The semigroup of a gap tuple its builder made valid, unchecked."""
        s = object.__new__(cls)
        object.__setattr__(s, "gaps", gaps)
        return s

    def to_alexander(self) -> IntLaurentPoly:
        """Restore Delta = 1 + (t - 1) * sum_i t^{a_i}, from the gap runs (_alexander_of_runs)."""
        return _alexander_of_runs(_runs_of_gaps(self.gaps))

    # -- predicates -----------------------------------------------------------

    def is_closed_under_addition(self) -> tuple[bool, tuple[int, int] | None]:
        """Whether s + s' stays in S for all members.

        Only sums below 2g need checking (everything from 2g on is in S), so
        s < g.  With S and the gaps as bit masks below 2g, bit j of
        (members >> s) & (gaps >> 2s) says that s' = s + j is a member and
        s + s' a gap, so its lowest bit is the smallest failing s'.

        That test runs only for the multiplicity m (the least positive
        member) and, in increasing order, the least member below g of each
        other class mod m (its Apery elements below g): a member s is w + k*m
        with w the least member of its class, so any s + s' is reached from
        s' by adding w, then m k times, each step adding a tested shift
        a <= s to a member at least a.  So the first failing shift is one of
        these, and the first pair found is the lexicographically first
        failing pair (s, s'), s <= s'.  Each shift is tested as soon as it is
        found.  Returns (True, None) or (False, witness).

        >>> FormalSemigroup([1, 2, 3, 5, 6, 8, 11, 15]).is_closed_under_addition()
        (False, (4, 4))
        """
        g = self.genus
        digits = bytearray(b"1") * (2 * g)  # digits[i] is "1" iff i is in S, 0 <= i < 2g
        for a in self.gaps:
            digits[a] = ord("0")
        members = int(digits[::-1] or b"0", 2)
        gaps = members ^ ((1 << 2 * g) - 1)
        for s in _closure_shifts(digits, g):
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
        return {"genus": self.genus, "gaps": list(self.gaps)}


def _closure_shifts(digits: bytearray, g: int):
    """The multiplicity m, if below g, then each other class's least member below g, ascending.

    digits[i] is b"1" exactly for the members i < 2g.  Each shift is one find
    in a copy of digits[:g] from which every class found so far has been
    blanked, one slice assignment each, so the shifts come one at a time and
    the caller stops at the first that fails.
    """
    left = digits[:g]
    s = m = left.find(b"1", 1)
    while s > 0:
        yield s
        left[s::m] = bytes(len(range(s, g, m)))
        s = left.find(b"1", s + 1)


def gap_runs(delta: IntLaurentPoly) -> list[tuple[int, int]]:
    """The gaps of a polynomial with partial coefficient sums in {0, 1}, as runs [a, b).

    The sums stay in {0, 1} with Delta(1) = 1 exactly when the coefficients
    alternate +1, -1, ..., +1 from exponent 0 (the shape test lspace_runs
    shares), and the gaps run from each -1 term up to the next +1 term.  A
    refusal names the first term off that pattern: the partial sum before
    term i is i mod 2, so a walk of the sums would stop there.  The errors
    are those documented on FormalSemigroup.from_alexander.

    >>> gap_runs(IntLaurentPoly({0: 1, 1: -1, 3: 1, 5: -1, 6: 1}))
    [(1, 3), (5, 6)]
    """
    exps = _alternating_exponents(delta)
    if exps is not None:
        return _runs_of_alternating(exps)
    if delta.is_zero:
        raise NotLSpaceForm("zero polynomial")
    if delta.min_exp != 0 or delta.coeff(0) != 1:
        raise NotLSpaceForm("polynomial is not in knot-normal form")
    for i, (e, c) in enumerate(delta.items()):
        if i % 2 + c not in (0, 1):
            raise NotLSpaceForm(f"partial coefficient sum {i % 2 + c} at exponent {e}", exponent=e)
    raise NotLSpaceForm("Delta(1) = 0, expected 1")


def lspace_runs(delta: IntLaurentPoly) -> list[tuple[int, int]] | None:
    """The gap runs of a polynomial of the shape 1 - t + t^{a_2} - ... + t^{2g}, else None.

    The shape: gap_runs' shape test, the first sign change at exponent 1 and
    an even top exponent.  Any other shape gives None, so each caller words
    its own refusal; the shape with deg != 2g raises NotLSpaceForm as
    gap_runs does.

    >>> lspace_runs(IntLaurentPoly({0: 1, 1: -1, 3: 1, 5: -1, 6: 1}))
    [(1, 3), (5, 6)]
    >>> lspace_runs(IntLaurentPoly({0: 1, 2: -1, 4: 1})) is None
    True
    """
    exps = _alternating_exponents(delta)
    return None if exps is None else _lspace_gate(exps)


def _lspace_gate(exps: list[int]) -> list[tuple[int, int]] | None:
    """lspace_runs' remaining tests on the sorted exponents of terms alternating +1, -1, ..., +1 from t^0."""
    if len(exps) > 1 and exps[1] != 1 or exps[-1] % 2:
        return None
    return _runs_of_alternating(exps)


def _lspace_pairs(pairs: list) -> tuple[IntLaurentPoly, list[tuple[int, int]] | None] | None:
    """IntLaurentPoly.from_pairs(pairs) and its lspace_runs in one pass over the pairs, else None.

    The pass holds when every pair unpacks to two exact ints, the exponents
    rise strictly from 0 and the coefficients read +1, -1, ..., +1: the order
    json.dumps writes an L-space Delta's to_pairs in.  Those terms are
    already Delta's sorted, nonzero terms, so lspace_runs' remaining tests
    (_lspace_gate) run on the exponents as they came, with no sort and no
    second walk: the runs are None for any other shape, and deg != 2g raises
    NotLSpaceForm.  Any other input gives None before the gate runs, so the
    caller takes from_pairs and lspace_runs, whose errors are the ones to
    report; they give the same result on the input the pass takes.

    >>> _lspace_pairs([[0, 1], [1, -1], [3, 1], [5, -1], [6, 1]])
    (IntLaurentPoly('1 - t + t^3 - t^5 + t^6'), [(1, 3), (5, 6)])
    >>> _lspace_pairs([[0, 1], [2, 1], [1, -1]]) is None
    True
    """
    terms: dict[int, int] = {}
    last, sign = -1, 1
    try:
        for e, c in pairs:
            if c != sign or type(e) is not int or type(c) is not int or e <= last:
                return None
            terms[e] = c
            last, sign = e, -sign
    except (TypeError, ValueError):  # a pair that does not unpack to two values
        return None
    if sign == 1 or 0 not in terms:  # an even term count, or a first exponent above 0
        return None
    return IntLaurentPoly._from_terms(terms), _lspace_gate(list(terms))


def _alternating_exponents(delta: IntLaurentPoly) -> list[int] | None:
    """Delta's sorted exponents if its coefficients read +1, -1, ..., +1 from t^0, else None."""
    # The term dict is read directly: every gate and census record passes here.
    terms = delta._terms
    exps = sorted(terms)
    n = len(exps)
    if n % 2 and exps[0] == 0 and [terms[e] for e in exps] == [1, -1] * (n // 2) + [1]:
        return exps
    return None


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


def _runs_of_gaps(gaps: tuple[int, ...]) -> list[tuple[int, int]]:
    """The maximal runs [a, b) of consecutive gaps, ascending: gap_runs without the polynomial.

    >>> _runs_of_gaps((1, 2, 5))
    [(1, 3), (5, 6)]
    """
    if not gaps:
        return []
    opens = [a for prev, a in zip((-2,) + gaps, gaps) if a - prev > 1]
    closes = [a + 1 for a, nxt in zip(gaps, gaps[1:] + (gaps[-1] + 2,)) if nxt - a > 1]
    return list(zip(opens, closes))


class _SemigroupRuns(list):
    """Gap runs that carry the semigroup they were read from, as .semigroup."""

    __slots__ = ("semigroup",)


def _runs_of_semigroup(s: FormalSemigroup) -> list[tuple[int, int]]:
    """_runs_of_gaps(s.gaps), carrying s for _semigroup_of_runs.

    >>> runs = _runs_of_semigroup(FormalSemigroup([1, 2, 5]))
    >>> runs, _semigroup_of_runs(runs).gaps
    ([(1, 3), (5, 6)], (1, 2, 5))
    """
    runs = _SemigroupRuns(_runs_of_gaps(s.gaps))
    runs.semigroup = s
    return runs


def _semigroup_of_runs(runs: list[tuple[int, int]]) -> FormalSemigroup:
    """The semigroup of checked gap runs: the one they carry, else from_gap_runs."""
    if type(runs) is _SemigroupRuns:
        return runs.semigroup
    return FormalSemigroup.from_gap_runs(runs)


def _alexander_of_runs(runs: list[tuple[int, int]]) -> IntLaurentPoly:
    """Delta = 1 + (t - 1) * sum of t^a over the gaps: +1 at t^0, -1 at each run's start, +1 at its end.

    The runs are maximal, so no two share an end and the terms need no summing.
    """
    exps = chain((0,), chain.from_iterable(runs))
    return IntLaurentPoly._from_terms(dict(zip(exps, cycle((1, -1)))))


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
    # Each member is a*p + b*q with 0 <= b < p, and b*q >= bound once b = p - 1,
    # so the members below bound = 2g are the progressions b*q, b*q + p, ... for b <= p - 2.
    is_gap = bytearray(b"\x01") * bound
    for b in range(p - 1):
        is_gap[b * q::p] = bytes(len(range(b * q, bound, p)))
    return FormalSemigroup._of_gaps(tuple(compress(range(bound), is_gap)))
