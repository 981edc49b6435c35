"""Restorability: which gap functions share a given convex hull.

A convex hull with rays of slope 0 and 2 pins any compatible gap function at
three kinds of places: the profile must start at (-g, 0) and end at (g, 2g),
must never dip below the hull, and must touch the hull at every hull vertex
(the breakpoints of a convex envelope always lie on the function's graph).
Between integers both graphs are linear, so checking at integers suffices;
those three conditions are exactly "envelope equals hull".

So a profile value at step index i (x = i - g) lies between two integer
bounds: lo[i], the ceiling of the hull there, and hi[i], the height of the
next hull vertex at or right of x (a profile never descends, and it must
meet that vertex).  At a vertex lo = hi = its height, which is the pin.
A profile can also always still climb to 2g: the hull reaches 2g at x = g
with slopes at most 2, so it lies on or above the line 2x.  Every partial
profile within the bounds therefore completes, and the walk never stalls.

Counts are exact and closed-form.  Because a profile is pinned at every
vertex, the hull segments are independent and the profile count is the
product of the segment counts.  A segment of f flat and u up steps, with
k = gcd(f, u) and primitive step (m, n) = (f/k, u/k), admits exactly the
lattice paths from (0, 0) to (f, u) that stay weakly above the chord: the
Fuss-Catalan number C((r+1)k, k) / (rk + 1), r = max(m, n), when
min(m, n) = 1, and otherwise Bizley's count (J. Inst. Actuaries 80, 1954).
A symmetric profile, G(x) = G(-x) + 2x, is fixed by its left half and exists
only over a hull invariant under (x, y) -> (-x, y - 2x); there any left half
within the bounds mirrors to a valid profile, so the symmetric count is the
product over the segments left of 0, times C(a, a // 2) ballot paths for a
slope-1 middle segment on [-a, a].  The Alexander polynomial is restorable
from the Upsilon invariant exactly when the symmetric count is 1.

Witnesses are listed in lexicographic step order, flat before up.  The walk
refills the remaining steps greedily (flat where the value already reaches
lo, else up), yields the profile, then backtracks to the deepest flat step
that may rise (value + 2 <= hi) and refills from there.  A report lists the
profiles of rank below max_solutions: every one with --all (the walk stops
after max_solutions), else the symmetric ones, found by walking only the g
left steps and mirroring each.  When the cap cuts the list, the symmetric
walk stops at the first profile whose rank reaches it; the rank comes from a
sparse backward table of completion counts that stores only counts below
the cap.

A profile is a byte pattern: 2g bytes, each 0 (flat) or 2 (up).  A report
keeps the patterns and converts each to a gap sequence only when it is read;
the CLI writes each witness's JSON text straight from its pattern through
Witnesses.gap_strings, with no gap tuple in between.  A Witnesses built
from outside checks each pattern with _check_step_pattern once, so neither
path checks again.  The walk's own patterns, and a slice of a Witnesses,
are wrapped unchecked (Witnesses._trusted): _walk makes every pattern
within the hull's bounds, which start at 0 and end at 2g, with the first
step rising and the last one flat.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress, islice, takewhile
from math import comb, gcd, prod
from operator import mul

from .errors import CountTooCostly, GenusTooLarge, InvalidStepPattern, MalformedHull
from .invariants import hull_of
from .laurent import IntLaurentPoly
from .piecewise import PLFunction
from .semigroups import MAX_GENUS

DEFAULT_MAX_SOLUTIONS = 10_000

# Bizley's recurrence multiplies about k^2 / 2 pairs of integers of up to
# L = f + u bits per segment.  The sum of (k * L)^2 over the segments it runs
# on is capped here: one segment of k = 500, L = 2,500 (1.6e12) took 0.28 s,
# and one of k = 100, L = 200,100 (4e14) took 40 s (Python 3.11, one core).
MAX_COUNT_WORK = 2 * 10**12


class Witnesses(Sequence):
    """Gap sequences held as 2g-byte step patterns, each converted when read.

    A read-only sequence of gap tuples: len, iteration, indexing, `in` over
    gap tuples, and equality with another Witnesses or a tuple of gap tuples.
    Each pattern is checked when the Witnesses is built: a malformed one
    raises InvalidStepPattern there.

    >>> w = Witnesses([bytes([2, 0, 0, 2, 2, 0])])  # T(3,4)
    >>> len(w), w[0], (1, 2, 5) in w, (1, 2, 4) in w, w == ((1, 2, 5),)
    (1, (1, 2, 5), True, False, True)
    """

    __slots__ = ("_patterns",)

    def __init__(self, patterns=()):
        self._patterns = tuple(patterns)
        for steps in self._patterns:
            _check_step_pattern(steps)

    @classmethod
    def _trusted(cls, patterns) -> "Witnesses":
        """A Witnesses over patterns already checked, or made by _walk: none is checked again."""
        w = object.__new__(cls)
        w._patterns = tuple(patterns)
        return w

    def __len__(self) -> int:
        return len(self._patterns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Witnesses._trusted(self._patterns[index])
        return _pattern_to_gaps(self._patterns[index])

    def __iter__(self):
        return map(_pattern_to_gaps, self._patterns)

    def gap_strings(self):
        """Each witness's gaps in order as decimal strings.

        The strings str(a) are built once per call, up to the longest pattern.

        >>> [list(gaps) for gaps in Witnesses([bytes([2, 0, 0, 2, 2, 0]), b""]).gap_strings()]
        [['1', '2', '5'], []]
        """
        labels = []
        for steps in self._patterns:
            if len(steps) > len(labels):
                labels += map(str, range(len(labels), len(steps)))
            yield compress(labels, steps[::-1])

    def __contains__(self, gaps) -> bool:
        try:
            gaps = tuple(gaps)
        except TypeError:
            return False
        n = 2 * len(gaps)
        if not all(type(a) is int and 0 <= a < n for a in gaps) or list(gaps) != sorted(set(gaps)):
            return False
        steps = bytearray(n)
        for a in gaps:
            steps[n - 1 - a] = 2
        return bytes(steps) in self._patterns

    def __eq__(self, other) -> bool:
        if isinstance(other, Witnesses):
            return self._patterns == other._patterns
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Witnesses({list(self)!r})"


class RestorabilityReport:
    """Exact profile counts over one hull, and the listed witnesses.

    total_count and symmetric_count are exact, so unique (exactly one
    symmetric profile, the population relevant for comparing knots) is too.
    witnesses holds the gap sequences of the profiles of rank below
    max_solutions in walk order: the symmetric ones by default, every one
    with symmetric_only=False.  budget_exhausted means total_count exceeds
    max_solutions, so the list may be cut short.  The witnesses are stored
    as byte patterns, so memory follows the list, not the counts.

    Immutable; compares, hashes and prints by all six fields.
    """

    __slots__ = ("hull", "total_count", "symmetric_count", "witnesses", "unique", "budget_exhausted")

    hull: PLFunction
    total_count: int
    symmetric_count: int
    witnesses: Witnesses
    unique: bool
    budget_exhausted: bool

    def __init__(self, hull: PLFunction, total_count: int, symmetric_count: int,
                 witnesses: Witnesses, unique: bool, budget_exhausted: bool):
        object.__setattr__(self, "hull", hull)
        object.__setattr__(self, "total_count", total_count)
        object.__setattr__(self, "symmetric_count", symmetric_count)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "unique", unique)
        object.__setattr__(self, "budget_exhausted", budget_exhausted)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.hull, self.total_count, self.symmetric_count, self.witnesses,
                     self.unique, self.budget_exhausted)
                    == (other.hull, other.total_count, other.symmetric_count, other.witnesses,
                        other.unique, other.budget_exhausted))
        return NotImplemented

    def __hash__(self):
        return hash((self.hull, self.total_count, self.symmetric_count, self.witnesses,
                     self.unique, self.budget_exhausted))

    def __repr__(self):
        return (f"RestorabilityReport(hull={self.hull!r}, total_count={self.total_count!r}, "
                f"symmetric_count={self.symmetric_count!r}, witnesses={self.witnesses!r}, "
                f"unique={self.unique!r}, budget_exhausted={self.budget_exhausted!r})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return (RestorabilityReport, (self.hull, self.total_count, self.symmetric_count,
                                      self.witnesses, self.unique, self.budget_exhausted))

    def to_json(self) -> dict:
        """The report as a dict; "witnesses" stays a Witnesses, not a list.

        cli._emit writes it as a list of gap lists; json.dumps needs
        default=list to read it.
        """
        return {
            "hull": self.hull.to_json(),
            "total_count": self.total_count,
            "symmetric_count": self.symmetric_count,
            "witnesses": self.witnesses,
            "unique": self.unique,
            "budget_exhausted": self.budget_exhausted,
        }


def _validate_hull(hull: PLFunction) -> int:
    """Check the hull could be the envelope of a gap function; return its genus."""
    if not hull.on_line:
        raise MalformedHull("hull must be defined on the whole line")
    if hull.left_slope != 0 or hull.right_slope != 2:
        raise MalformedHull(
            f"rays must have slopes 0 and 2, got {hull.left_slope} and {hull.right_slope}"
        )
    if not hull.is_convex():
        raise MalformedHull("hull is not convex")
    verts = hull.vertices
    for x, y in verts:
        if x.denominator != 1:
            raise MalformedHull(f"vertex at non-integer x = {x}")
        if y.denominator != 1 or y < 0 or y % 2 != 0:
            raise MalformedHull(f"vertex height {y} at x = {x} is not an even integer >= 0")
    x0, y0 = verts[0]
    g, ym = verts[-1]
    if y0 != 0:
        raise MalformedHull(f"leftmost vertex must sit at height 0, got {y0}")
    if g != -x0:
        raise MalformedHull(f"vertex range [{x0}, {g}] is not symmetric about 0")
    if g < 0:
        raise MalformedHull("degenerate vertex range")
    if ym != 2 * g:
        raise MalformedHull(f"rightmost vertex must sit at height 2g = {2 * g}, got {ym}")
    return g


def _bounds(hull: PLFunction) -> tuple[list[int], list[int]]:
    """Integer floor and ceiling of a profile at each step index i (x = i - g).

    lo[i] is the smallest integer on or above the hull, worked out segment by
    segment with floor division; hi[i] is the height of the next hull vertex
    at or right of x.  At a vertex both equal its height.

    >>> hull = PLFunction([(-3, 0), (0, 2), (3, 6)], 0, 2)  # T(3,4)
    >>> _bounds(hull)
    ([0, 1, 2, 2, 4, 5, 6], [0, 2, 2, 2, 6, 6, 6])
    """
    verts = hull.vertices
    lo, hi = [0], [0]
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        dx, dy = x1 - x0, y1 - y0
        for k in range(1, dx + 1):
            lo.append(y0 - (-dy * k) // dx)  # ceil(y0 + dy * k / dx)
            hi.append(y1)
    return lo, hi


def _segment_count(f: int, u: int) -> int:
    """Paths of f flat and u up steps that stay weakly above the chord to (f, u).

    >>> [_segment_count(f, 2) for f in (1, 2, 3, 4)]  # (1, 2) then Catalan C2, then (3, 2)
    [1, 2, 2, 3]
    """
    k = gcd(f, u)
    m, n = f // k, u // k
    if min(m, n) == 1:
        r = max(m, n)
        return comb((r + 1) * k, k) // (r * k + 1)
    s = m + n
    # Bizley: a_i = sum_j C(js, jm) a_{i-j} / (is), the binomials computed once.
    binoms = [comb(j * s, j * m) for j in range(1, k + 1)]
    a = [1]
    for i in range(1, k + 1):
        a.append(sum(map(mul, binoms[:i], reversed(a))) // (i * s))
    return a[k]


def _count_work(f: int, u: int) -> int:
    """(k * L)^2 for a segment that needs Bizley's recurrence, else 0."""
    k = gcd(f, u)
    return (k * (f + u)) ** 2 if min(f, u) >= 2 * k else 0


def _counts(verts: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Exact (total, symmetric) profile counts over the hull with these integer vertices.

    >>> _counts([(-3, 0), (0, 2), (3, 6)])  # T(3,4)
    (1, 1)
    >>> _counts([(-5, 0), (-2, 2), (2, 6), (5, 10)])  # pretzel (-2, 3, 7)
    (2, 2)
    """
    spans = list(zip(verts, verts[1:]))
    segments = [(x1 - x0 - (y1 - y0) // 2, (y1 - y0) // 2) for (x0, y0), (x1, y1) in spans]
    work = sum(_count_work(f, u) for f, u in segments)
    if work > MAX_COUNT_WORK:
        raise CountTooCostly(
            f"exact counting over this hull needs work {work}, above the limit of {MAX_COUNT_WORK}"
        )
    counts = [_segment_count(f, u) for f, u in segments]
    total = prod(counts)
    if {(-x, y - 2 * x) for x, y in verts} != set(verts):
        return total, 0
    symmetric = prod(c for (_, (x1, _)), c in zip(spans, counts) if x1 <= 0)
    middle = [x1 for (x0, _), (x1, _) in spans if x0 < 0 < x1]  # slope 1 on [-a, a]
    return total, symmetric * prod(comb(a, a // 2) for a in middle)


def _walk(lo: list[int], hi: list[int]):
    """Every step pattern between the bounds, as bytes of 0/2, flat before up."""
    n = len(lo) - 1
    vals = [0] * (n + 1)  # vals[i] is the profile value at step index i
    steps = bytearray(n)
    i = 0  # steps[:i] are fixed
    while True:
        # Refill greedily: flat where the floor allows, else up.
        for j in range(i, n):
            val = vals[j]
            steps[j] = step = 0 if val >= lo[j + 1] else 2
            vals[j + 1] = val + step
        yield bytes(steps)
        # Backtrack to the deepest flat step that may rise.
        i = n - 1
        while i >= 0 and (steps[i] or vals[i] + 2 > hi[i + 1]):
            i -= 1
        if i < 0:
            return
        steps[i] = 2
        vals[i + 1] += 2
        i += 1


def _completions_below(lo: list[int], hi: list[int], cap: int) -> dict[tuple[int, int], int]:
    """Completions from (i, value), for the cells where they number fewer than cap.

    Built backward from (2g, 2g).  A cell below the cap has every in-bounds
    successor below it too, so row i's candidates are the values v and v - 2
    for each stored v of row i + 1.  A cell within the bounds that is missing
    has cap or more completions.  The build stops at the first empty row,
    since every earlier row is then empty too.
    """
    i = len(lo) - 1
    row = {hi[i]: 1} if cap > 1 else {}
    table = {(i, v): c for v, c in row.items()}
    while row and i:
        i -= 1
        later, row = row, {}
        for v in {w - d for w in later for d in (0, 2)}:
            if not lo[i] <= v <= hi[i]:
                continue
            count = 0
            for w in (v, v + 2):
                if lo[i + 1] <= w <= hi[i + 1]:
                    count += later.get(w, cap)
            if count < cap:
                row[v] = count
        table.update(((i, v), c) for v, c in row.items())
    return table


def _rank(steps: bytes, lo: list[int], table: dict[tuple[int, int], int], cap: int) -> int:
    """Profiles before this one in walk order, or cap if that is cap or more.

    Each up step j where a flat step was allowed passes over every completion
    of the flat alternative, which sits at (j + 1, value).
    """
    rank = val = 0
    for j, step in enumerate(steps):
        if step and val >= lo[j + 1]:
            rank += table.get((j + 1, val), cap)
            if rank >= cap:
                return cap
        val += step
    return rank


# Swaps flat (0) and up (2): the step mirror of a pattern.
_FLIP = bytes.maketrans(b"\x00\x02", b"\x02\x00")


def _is_symmetric_pattern(steps: bytes) -> bool:
    """Step mirror of G(k) = G(-k) + 2k: paired steps sum to 2.

    >>> _is_symmetric_pattern(bytes([2, 0, 0, 2, 2, 0]))  # T(3,4)
    True
    >>> _is_symmetric_pattern(bytes([2, 2, 0, 0, 2, 0]))
    False
    """
    return steps.translate(_FLIP) == steps[::-1]


def _mirrored(half: bytes) -> bytes:
    """The symmetric pattern with this left half."""
    return half + half.translate(_FLIP)[::-1]


def _check_step_pattern(steps: bytes) -> None:
    """Raise InvalidStepPattern unless the pattern is a gap sequence's steps.

    That is g flat (0) and g up (2) bytes, the first rising (top gap 2g - 1)
    and the last flat (no gap at 0).  An empty pattern is the unknot's.
    """
    n = len(steps)
    g = n // 2
    if n % 2 or steps.count(2) != g or steps.count(0) != g:
        raise InvalidStepPattern(f"a {n}-byte pattern is not {g} flat (0) and {g} up (2) steps")
    if g and steps[0] != 2:
        raise InvalidStepPattern(f"the first step must rise (top gap {2 * g - 1})")
    if g and steps[-1] != 0:
        raise InvalidStepPattern("the final step must be flat (no gap at 0)")


def _pattern_to_gaps(steps: bytes) -> tuple[int, ...]:
    """The gap sequence of a checked 0/2 step pattern: up step j of n = 2g is gap n - 1 - j.

    >>> _pattern_to_gaps(bytes([2, 0, 0, 2, 2, 0]))  # T(3,4)
    (1, 2, 5)
    """
    return tuple(compress(range(len(steps)), steps[::-1]))


def enumerate_gap_functions(
    hull: PLFunction,
    symmetric_only: bool = False,
    max_solutions: int = DEFAULT_MAX_SOLUTIONS,
) -> RestorabilityReport:
    """Count every slope-{0,2} profile whose convex envelope is the hull, and list some.

    Both counts are exact.  The witnesses are the profiles of rank below
    max_solutions in lexicographic step order (flat < up): the symmetric
    ones when symmetric_only, else every one.  A hull of genus above
    MAX_GENUS raises GenusTooLarge before anything of size g is built, and
    one whose exact count would cost more than MAX_COUNT_WORK raises
    CountTooCostly before any counting.
    """
    g = _validate_hull(hull)
    if g > MAX_GENUS:
        raise GenusTooLarge(f"the hull has genus {g}, above the limit of {MAX_GENUS}")
    total, symmetric = _counts(hull.vertices)
    lo, hi = _bounds(hull)
    truncated = total > max_solutions
    if not symmetric_only:
        kept = islice(_walk(lo, hi), max_solutions)
    elif not symmetric:
        kept = ()
    else:
        kept = map(_mirrored, _walk(lo[: g + 1], hi[: g + 1]))
        if truncated:
            table = _completions_below(lo, hi, max_solutions)
            kept = takewhile(lambda s: _rank(s, lo, table, max_solutions) < max_solutions, kept)
    return RestorabilityReport(
        hull=hull,
        total_count=total,
        symmetric_count=symmetric,
        witnesses=Witnesses._trusted(kept),
        unique=symmetric == 1,
        budget_exhausted=truncated,
    )


def is_restorable(
    delta: IntLaurentPoly,
    max_solutions: int = DEFAULT_MAX_SOLUTIONS,
) -> RestorabilityReport:
    """Whether the Alexander polynomial is recoverable from its Upsilon.

    Counts the symmetric profiles over the envelope of its gap function;
    unique = True means no other symmetric formal gap sequence (top gap
    2g - 1, gap 1 not required) shares the Upsilon invariant.  The count is
    over formal candidates, so it can exceed the count of L-space-shape
    polynomials: T(2,5) has symmetric_count 2, one witness being 1 - t^2 + t^4.
    """
    return enumerate_gap_functions(hull_of(delta), symmetric_only=True, max_solutions=max_solutions)


def designed_family_alexander(m: int) -> IntLaurentPoly:
    """The designed restorable family 1 - t + t^m - t^{m+1} + t^{m+2} - t^{2m+1} + t^{2m+2}.

    Its genus is m + 1, so m is at most MAX_GENUS - 1.
    """
    if m < 3:
        raise ValueError("family parameter m must be >= 3")
    if m + 1 > MAX_GENUS:
        raise GenusTooLarge(f"m = {m} gives genus {m + 1}, above the limit of {MAX_GENUS}")
    return IntLaurentPoly(
        {0: 1, 1: -1, m: 1, m + 1: -1, m + 2: 1, 2 * m + 1: -1, 2 * m + 2: 1}
    )
