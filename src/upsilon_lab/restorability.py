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
profiles of rank below max_solutions.  With --all that is every profile, and
the same pinning makes the list a product: the steps are cut at hull
vertices into pieces, each holding one segment of more than one path
(segments of one path join the piece before them), and the profiles in walk
order are the product of the pieces' paths in walk order, the last piece
varying fastest.  Each piece is walked once, and only as far as the first
max_solutions profiles reach: ceil(max_solutions / later) paths, where
later is the product of the later pieces' counts (_counts gives the
segment counts).  Otherwise the report lists the symmetric profiles, found
by walking only the g left steps and mirroring each.  When the cap cuts
that list, the symmetric walk keeps the patterns below the cutoff, the
profile of rank max_solutions (bytes order is walk order), which one descent
finds in a sparse backward table of the completion counts of at most the cap.

A profile is a byte pattern: 2g bytes, each 0 (flat) or 2 (up).  A
Witnesses keeps its pieces, each a tuple of paths (partial patterns), and
joins the full patterns only when it is read as a sequence.  An --all list
is always such a product, even when the cap falls within the last piece;
the symmetric walk's list, and a Witnesses built from outside, is one piece
of full patterns.  Witnesses.path_texts gives each piece's path texts,
each made once per path, and the longest pattern's length, which bounds a
witness's text; the CLI joins a run of the last piece's texts, with the
earlier pieces' texts shared, into the JSON text of many witnesses at once,
so with --all it neither builds a gap tuple nor joins a pattern.  A
Witnesses built from outside checks each pattern with _check_step_pattern
once, so neither reading nor writing checks again.  The walk's own paths,
and a slice of a Witnesses, are wrapped unchecked (Witnesses._trusted and
_product): _walk keeps every path within the hull's bounds, which start at
0 and end at 2g, so each joined pattern has its first step rising and its
last one flat.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress, islice, product, takewhile
from math import comb, gcd, prod
from operator import mul

from .errors import CountTooCostly, GenusTooLarge, InvalidStepPattern, MalformedHull
from .invariants import hull_of
from .laurent import IntLaurentPoly
from .piecewise import PLFunction
from .records import Record
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
    gap tuples, and equality with another Witnesses or a tuple of gap tuples
    (so == and hash are its own, not those of records.Record).
    Each pattern is checked when the Witnesses is built: a malformed one
    raises InvalidStepPattern there.

    The patterns are kept as pieces, each a tuple of partial step patterns
    (paths); the patterns are the first len(self) entries of the product of
    the pieces, each entry joined.  A Witnesses built here or by the
    symmetric walk is one piece, the patterns themselves.  The --all walk
    makes one piece per stretch of hull segments, whatever the cap, and the
    joined patterns are built only when the sequence is read.

    >>> w = Witnesses([bytes([2, 0, 0, 2, 2, 0])])  # T(3,4)
    >>> len(w), w[0], (1, 2, 5) in w, (1, 2, 4) in w, w == ((1, 2, 5),)
    (1, (1, 2, 5), True, False, True)
    """

    __slots__ = ("_pieces", "_count", "_flat")

    def __init__(self, patterns=()):
        patterns = tuple(patterns)
        for steps in patterns:
            _check_step_pattern(steps)
        self._pieces, self._count, self._flat = (patterns,), len(patterns), patterns

    @classmethod
    def _trusted(cls, patterns) -> "Witnesses":
        """A Witnesses over patterns already checked, or made by _walk: none is checked again."""
        patterns = tuple(patterns)
        return cls._product((patterns,), len(patterns))

    @classmethod
    def _product(cls, pieces: tuple[tuple[bytes, ...], ...], count: int) -> "Witnesses":
        """The first count entries of the product of the pieces, each joined into one pattern.

        A single piece holds exactly count paths.  Otherwise the pieces come
        from _listed, walked only as far as the first count entries reach:
        each holds paths of one length, and every path rises somewhere.
        """
        w = object.__new__(cls)
        w._pieces, w._count = pieces, count
        w._flat = pieces[0] if len(pieces) == 1 else None
        return w

    @property
    def _patterns(self) -> tuple[bytes, ...]:
        """The flat patterns, joined from the pieces on the first read."""
        if self._flat is None:
            self._flat = tuple(islice(map(b"".join, product(*self._pieces)), self._count))
        return self._flat

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Witnesses._trusted(self._patterns[index])
        return _pattern_to_gaps(self._patterns[index])

    def __iter__(self):
        return map(_pattern_to_gaps, self._patterns)

    def path_texts(self, sep: str) -> tuple[int, list]:
        """The longest pattern's length, and each piece's path texts in order:
        a path's gaps as decimal strings joined by sep.

        A witness's text is the texts of its paths joined by sep, last piece
        first, since later steps hold lower gaps.  A piece of one path
        formats its own gaps; the paths of a longer piece share one list of
        its steps' labels, and their texts are an iterator, made as they are
        read.  A single piece holds the witnesses themselves.

        >>> n, pieces = Witnesses([bytes([2, 0, 0, 2, 2, 0]), b""]).path_texts(", ")
        >>> n, [list(texts) for texts in pieces]
        (6, [['1, 2, 5', '']])
        """
        widths = [max(map(len, paths), default=0) for paths in self._pieces]
        texts, start = [], sum(widths)
        for paths, width in zip(self._pieces, widths):
            start -= width  # the piece's steps, last first, are gaps start, start + 1, ...
            gaps = range(start, start + width)
            if len(paths) == 1:
                texts.append([sep.join(map(str, compress(gaps, paths[0][::-1])))])
            else:
                texts.append(_texts(paths, list(map(str, gaps)), sep))
        return sum(widths), texts

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


class RestorabilityReport(Record):
    """Exact profile counts over one hull, and the listed witnesses.

    total_count and symmetric_count are exact, so unique (exactly one
    symmetric profile, the population relevant for comparing knots) is too.
    witnesses holds the gap sequences of the profiles of rank below
    max_solutions in walk order: the symmetric ones by default, every one
    with symmetric_only=False.  budget_exhausted means total_count exceeds
    max_solutions, so the list may be cut short.  The witnesses are stored
    as byte patterns, so memory follows the list, not the counts.
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


def _counts(verts: Sequence[tuple[int, int]]) -> tuple[list[int], int, int]:
    """Exact profile counts over the hull with these integer vertices.

    Returns the count of each segment (left to right), their product (the
    total) and the symmetric count.

    >>> _counts([(-3, 0), (0, 2), (3, 6)])  # T(3,4)
    ([1, 1], 1, 1)
    >>> _counts([(-5, 0), (-2, 2), (2, 6), (5, 10)])  # pretzel (-2, 3, 7)
    ([1, 2, 1], 2, 2)
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
        return counts, total, 0
    symmetric = prod(c for (_, (x1, _)), c in zip(spans, counts) if x1 <= 0)
    middle = [x1 for (x0, _), (x1, _) in spans if x0 < 0 < x1]  # slope 1 on [-a, a]
    return counts, total, symmetric * prod(comb(a, a // 2) for a in middle)


def _pieces(verts: Sequence[tuple[int, int]], counts: list[int]) -> list[tuple[int, int, int]]:
    """The step ranges [start, stop) the --all walk lists one by one, with their counts.

    A piece ends at a hull vertex and holds one segment of more than one
    path; a segment of one path joins the piece before it (the first
    piece, if none is before it).  With no such segment the whole range is
    one piece.

    >>> _pieces([(-5, 0), (-2, 2), (2, 6), (5, 10)], [1, 2, 1])  # pretzel (-2, 3, 7)
    [(0, 10, 2)]
    >>> _pieces([(-12, 0), (-8, 2), (-2, 6), (2, 10), (8, 18), (12, 24)], [1, 3, 2, 3, 1])  # K1(1)
    [(0, 10, 3), (10, 14, 2), (14, 24, 3)]
    """
    g = verts[-1][0]
    pieces, start, count = [], 0, 1
    for (x0, _), c in zip(verts, counts):
        if c > 1 and count > 1:
            pieces.append((start, x0 + g, count))
            start, count = x0 + g, 1
        count *= c
    pieces.append((start, 2 * g, count))
    return pieces


def _walk(lo: list[int], hi: list[int]):
    """Every step pattern between the bounds from lo[0], as bytes of 0/2, flat before up."""
    n = len(lo) - 1
    vals = [lo[0]] * (n + 1)  # vals[i] is the profile value at step index i
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


def _completion_rows(lo: list[int], hi: list[int], cap: int) -> list[dict[int, int]]:
    """Per step index, the completions from each value, where they number at most cap.

    Built backward from (2g, 2g).  A cell at most cap has every in-bounds
    successor at most cap too, so row i's candidates are v and v - 2 for
    each stored v of row i + 1; a missing cell within the bounds has more
    than cap.  As in _walk, v may stay flat if v >= lo[i + 1] and rise if
    v + 2 <= hi[i + 1].  The build stops at the first empty row: every
    earlier row is then empty too.
    """
    n, big = len(lo) - 1, cap + 1
    rows = [{}] * n + [{hi[n]: 1}]  # the empty rows share one dict, never written
    for i in range(n - 1, -1, -1):
        later, row = rows[i + 1], {}
        if not later:
            break
        for v in {w - d for w in later for d in (0, 2)}:
            if lo[i] <= v <= hi[i]:
                count = (later.get(v, big) if v >= lo[i + 1] else 0) + (
                    later.get(v + 2, big) if v + 2 <= hi[i + 1] else 0)
                if count <= cap:
                    row[v] = count
        rows[i] = row
    return rows


def _cutoff(lo: list[int], hi: list[int], cap: int) -> bytes:
    """The profile of rank cap in walk order, for bounds that admit more than cap profiles.

    One descent from (0, 0) with the rank still to pass: flat where that is
    below the flat cell's count (a missing cell has more than cap, a flat
    step out of bounds none), else up, passing over those completions.
    """
    rows = _completion_rows(lo, hi, cap)
    steps, rank, val = bytearray(len(lo) - 1), cap, 0
    for j in range(len(steps)):
        count = rows[j + 1].get(val, cap + 1) if val >= lo[j + 1] else 0
        if rank >= count:
            rank -= count
            steps[j] = 2
            val += 2
    return bytes(steps)


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


def _texts(paths, labels: list[str], sep: str):
    """The labels at each path's up steps, last step first, joined by sep."""
    return (sep.join(compress(labels, path[::-1])) for path in paths)


def _listed(
    verts: Sequence[tuple[int, int]], counts: list[int], lo: list[int], hi: list[int], cap: int
) -> Witnesses:
    """The first cap profiles in walk order, as a product of per-piece walks.

    Profile r of the product takes path r // later of a piece (mod its
    count), where later is the product of the later pieces' counts, so a
    piece is walked only to its first ceil(cap / later) paths: one path of
    each earlier piece when the cap falls within the last piece's count.
    No full pattern is joined.
    """
    kept, later = [], 1
    for start, stop, count in reversed(_pieces(verts, counts)):
        walk = _walk(lo[start : stop + 1], hi[start : stop + 1])
        kept.append(tuple(islice(walk, min(count, -(-cap // later)))))
        later *= count
    return Witnesses._product(tuple(reversed(kept)), min(later, cap))


def enumerate_gap_functions(
    hull: PLFunction,
    symmetric_only: bool = False,
    max_solutions: int = DEFAULT_MAX_SOLUTIONS,
) -> RestorabilityReport:
    """Count every slope-{0,2} profile whose convex envelope is the hull, and list some.

    Both counts are exact.  The witnesses are the profiles of rank below
    max_solutions in lexicographic step order (flat < up): the symmetric
    ones when symmetric_only, else every one; a capped symmetric list stops at
    _cutoff.  A max_solutions that is not an int raises TypeError, and one below
    1 ValueError.  A hull of genus above MAX_GENUS raises GenusTooLarge before
    anything of size g is built, and one whose exact count would cost more than
    MAX_COUNT_WORK raises CountTooCostly before any counting.
    """
    if type(max_solutions) is not int:
        raise TypeError(f"max_solutions {max_solutions!r} is not an int")
    if max_solutions < 1:
        raise ValueError(f"max_solutions must be at least 1, got {max_solutions}")
    g = _validate_hull(hull)
    if g > MAX_GENUS:
        raise GenusTooLarge(f"the hull has genus {g}, above the limit of {MAX_GENUS}")
    counts, total, symmetric = _counts(hull.vertices)
    lo, hi = _bounds(hull)
    truncated = total > max_solutions
    if not symmetric_only:
        witnesses = _listed(hull.vertices, counts, lo, hi, max_solutions)
    elif not symmetric:
        witnesses = Witnesses()
    else:
        kept = map(_mirrored, _walk(lo[: g + 1], hi[: g + 1]))
        if truncated:
            kept = takewhile(_cutoff(lo, hi, max_solutions).__gt__, kept)
        witnesses = Witnesses._trusted(kept)
    return RestorabilityReport(
        hull=hull,
        total_count=total,
        symmetric_count=symmetric,
        witnesses=witnesses,
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
    max_solutions is refused as enumerate_gap_functions refuses it.
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
