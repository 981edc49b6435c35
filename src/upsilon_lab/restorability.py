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

The walk lists the profiles in lexicographic step order, flat before up.
It refills the remaining steps greedily (flat where the value already
reaches lo, else up), counts the profile, then backtracks to the deepest
flat step that may rise (value + 2 <= hi) and refills from there.  The
Alexander polynomial is restorable from the Upsilon invariant exactly when
the symmetric solution count is 1.

A profile is a byte pattern: 2g bytes, each 0 (flat) or 2 (up).  The walk
counts every pattern but stores only those a report lists: the symmetric
ones by default, every one with --all.  The mirror test and the conversion
to a gap sequence are bytes operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .errors import GenusTooLarge, InvalidStepPattern, MalformedHull
from .invariants import hull_of
from .laurent import IntLaurentPoly
from .piecewise import PLFunction
from .semigroups import MAX_GENUS

DEFAULT_MAX_SOLUTIONS = 10_000
DEFAULT_STEP_BUDGET = 10**9


@dataclass(frozen=True)
class RestorabilityReport:
    """Outcome of enumerating all gap functions over one hull.

    witnesses holds the gap sequences of the listed profiles, in walk order:
    the symmetric ones by default, every one with symmetric_only=False.  Only
    those are stored, as 2g-byte patterns while the walk runs, so memory
    follows the witness list (at most max_solutions profiles with --all),
    not the number of profiles walked.  unique means exactly one symmetric
    profile exists, the population relevant for comparing knots.
    budget_exhausted flags a truncated search, in which case the counts are
    lower bounds.
    """

    hull: PLFunction
    total_count: int
    symmetric_count: int
    witnesses: tuple[tuple[int, ...], ...]
    unique: bool
    budget_exhausted: bool

    def to_json(self) -> dict:
        return {
            "hull": self.hull.to_json(),
            "total_count": self.total_count,
            "symmetric_count": self.symmetric_count,
            "witnesses": list(self.witnesses),
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
    xm, ym = verts[-1]
    if y0 != 0:
        raise MalformedHull(f"leftmost vertex must sit at height 0, got {y0}")
    if xm != -x0:
        raise MalformedHull(f"vertex range [{x0}, {xm}] is not symmetric about 0")
    g = int(xm)
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
    verts = [(int(x), int(y)) for x, y in hull.vertices]
    lo, hi = [0], [0]
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        dx, dy = x1 - x0, y1 - y0
        for k in range(1, dx + 1):
            lo.append(y0 - (-dy * k) // dx)  # ceil(y0 + dy * k / dx)
            hi.append(y1)
    return lo, hi


def _walk(
    lo: list[int], hi: list[int], max_solutions: int, budget: int, symmetric_only: bool
) -> tuple[int, list[bytes], bool]:
    """Every step pattern between the bounds, flat before up; (total, kept, truncated).

    Every pattern is counted; kept holds, as bytes of 0/2, only those a
    report lists: the symmetric ones when symmetric_only, else all of them.
    Nodes are counted as in a depth-first search: the root plus every
    partial profile entered.  Truncated means the node count passed the
    budget, or a further solution was found once max_solutions were counted.
    """
    n = len(lo) - 1
    vals = [0] * (n + 1)  # vals[i] is the profile value at x = i - g
    steps = bytearray(n)
    kept: list[bytes] = []
    total = 0
    nodes = 1  # the root
    i = 0  # steps[:i] are fixed
    while True:
        # Refill greedily: flat where the floor allows, else up.
        nodes += n - i
        for j in range(i, n):
            val = vals[j]
            steps[j] = step = 0 if val >= lo[j + 1] else 2
            vals[j + 1] = val + step
        if nodes > budget or total >= max_solutions:
            return total, kept, True
        total += 1
        if not symmetric_only or _is_symmetric_pattern(steps):
            kept.append(bytes(steps))
        # Backtrack to the deepest flat step that may rise.
        i = n - 1
        while i >= 0 and (steps[i] or vals[i] + 2 > hi[i + 1]):
            i -= 1
        if i < 0:
            return total, kept, False
        steps[i] = 2
        vals[i + 1] += 2
        nodes += 1
        i += 1


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


def _pattern_to_gaps(steps: bytes) -> tuple[int, ...]:
    """The gap sequence of a 0/2 step pattern: up step j of n = 2g is gap n - 1 - j.

    Raises InvalidStepPattern unless the pattern has g flat and g up steps,
    starts up (top gap 2g - 1) and ends flat (no gap at 0).

    >>> _pattern_to_gaps(bytes([2, 0, 0, 2, 2, 0]))  # T(3,4)
    (1, 2, 5)
    """
    n = len(steps)
    g = n // 2
    if n % 2 or steps.count(2) != g or steps.count(0) != g:
        raise InvalidStepPattern(f"a {n}-byte pattern is not {g} flat (0) and {g} up (2) steps")
    if g and steps[0] != 2:
        raise InvalidStepPattern(f"the first step must rise (top gap {2 * g - 1})")
    if g and steps[-1] != 0:
        raise InvalidStepPattern("the final step must be flat (no gap at 0)")
    return tuple(compress(range(n), steps[::-1]))


def enumerate_gap_functions(
    hull: PLFunction,
    symmetric_only: bool = False,
    max_solutions: int = DEFAULT_MAX_SOLUTIONS,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> RestorabilityReport:
    """Enumerate every slope-{0,2} profile whose convex envelope is the hull.

    Solutions are found in lexicographic step order (flat < up).  Both the
    total and the symmetric counts are always computed; symmetric_only only
    filters which witnesses are reported, and only those are stored.
    Exceeding max_solutions or step_budget stops the search and flags the
    report instead of raising.  A hull of genus above MAX_GENUS raises
    GenusTooLarge before anything of size g is built.
    """
    g = _validate_hull(hull)
    if g > MAX_GENUS:
        raise GenusTooLarge(f"the hull has genus {g}, above the limit of {MAX_GENUS}")
    total, kept, exhausted = _walk(*_bounds(hull), max_solutions, step_budget, symmetric_only)
    symmetric = len(kept) if symmetric_only else sum(map(_is_symmetric_pattern, kept))
    return RestorabilityReport(
        hull=hull,
        total_count=total,
        symmetric_count=symmetric,
        witnesses=tuple(map(_pattern_to_gaps, kept)),
        unique=symmetric == 1,
        budget_exhausted=exhausted,
    )


def is_restorable(
    delta: IntLaurentPoly,
    max_solutions: int = DEFAULT_MAX_SOLUTIONS,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> RestorabilityReport:
    """Whether the Alexander polynomial is recoverable from its Upsilon.

    Enumerates symmetric profiles over the envelope of its gap function;
    unique = True means no other L-space-form polynomial shares the Upsilon
    invariant.
    """
    return enumerate_gap_functions(
        hull_of(delta),
        symmetric_only=True,
        max_solutions=max_solutions,
        step_budget=step_budget,
    )


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


def designed_family_check(m: int, **kwargs) -> RestorabilityReport:
    """Restorability report for the designed family; unique for every m >= 3."""
    return is_restorable(designed_family_alexander(m), **kwargs)
