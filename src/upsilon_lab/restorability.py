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
reaches lo, else up), records the profile, then backtracks to the deepest
flat step that may rise (value + 2 <= hi) and refills from there.  The
Alexander polynomial is restorable from the Upsilon invariant exactly when
the symmetric solution count is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedHull
from .gapfunctions import GapFunction
from .invariants import hull_of
from .laurent import IntLaurentPoly
from .piecewise import PLFunction

DEFAULT_MAX_SOLUTIONS = 10_000
DEFAULT_STEP_BUDGET = 10**9


@dataclass(frozen=True)
class RestorabilityReport:
    """Outcome of enumerating all gap functions over one hull.

    witnesses holds gap sequences (possibly filtered to symmetric ones and
    capped); unique means exactly one symmetric profile exists, the
    population relevant for comparing knots.  budget_exhausted flags a
    truncated search, in which case the counts are lower bounds.
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
            "witnesses": [list(w) for w in self.witnesses],
            "unique": self.unique,
            "budget_exhausted": self.budget_exhausted,
        }


def _validate_hull(hull: PLFunction) -> None:
    """Check the hull could be the envelope of a gap function."""
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
    lo: list[int], hi: list[int], max_solutions: int, budget: int
) -> tuple[list[tuple[int, ...]], bool]:
    """Every step pattern between the bounds, flat before up; (solutions, truncated).

    Nodes are counted as in a depth-first search: the root plus every
    partial profile entered.  Truncated means the node count passed the
    budget, or a further solution was found once max_solutions were kept.
    """
    n = len(lo) - 1
    vals = [0] * (n + 1)  # vals[i] is the profile value at x = i - g
    steps = [0] * n
    solutions: list[tuple[int, ...]] = []
    nodes = 1  # the root
    i = 0  # steps[:i] are fixed
    while True:
        # Refill greedily: flat where the floor allows, else up.
        nodes += n - i
        for j in range(i, n):
            val = vals[j]
            steps[j] = step = 0 if val >= lo[j + 1] else 2
            vals[j + 1] = val + step
        if nodes > budget or len(solutions) >= max_solutions:
            return solutions, True
        solutions.append(tuple(steps))
        # Backtrack to the deepest flat step that may rise.
        i = n - 1
        while i >= 0 and (steps[i] or vals[i] + 2 > hi[i + 1]):
            i -= 1
        if i < 0:
            return solutions, False
        steps[i] = 2
        vals[i + 1] += 2
        nodes += 1
        i += 1


def _is_symmetric_pattern(steps: tuple[int, ...]) -> bool:
    """Step mirror of G(k) = G(-k) + 2k: paired steps sum to 2."""
    n = len(steps)
    return all(steps[j] + steps[n - 1 - j] == 2 for j in range(n // 2))


def _pattern_to_gaps(steps: tuple[int, ...]) -> tuple[int, ...]:
    values = [0]
    for s in steps:
        values.append(values[-1] + s)
    return GapFunction(values).to_semigroup().gaps


def enumerate_gap_functions(
    hull: PLFunction,
    symmetric_only: bool = False,
    max_solutions: int = DEFAULT_MAX_SOLUTIONS,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> RestorabilityReport:
    """Enumerate every slope-{0,2} profile whose convex envelope is the hull.

    Solutions are found in lexicographic step order (flat < up).  Both the
    total and the symmetric counts are always computed; symmetric_only only
    filters which witnesses are reported.  Exceeding max_solutions or
    step_budget stops the search and flags the report instead of raising.
    """
    _validate_hull(hull)
    solutions, exhausted = _walk(*_bounds(hull), max_solutions, step_budget)
    symmetric = [s for s in solutions if _is_symmetric_pattern(s)]
    wanted = symmetric if symmetric_only else solutions
    return RestorabilityReport(
        hull=hull,
        total_count=len(solutions),
        symmetric_count=len(symmetric),
        witnesses=tuple(_pattern_to_gaps(s) for s in wanted),
        unique=len(symmetric) == 1,
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
    """The designed restorable family 1 - t + t^m - t^{m+1} + t^{m+2} - t^{2m+1} + t^{2m+2}."""
    if m < 3:
        raise ValueError("family parameter m must be >= 3")
    return IntLaurentPoly(
        {0: 1, 1: -1, m: 1, m + 1: -1, m + 2: 1, 2 * m + 1: -1, 2 * m + 2: 1}
    )


def designed_family_check(m: int, **kwargs) -> RestorabilityReport:
    """Restorability report for the designed family; unique for every m >= 3."""
    return is_restorable(designed_family_alexander(m), **kwargs)
