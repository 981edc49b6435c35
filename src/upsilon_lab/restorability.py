"""Restorability: which gap functions share a given convex hull.

A convex hull with rays of slope 0 and 2 pins any compatible gap function at
three kinds of places: the profile must start at (-g, 0) and end at (g, 2g),
must never dip below the hull, and must touch the hull at every hull vertex
(the breakpoints of a convex envelope always lie on the function's graph).
Between integers both graphs are linear, so checking at integers suffices;
those three conditions are exactly "envelope equals hull".

The search walks the 2g unit steps left to right, flat before up, pruning a
partial profile when it falls below the hull, overshoots the next pinned
vertex, or can no longer climb to 2g.  The Alexander polynomial is
restorable from the Upsilon invariant exactly when the symmetric solution
count is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def _validate_hull(hull: PLFunction) -> int:
    """Check the hull could be the envelope of a gap function; return g."""
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


class _Search:
    """DFS state shared across one enumeration run."""

    __slots__ = (
        "g",
        "min_val",
        "pin",
        "cap",
        "max_solutions",
        "budget",
        "nodes",
        "solutions",
        "exhausted",
    )

    def __init__(self, hull: PLFunction, g: int, max_solutions: int, budget: int):
        self.g = g
        # Smallest integer >= hull(k); profile values are even, so an integer
        # lower bound loses nothing and keeps the inner loop on machine ints.
        self.min_val = [_ceil(hull(k)) for k in range(-g, g + 1)]
        vert = {int(x): int(y) for x, y in hull.vertices}
        self.pin = [vert.get(k) for k in range(-g, g + 1)]
        # Upper bound at each k: height of the next pinned vertex at or right of k.
        cap: list[int] = [0] * (2 * g + 1)
        nxt = 2 * g
        for idx in range(2 * g, -1, -1):
            if self.pin[idx] is not None:
                nxt = self.pin[idx]
            cap[idx] = nxt
        self.cap = cap
        self.max_solutions = max_solutions
        self.budget = budget
        self.nodes = 0
        self.solutions: list[tuple[int, ...]] = []
        self.exhausted = False

    def feasible(self, idx: int, val: int) -> bool:
        """May a profile passing through value val at step index idx complete?"""
        if val < self.min_val[idx]:
            return False
        pinned = self.pin[idx]
        if pinned is not None and val != pinned:
            return False
        if val > self.cap[idx]:
            return False
        # Enough steps remain to climb to 2g.
        return val + 2 * (2 * self.g - idx) >= 2 * self.g

    def run(self) -> None:
        """Enumerate every profile from (-g, 0)."""
        self._dfs(0, 0, [])

    def _dfs(self, idx: int, val: int, steps: list[int]) -> None:
        if self.exhausted:
            return
        self.nodes += 1
        if self.nodes > self.budget:
            self.exhausted = True
            return
        if idx == 2 * self.g:
            if len(self.solutions) >= self.max_solutions:
                self.exhausted = True
                return
            self.solutions.append(tuple(steps))
            return
        for step in (0, 2):
            nval = val + step
            if self.feasible(idx + 1, nval):
                steps.append(step)
                self._dfs(idx + 1, nval, steps)
                steps.pop()
                if self.exhausted:
                    return


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


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
    search = _Search(hull, _validate_hull(hull), max_solutions, step_budget)
    search.run()
    solutions = search.solutions
    symmetric = [s for s in solutions if _is_symmetric_pattern(s)]
    wanted = symmetric if symmetric_only else solutions
    return RestorabilityReport(
        hull=hull,
        total_count=len(solutions),
        symmetric_count=len(symmetric),
        witnesses=tuple(_pattern_to_gaps(s) for s in wanted),
        unique=len(symmetric) == 1,
        budget_exhausted=search.exhausted,
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
