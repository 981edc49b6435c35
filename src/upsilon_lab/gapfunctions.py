"""Gap functions: the step profiles that feed the Legendre-Fenchel transform.

From a gap sequence with genus g, the counting function I(m) = #{gaps >= m}
gives J(m) = I(m + g), and the gap function is x |-> 2*J(-x).  Stored here
are its values at the integers -g..g; outside that window it is 0 on the
left and 2x on the right.  Linear interpolation between integer points makes
every segment slope 0 or 2, which is the structural fact the restorability
search exploits.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate
from operator import add

from .errors import InvalidStepPattern
from .piecewise import PLFunction, lower_convex_envelope
from .records import Record
from .semigroups import FormalSemigroup


class GapFunction(Record):
    """Integer samples of the gap function 2J(-m) of a genus-g gap set.

    >>> G = GapFunction.from_semigroup(FormalSemigroup([1]))
    >>> G.values
    (0, 2, 2)
    >>> G.value_at(5)
    10
    """

    __slots__ = ("values",)

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        """Values must be ints: 2.9, "2" or True raises TypeError, never truncated."""
        vals = tuple(values)
        for v in vals:
            if type(v) is not int:
                raise TypeError(f"value {v!r} is not an int")
        if len(vals) % 2 != 1:
            raise ValueError("need an odd number of values (arguments -g..g)")
        g = (len(vals) - 1) // 2
        if vals[0] != 0:
            raise ValueError(f"value at -g must be 0, got {vals[0]}")
        if vals[-1] != 2 * g:
            raise ValueError(f"value at g must be 2g = {2 * g}, got {vals[-1]}")
        for a, b in zip(vals, vals[1:]):
            if b - a not in (0, 2):
                raise ValueError(f"consecutive values must differ by 0 or 2, got {a} -> {b}")
        object.__setattr__(self, "values", vals)

    @property
    def genus(self) -> int:
        return (len(self.values) - 1) // 2

    def value_at(self, x: int) -> int:
        """Value at any integer, rays included (0 left, 2x right)."""
        g = self.genus
        if x <= -g:
            return 0
        if x >= g:
            return 2 * x
        return self.values[x + g]

    def steps(self) -> tuple[int, ...]:
        """The 2g consecutive differences, each 0 or 2."""
        return tuple(b - a for a, b in zip(self.values, self.values[1:]))

    def samples(self) -> list[tuple[int, int]]:
        g = self.genus
        return [(k - g, v) for k, v in enumerate(self.values)]

    def __repr__(self) -> str:
        return f"GapFunction(values={list(self.values)})"

    # -- conversions ----------------------------------------------------------

    @classmethod
    def from_semigroup(cls, s: FormalSemigroup) -> "GapFunction":
        """Sample 2J(-k) = 2I(g - k) at k = -g..g, in one pass over the gaps.

        As k rises, m = g - k falls from 2g to 0, and I(m) steps up by one at
        each gap m; so the samples are the running sums, read from m = 2g
        down, of a byte per m that is 2 at each gap.  A FormalSemigroup's
        gaps make a valid profile, so the values are not checked again.
        """
        steps = bytearray(2 * s.genus + 1)
        for a in s.gaps:
            steps[a] = 2
        gf = object.__new__(cls)
        object.__setattr__(gf, "values", tuple(accumulate(steps[::-1])))
        return gf

    def to_semigroup(self) -> FormalSemigroup:
        """Invert the construction: i is a gap iff I(i) > I(i + 1).

        In step terms, the step from k to k+1 is "up" exactly when
        g - 1 - k is a gap.  Raises InvalidStepPattern when the recovered
        set is not a valid gap sequence (a gap at 0, or top gap != 2g-1).
        """
        g = self.genus
        gaps = sorted(g - 1 - k for k, d in enumerate(self.steps(), start=-g) if d == 2)
        if gaps and gaps[0] < 1:
            raise InvalidStepPattern("recovered a gap at 0 (the final step must be flat)")
        if g and gaps[-1] != 2 * g - 1:
            raise InvalidStepPattern(
                f"recovered top gap {gaps[-1]}, expected {2 * g - 1} (the first step must rise)"
            )
        return FormalSemigroup(gaps)

    # -- predicates -------------------------------------------------------------

    def is_symmetric(self) -> bool:
        """Functional form of Alexander symmetry: G(k) = G(-k) + 2k, for k = 0..g."""
        vals, g = self.values, self.genus
        return tuple(map(add, vals[g::-1], range(0, 2 * g + 2, 2))) == vals[g:]

    # -- bridges to the PL world --------------------------------------------------

    def to_pl(self) -> PLFunction:
        """Unit-interval interpolation as a PLFunction with rays 0 and 2.

        Its vertices are the two ends and every sample where the 0/2 step
        changes, so no interior vertex is collinear and only the ray
        absorption is left to do.
        """
        vals, g = self.values, self.genus
        verts = [(-g, 0)]
        verts += [(k - g, vals[k]) for k in range(1, 2 * g)
                  if vals[k - 1] + vals[k + 1] != 2 * vals[k]]
        if g:
            verts.append((g, 2 * g))
        return PLFunction._canonical(verts, 0, 2)

    def envelope(self) -> PLFunction:
        """Lower convex envelope, swept over all 2g + 1 samples.

        The pipeline builds the same hull from the gap-run corners instead
        (invariants.hull_of); this dense route is the tests' oracle for it.
        """
        return lower_convex_envelope(self.samples(), 0, 2)

    # -- serialization ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {"genus": self.genus, "values": list(self.values)}
