"""Exact piecewise-linear function algebra.

A PLFunction is a polyline with strictly increasing rational x-coordinates,
either extended to the whole line by two rays (left_slope on the left of the
first vertex, right_slope on the right of the last) or restricted to the
closed interval spanned by its vertices.  Every coordinate, slope and value
follows one rule (_exact): an int when it is integral, else a Fraction.
There is no floating point anywhere.

The public constructor canonicalizes: collinear interior vertices are
dropped, and on the full line a leading/trailing vertex collinear with its
ray is absorbed into the ray.  Equality of canonical forms therefore decides
equality of functions.  The package's own builders (the envelope, the
transform and GapFunction.to_pl) make vertices that are already exact,
strictly increasing and free of collinear interior points, and hand them to
PLFunction._canonical, which does only the ray absorption.

The two nontrivial operations are the lower convex envelope of a sampled
function (monotone-chain lower hull) and the Legendre-Fenchel transform
f*(t) = sup_x { t*x - f(x) }.  For a convex piecewise-linear f the transform
swaps roles: breakpoints of f* are the slopes of f, and slopes of f* are the
x-coordinates of f's vertices, which makes the transform exact, involutive
on convex functions, and cheap.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import NotConvex, OutOfDomain, RaysInconsistent
from .rationals import format_rational, parse_rational

Point = tuple[int | Fraction, int | Fraction]


def _exact(v) -> int | Fraction:
    """The number rule of every PL coordinate: an int when integral, else a Fraction."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _slope(a: Point, b: Point) -> int | Fraction:
    # Fraction(dy, dx), not dy / dx: int / int would be float division.
    return _exact(Fraction(b[1] - a[1], b[0] - a[0]))


def _cross(o: Point, a: Point, b: Point) -> int | Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class PLFunction:
    """An exact piecewise-linear function on the line or a closed interval.

    >>> f = PLFunction([(0, 0), (1, 1)], left_slope=-1, right_slope=1)
    >>> f(Fraction(-2))
    2
    >>> f(Fraction(1, 2))
    Fraction(1, 2)
    >>> f == PLFunction([(0, 0), (1, 1), (2, 2)], left_slope=-1, right_slope=1)
    True
    """

    __slots__ = ("_vertices", "_left_slope", "_right_slope")

    def __init__(
        self,
        vertices: Iterable[Sequence],
        left_slope: Fraction | int | None = None,
        right_slope: Fraction | int | None = None,
    ):
        pts = [(_exact(x), _exact(y)) for x, y in vertices]
        if not pts:
            raise ValueError("a piecewise-linear function needs at least one vertex")
        for a, b in zip(pts, pts[1:]):
            if b[0] <= a[0]:
                raise ValueError("vertex x-coordinates must be strictly increasing")
        if (left_slope is None) != (right_slope is None):
            raise ValueError("give both ray slopes (full line) or neither (interval)")
        on_line = left_slope is not None
        if on_line:
            ls, rs = _exact(left_slope), _exact(right_slope)
        elif len(pts) < 2:
            raise ValueError("an interval-domain function needs at least two vertices")
        else:
            ls = rs = None

        # Drop interior vertices collinear with their neighbours.
        kept: list = []
        for p in pts:
            while len(kept) >= 2 and _cross(kept[-2], kept[-1], p) == 0:
                kept.pop()
            kept.append(p)
        self._fill(kept, ls, rs)

    @classmethod
    def _canonical(cls, pts: list, ls=None, rs=None) -> "PLFunction":
        """The trusted constructor, for vertices the package has just built.

        pts must follow the number rule, have strictly increasing x and no
        collinear interior vertex; ls and rs are exact, both given or both
        None.  Only the ray absorption runs, trimming the list pts in place.
        """
        f = object.__new__(cls)
        f._fill(pts, ls, rs)
        return f

    def _fill(self, pts: list, ls, rs) -> None:
        if ls is not None:
            # A head/tail vertex sitting on its ray is not a real breakpoint.
            while len(pts) >= 2 and _slope(pts[0], pts[1]) == ls:
                pts.pop(0)
            while len(pts) >= 2 and _slope(pts[-2], pts[-1]) == rs:
                pts.pop()
        self._vertices = tuple(pts)
        self._left_slope = ls
        self._right_slope = rs

    # -- inspection ----------------------------------------------------------

    @property
    def vertices(self) -> tuple[Point, ...]:
        return self._vertices

    @property
    def left_slope(self) -> int | Fraction | None:
        return self._left_slope

    @property
    def right_slope(self) -> int | Fraction | None:
        return self._right_slope

    @property
    def on_line(self) -> bool:
        return self._left_slope is not None

    @property
    def domain(self) -> tuple[int | Fraction, int | Fraction] | None:
        """None for the full line, else the closed interval (lo, hi)."""
        if self.on_line:
            return None
        return (self._vertices[0][0], self._vertices[-1][0])

    def segment_slopes(self) -> list[int | Fraction]:
        return [_slope(a, b) for a, b in zip(self._vertices, self._vertices[1:])]

    def slope_sequence(self) -> list[int | Fraction]:
        """All slopes left to right, rays included on the full line."""
        slopes = self.segment_slopes()
        if self.on_line:
            return [self._left_slope] + slopes + [self._right_slope]
        return slopes

    def is_convex(self) -> bool:
        seq = self.slope_sequence()
        return all(a < b for a, b in zip(seq, seq[1:]))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PLFunction):
            return (
                self._vertices == other._vertices
                and self._left_slope == other._left_slope
                and self._right_slope == other._right_slope
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._vertices, self._left_slope, self._right_slope))

    def __repr__(self) -> str:
        verts = ", ".join(f"({format_rational(x)}, {format_rational(y)})" for x, y in self._vertices)
        if self.on_line:
            return (
                f"PLFunction([{verts}], left_slope={format_rational(self._left_slope)}, "
                f"right_slope={format_rational(self._right_slope)})"
            )
        return f"PLFunction([{verts}])"

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x: Fraction | int) -> int | Fraction:
        xf = _exact(x)
        pts = self._vertices
        if xf < pts[0][0]:
            if not self.on_line:
                raise OutOfDomain(f"{xf} lies left of the domain start {pts[0][0]}")
            x0, y0 = pts[0]
            return _exact(y0 + self._left_slope * (xf - x0))
        if xf > pts[-1][0]:
            if not self.on_line:
                raise OutOfDomain(f"{xf} lies right of the domain end {pts[-1][0]}")
            x0, y0 = pts[-1]
            return _exact(y0 + self._right_slope * (xf - x0))
        i = bisect_right([p[0] for p in pts], xf) - 1
        if i == len(pts) - 1:
            return pts[-1][1]
        x0, y0 = pts[i]
        return _exact(y0 + _slope(pts[i], pts[i + 1]) * (xf - x0))

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "left_slope": None if self._left_slope is None else format_rational(self._left_slope),
            "vertices": [[format_rational(x), format_rational(y)] for x, y in self._vertices],
            "right_slope": None if self._right_slope is None else format_rational(self._right_slope),
            "domain": "line"
            if self.on_line
            else [format_rational(self.domain[0]), format_rational(self.domain[1])],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PLFunction":
        ls = data.get("left_slope")
        rs = data.get("right_slope")
        return cls(
            [(parse_rational(x), parse_rational(y)) for x, y in data["vertices"]],
            None if ls is None else parse_rational(ls),
            None if rs is None else parse_rational(rs),
        )


def _lower_hull(pts: list) -> list:
    """Monotone-chain lower hull of points sorted by x, collinear ones dropped."""
    hull: list = []
    for p in pts:
        x, y = p
        while len(hull) >= 2:
            # _cross(hull[-2], hull[-1], p) > 0, written out: the sweep's hot loop.
            ox, oy = hull[-2]
            ax, ay = hull[-1]
            if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                break
            hull.pop()
        hull.append(p)
    return hull


def lower_convex_envelope(
    samples: Iterable[Sequence],
    left_slope: Fraction | int,
    right_slope: Fraction | int,
) -> PLFunction:
    """Greatest convex function below the sampled polyline and its two rays.

    The samples (sorted by x) are swept once with a monotone-chain lower
    hull; collinear candidates are dropped, so the hull is canonical as
    built and only the ray absorption runs on it.
    Raises RaysInconsistent when a ray would cut below a sample, i.e. when
    the left ray is steeper than the first hull segment or the right ray
    shallower than the last.

    Samples, slopes and the result follow PLFunction's number rule: an
    integral value is an int, so gap-function samples (always ints) give a
    sweep and a hull on ints alone.
    """
    pts = [(_exact(x), _exact(y)) for x, y in samples]
    if not pts:
        raise ValueError("need at least one sample")
    for a, b in zip(pts, pts[1:]):
        if b[0] <= a[0]:
            raise ValueError("sample x-coordinates must be strictly increasing")
    ls, rs = _exact(left_slope), _exact(right_slope)
    hull = _lower_hull(pts)
    if len(hull) == 1:
        if ls > rs:
            raise RaysInconsistent(
                f"left slope {ls} exceeds right slope {rs} at a single hull point"
            )
    else:
        if ls > _slope(hull[0], hull[1]):
            raise RaysInconsistent(
                f"left ray slope {ls} cuts below the sample at x={hull[1][0]}"
            )
        if rs < _slope(hull[-2], hull[-1]):
            raise RaysInconsistent(
                f"right ray slope {rs} cuts below the sample at x={hull[-2][0]}"
            )
    return PLFunction._canonical(hull, ls, rs)


def legendre_fenchel(f: PLFunction) -> PLFunction:
    """The conjugate f*(t) = sup_x { t*x - f(x) } of a convex PLFunction.

    For f on the full line with slopes bounded by its rays, the supremum is
    finite exactly for t between the two ray slopes, and on each slope
    interval it is attained at the corresponding vertex of f; the conjugate
    of an interval-domain function is finite everywhere and its rays have
    the domain endpoints as slopes.  Conjugating twice returns f.

    The result is canonical as built: its vertex x-coordinates are f's
    slopes, which the NotConvex check proves strictly increasing, and its
    slopes are f's vertex x-coordinates, which strictly increase too, so no
    vertex of it is collinear with its neighbours.
    """
    slopes = f.slope_sequence()
    if any(a >= b for a, b in zip(slopes, slopes[1:])):
        raise NotConvex("Legendre-Fenchel transform requires a convex function")
    verts = f.vertices
    if f.on_line:
        # The left ray's slope is attained at the first vertex, slope i >= 1 at vertex i - 1.
        pairs = zip(slopes, (verts[0], *verts))
        return PLFunction._canonical([(s, _exact(s * x - y)) for s, (x, y) in pairs])
    pairs = zip(slopes, verts)
    return PLFunction._canonical([(s, _exact(s * x - y)) for s, (x, y) in pairs], *f.domain)
