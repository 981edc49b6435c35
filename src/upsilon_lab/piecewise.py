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

Slopes are compared without dividing: a segment is its rise dy and run
dx > 0, a ray its slope over a run of 1, and dy1/dx1 < dy2/dx2 is tested as
dy1*dx2 < dy2*dx1.  So the envelope's ray checks, the ray absorption and
the convexity test run on ints alone when the vertices and ray slopes are
ints, as every hull of a gap function is.  The transform divides once per
output coordinate (_div): the slope dy/dx and the value (dy*x - y*dx)/dx at
the segment's left vertex (x, y), each an int when dx divides it, else one
Fraction.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import NotConvex, OutOfDomain, RaysInconsistent
from .rationals import format_rational, parse_rational
from .records import Record

Point = tuple[int | Fraction, int | Fraction]


def _exact(v) -> int | Fraction:
    """The number rule of every PL coordinate: an int when integral, else a Fraction."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _div(n, d: int | Fraction) -> int | Fraction:
    """n / d under the number rule, for d > 0: an int when d divides n, else one Fraction."""
    if type(n) is int and type(d) is int:
        q, r = divmod(n, d)
        return Fraction(n, d) if r else q
    # Fraction(n, d), not n / d: int / int would be float division.
    return _exact(Fraction(n, d))


def _cross(o: Point, a: Point, b: Point) -> int | Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class PLFunction(Record):
    """An exact piecewise-linear function on the line or a closed interval.

    >>> f = PLFunction([(0, 0), (1, 1)], left_slope=-1, right_slope=1)
    >>> f(Fraction(-2))
    2
    >>> f(Fraction(1, 2))
    Fraction(1, 2)
    >>> f == PLFunction([(0, 0), (1, 1), (2, 2)], left_slope=-1, right_slope=1)
    True
    """

    __slots__ = ("vertices", "left_slope", "right_slope")

    vertices: tuple[Point, ...]
    left_slope: int | Fraction | None
    right_slope: int | Fraction | None

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
            # A head/tail vertex sitting on its ray is not a real breakpoint: dy == slope * dx.
            while len(pts) >= 2 and pts[1][1] - pts[0][1] == ls * (pts[1][0] - pts[0][0]):
                pts.pop(0)
            while len(pts) >= 2 and pts[-1][1] - pts[-2][1] == rs * (pts[-1][0] - pts[-2][0]):
                pts.pop()
        object.__setattr__(self, "vertices", tuple(pts))
        object.__setattr__(self, "left_slope", ls)
        object.__setattr__(self, "right_slope", rs)

    # -- inspection ----------------------------------------------------------

    @property
    def on_line(self) -> bool:
        return self.left_slope is not None

    @property
    def domain(self) -> tuple[int | Fraction, int | Fraction] | None:
        """None for the full line, else the closed interval (lo, hi)."""
        if self.on_line:
            return None
        return (self.vertices[0][0], self.vertices[-1][0])

    def segment_slopes(self) -> list[int | Fraction]:
        return [_div(b[1] - a[1], b[0] - a[0]) for a, b in zip(self.vertices, self.vertices[1:])]

    def slope_sequence(self) -> list[int | Fraction]:
        """All slopes left to right, rays included on the full line."""
        slopes = self.segment_slopes()
        if self.on_line:
            return [self.left_slope] + slopes + [self.right_slope]
        return slopes

    def _pieces(self) -> list[tuple]:
        """(dy, dx, left vertex) per piece, left to right; on the full line each
        ray is (slope, 1) at its end vertex, where f*(slope) is attained."""
        verts = self.vertices
        pieces = [(b[1] - a[1], b[0] - a[0], a) for a, b in zip(verts, verts[1:])]
        if self.on_line:
            return [(self.left_slope, 1, verts[0]), *pieces, (self.right_slope, 1, verts[-1])]
        return pieces

    def is_convex(self) -> bool:
        return _strictly_increasing(self._pieces())

    def __repr__(self) -> str:
        verts = ", ".join(f"({format_rational(x)}, {format_rational(y)})" for x, y in self.vertices)
        if self.on_line:
            return (
                f"PLFunction([{verts}], left_slope={format_rational(self.left_slope)}, "
                f"right_slope={format_rational(self.right_slope)})"
            )
        return f"PLFunction([{verts}])"

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x: Fraction | int) -> int | Fraction:
        xf = _exact(x)
        pts = self.vertices
        if xf < pts[0][0]:
            if not self.on_line:
                raise OutOfDomain(f"{xf} lies left of the domain start {pts[0][0]}")
            x0, y0 = pts[0]
            return _exact(y0 + self.left_slope * (xf - x0))
        if xf > pts[-1][0]:
            if not self.on_line:
                raise OutOfDomain(f"{xf} lies right of the domain end {pts[-1][0]}")
            x0, y0 = pts[-1]
            return _exact(y0 + self.right_slope * (xf - x0))
        i = bisect_right([p[0] for p in pts], xf) - 1
        if i == len(pts) - 1:
            return pts[-1][1]
        (x0, y0), (x1, y1) = pts[i], pts[i + 1]
        return _div(y0 * (x1 - x0) + (y1 - y0) * (xf - x0), x1 - x0)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "left_slope": None if self.left_slope is None else format_rational(self.left_slope),
            "vertices": [[format_rational(x), format_rational(y)] for x, y in self.vertices],
            "right_slope": None if self.right_slope is None else format_rational(self.right_slope),
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
    *,
    trusted: bool = False,
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
    sweep and a hull on ints alone.  trusted=True is for the package's own
    corners (invariants._corners): a non-empty list of int pairs with
    strictly increasing x, swept as given, with no number or order check.
    """
    if trusted:
        pts = samples
    else:
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
        # ls > dy/dx and rs < dy/dx, with dx > 0 multiplied through.
        (x0, y0), (x1, y1) = hull[0], hull[1]
        if ls * (x1 - x0) > y1 - y0:
            raise RaysInconsistent(
                f"left ray slope {ls} cuts below the sample at x={x1}"
            )
        (x0, y0), (x1, y1) = hull[-2], hull[-1]
        if rs * (x1 - x0) < y1 - y0:
            raise RaysInconsistent(
                f"right ray slope {rs} cuts below the sample at x={x0}"
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
    vertex of it is collinear with its neighbours.  Each piece (dy, dx) from
    its left vertex (x, y) gives the vertex (dy/dx, (dy*x - y*dx)/dx), one
    division per coordinate.
    """
    pieces = f._pieces()
    if not _strictly_increasing(pieces):
        raise NotConvex("Legendre-Fenchel transform requires a convex function")
    verts = [(_div(dy, dx), _div(dy * x - y * dx, dx)) for dy, dx, (x, y) in pieces]
    if f.on_line:
        return PLFunction._canonical(verts)
    return PLFunction._canonical(verts, *f.domain)


def _strictly_increasing(pieces: list[tuple]) -> bool:
    """Whether the slopes dy/dx of (dy, dx, _) pieces strictly increase, by cross-multiplication."""
    return all(dy1 * dx2 < dy2 * dx1 for (dy1, dx1, _), (dy2, dx2, _) in zip(pieces, pieces[1:]))
