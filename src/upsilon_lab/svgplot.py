"""Static SVG figures: gap function, convex hull, Upsilon.

Output is a plain polyline drawing with integer axis ticks, byte-identical
for identical input: no timestamps, no randomness.  Pixel maps only add and
multiply exact values.  Every panel's x_min, x_max, y_max, x unit and y
offset is an int, so a tick, which sits at an integer data value, has an int
pixel: each axis's ticks are one pass over an int pixel range, written as
digits and ".000000" with no formatter call.  PLFunction stores an integral
coordinate as an int, so the gap and hull polylines are ints too and are
written the same way.  rationals.fixed6 formats what is left: a polyline
vertex with a pixel that is not an int (a non-integral Upsilon vertex),
the axis lines and tick halves that are constant along an axis (formatted
once per axis; they follow y_min, a Fraction when Upsilon's minimum is),
and the document's width and height.  The 6-digit coordinates are presentation
only; JSON carries the exact rationals.

Each curve arrives as a PLFunction: the gap function's polyline, the hull
and Upsilon.  Gap function and hull share one integer-grid panel; Upsilon,
living on [0, 2] with fractional breakpoints, gets its own panel stacked
below.
"""

from __future__ import annotations

import math

from .piecewise import PLFunction
from .rationals import fixed6

_UNIT = 24  # pixels per data unit
_MARGIN = 30


class _Panel:
    """One coordinate frame; y is flipped into SVG pixel space."""

    def __init__(self, x_min, x_max, y_min, y_max, x_unit, y_offset):
        self.x_min, self.x_max, self.y_min, self.y_max = x_min, x_max, y_min, y_max
        self.x_unit, self.y_offset = x_unit, y_offset
        self.width = 2 * _MARGIN + (x_max - x_min) * x_unit
        self.height = 2 * _MARGIN + (y_max - y_min) * _UNIT
        self.elements: list[str] = []

    def px(self, x):
        return _MARGIN + (x - self.x_min) * self.x_unit

    def py(self, y):
        return self.y_offset + _MARGIN + (self.y_max - y) * _UNIT

    def polyline(self, points, stroke: str, dashed: bool = False) -> None:
        attrs = f'fill="none" stroke="{stroke}" stroke-width="2"'
        if dashed:
            attrs += ' stroke-dasharray="6,4"'
        # px and py written out: pixel (x0 + x * x_unit, y0 - y * _UNIT).
        x0 = _MARGIN - self.x_min * self.x_unit
        y0 = self.y_offset + _MARGIN + self.y_max * _UNIT
        pixels = [(x0 + x * self.x_unit, y0 - y * _UNIT) for x, y in points]
        body = " ".join([
            f"{px}.000000,{py}.000000" if type(px) is int and type(py) is int
            else f"{fixed6(px)},{fixed6(py)}"
            for px, py in pixels
        ])
        self.elements.append(f'<polyline {attrs} points="{body}"/>')

    def axes_and_ticks(self) -> None:
        grey = 'stroke="#888888" stroke-width="1"'
        x_axis_y = 0 if self.y_min <= 0 <= self.y_max else self.y_min
        y_axis_x = 0 if self.x_min <= 0 <= self.x_max else self.x_min
        self.elements.append(
            f'<line {grey} x1="{fixed6(self.px(self.x_min))}" y1="{fixed6(self.py(x_axis_y))}" '
            f'x2="{fixed6(self.px(self.x_max))}" y2="{fixed6(self.py(x_axis_y))}"/>'
        )
        self.elements.append(
            f'<line {grey} x1="{fixed6(self.px(y_axis_x))}" y1="{fixed6(self.py(self.y_min))}" '
            f'x2="{fixed6(self.px(y_axis_x))}" y2="{fixed6(self.py(self.y_max))}"/>'
        )
        # An x tick varies only in x1 = x2, a y tick only in y1 = y2, and that pixel is an
        # int: one tick per unit from x_min to x_max, and from y_max down to ceil(y_min).
        cy = self.py(x_axis_y)
        head = f'<line {grey} x1="'
        mid = f'.000000" y1="{fixed6(cy - 3)}" x2="'
        tail = f'.000000" y2="{fixed6(cy + 3)}"/>'
        ticks = range(_MARGIN, self.px(self.x_max) + 1, self.x_unit)
        self.elements += [f"{head}{c}{mid}{c}{tail}" for c in ticks]
        cx = self.px(y_axis_x)
        head = f'<line {grey} x1="{fixed6(cx - 3)}" y1="'
        mid = f'.000000" x2="{fixed6(cx + 3)}" y2="'
        tail = '.000000"/>'
        ticks = range(self.py(math.ceil(self.y_min)), self.py(self.y_max) - 1, -_UNIT)
        self.elements += [f"{head}{c}{mid}{c}{tail}" for c in ticks]


def _clipped_points(f: PLFunction, x_lo: int, x_hi: int) -> list:
    return [(x_lo, f(x_lo)), *f.vertices, (x_hi, f(x_hi))]


def build_svg(
    gap: PLFunction | None = None,
    hull: PLFunction | None = None,
    upsilon: PLFunction | None = None,
) -> str:
    """Compose the requested curves into one deterministic SVG document.

    gap is the gap function's polyline, whose last vertex is (g, 2g):
    invariants._gap_pl of the gap runs, or GapFunction.to_pl().
    """
    panels: list[_Panel] = []
    offset = 0
    if gap is not None or hull is not None:
        g = 0 if gap is None else gap.vertices[-1][0]
        if hull is not None:
            g = max(g, max((math.floor(abs(x)) for x, _ in hull.vertices), default=0))
        span = max(g + 1, 2)  # both panel ends lie strictly outside every vertex
        panel = _Panel(-span, span, -1, 2 * g + 2, _UNIT, offset)
        panel.axes_and_ticks()
        if gap is not None:
            panel.polyline(_clipped_points(gap, panel.x_min, panel.x_max), "#000000")
        if hull is not None:
            panel.polyline(
                _clipped_points(hull, panel.x_min, panel.x_max), "#cc0000", dashed=True
            )
        panels.append(panel)
        offset += panel.height
    if upsilon is not None:
        lo = min(y for _, y in upsilon.vertices)
        panel = _Panel(0, 2, lo - 1, 1, _UNIT * 4, offset)
        panel.axes_and_ticks()
        panel.polyline(list(upsilon.vertices), "#0000cc")
        panels.append(panel)
    if not panels:
        raise ValueError("nothing to plot")
    width = fixed6(max(p.width for p in panels))
    height = fixed6(sum(p.height for p in panels))
    body = "\n".join([el for p in panels for el in p.elements])
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        '<rect width="100%" height="100%" fill="#ffffff"/>\n'
        f"{body}\n</svg>\n"
    )


def write_svg(
    path: str,
    gap: PLFunction | None = None,
    hull: PLFunction | None = None,
    upsilon: PLFunction | None = None,
) -> None:
    svg = build_svg(gap, hull, upsilon)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(svg)
