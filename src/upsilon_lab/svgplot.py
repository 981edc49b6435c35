"""Static SVG figures: gap function, convex hull, Upsilon.

Output is a plain polyline drawing with integer axis ticks, byte-identical
for identical input: no timestamps, no randomness.  Pixel maps only add and
multiply exact values, and every panel's bounds, unit and offset are ints, so
int data gives int pixels.  PLFunction stores an integral coordinate as an
int, so the gap and hull panels run on ints alone; only non-integral Upsilon
vertices give Fraction pixels.  rationals.fixed6 formats both exactly, an int
by its digits alone.  A tick line formats its constant half once per axis and
one pixel value per tick.  The 6-digit coordinates are presentation only; JSON carries
the exact rationals.

Gap function and hull share one integer-grid panel; Upsilon, living on
[0, 2] with fractional breakpoints, gets its own panel stacked below.
"""

from __future__ import annotations

import math

from .gapfunctions import GapFunction
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
        px, py = self.px, self.py
        body = " ".join(f"{fixed6(px(x))},{fixed6(py(y))}" for x, y in points)
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
        # An x tick varies only in x1 = x2, a y tick only in y1 = y2; the rest is formatted once.
        cy = self.py(x_axis_y)
        head = f'<line {grey} x1="'
        mid = f'" y1="{fixed6(cy - 3)}" x2="'
        tail = f'" y2="{fixed6(cy + 3)}"/>'
        for x in range(math.ceil(self.x_min), math.floor(self.x_max) + 1):
            cx = fixed6(self.px(x))
            self.elements.append(f"{head}{cx}{mid}{cx}{tail}")
        cx = self.px(y_axis_x)
        head = f'<line {grey} x1="{fixed6(cx - 3)}" y1="'
        mid = f'" x2="{fixed6(cx + 3)}" y2="'
        tail = '"/>'
        for y in range(math.ceil(self.y_min), math.floor(self.y_max) + 1):
            cy = fixed6(self.py(y))
            self.elements.append(f"{head}{cy}{mid}{cy}{tail}")


def _clipped_points(f: PLFunction, x_lo: int, x_hi: int) -> list:
    return [(x_lo, f(x_lo)), *f.vertices, (x_hi, f(x_hi))]


def build_svg(
    gapfn: GapFunction | None = None,
    hull: PLFunction | None = None,
    upsilon: PLFunction | None = None,
) -> str:
    """Compose the requested curves into one deterministic SVG document."""
    panels: list[_Panel] = []
    offset = 0
    if gapfn is not None or hull is not None:
        g = gapfn.genus if gapfn is not None else 0
        if hull is not None:
            g = max(g, max((math.floor(abs(x)) for x, _ in hull.vertices), default=0))
        span = max(g + 1, 2)  # both panel ends lie strictly outside every vertex
        panel = _Panel(-span, span, -1, 2 * g + 2, _UNIT, offset)
        panel.axes_and_ticks()
        if gapfn is not None:
            panel.polyline(
                _clipped_points(gapfn.to_pl(), panel.x_min, panel.x_max), "#000000"
            )
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
    body = "\n".join(el for p in panels for el in p.elements)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        '<rect width="100%" height="100%" fill="#ffffff"/>\n'
        f"{body}\n</svg>\n"
    )


def write_svg(
    path: str,
    gapfn: GapFunction | None = None,
    hull: PLFunction | None = None,
    upsilon: PLFunction | None = None,
) -> None:
    svg = build_svg(gapfn=gapfn, hull=hull, upsilon=upsilon)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(svg)
