"""SVG bytes pinned by sha256, so a change to the pixel arithmetic cannot move a coordinate,
and equal byte for byte to a writer that maps and formats every pixel on its own."""

import hashlib
import itertools
import math
from fractions import Fraction as F

import pytest

from upsilon_lab import family
from upsilon_lab.invariants import gap_function_of, hull_of
from upsilon_lab.laurent import IntLaurentPoly
from upsilon_lab.piecewise import PLFunction, legendre_fenchel
from upsilon_lab.rationals import fixed6
from upsilon_lab.semigroups import torus_semigroup
from upsilon_lab.svgplot import build_svg


def knot(name: str) -> IntLaurentPoly:
    if name == "unknot":
        return IntLaurentPoly.from_pairs([[0, 1]])
    if name == "T(17,49)":
        return torus_semigroup(17, 49).to_alexander()
    if name == "T(26,41)":
        return torus_semigroup(26, 41).to_alexander()
    if name in ("K1(40)", "K2(80)"):
        which, n = name[:2], int(name[3:-1])
        return family.alexander_closed_form(family.FamilyKnot(which, n))
    return family.catalog_knot(name).alexander


def svg_of(name: str, what: str) -> str:
    """The document `plot --what <what>` writes for the knot."""
    kinds = what.split(",")
    delta = knot(name)
    hull = hull_of(delta)
    return build_svg(
        gapfn=gap_function_of(delta) if "gapfn" in kinds else None,
        hull=hull if "hull" in kinds else None,
        upsilon=legendre_fenchel(hull) if "upsilon" in kinds else None,
    )


SVG_SHA256 = {
    ("T(3,4)", "gapfn"): "6029dfad7ab1fbf9d4ed3a809fc9f5f65026674e130241da4a941d18fe48af11",
    ("T(3,4)", "hull"): "a9ca69299141cfa5c84e6d361704d2157ac190c20c389e70f008c175ac358ea0",
    ("T(3,4)", "upsilon"): "9d7885712293da1e8ab03a8f142655339d62d824074020bde574c191a6b74b8a",
    ("T(3,4)", "gapfn,hull,upsilon"): "55802007d6f1063179b8ccecbf7b1c3ea3ad7539ebc5a91869d36c36dcecde43",
    ("T(3,5)", "gapfn"): "ba93f29de8cb84c3c3d91cfea64bad3c58503a71c497f00de791a397c2f35b28",
    ("T(3,5)", "hull"): "b925f3be404ae4969af3ef034e0f7c486b32d2a4be39f2a84ee1c2f12924f410",
    ("T(3,5)", "upsilon"): "e8b5e343b464425a187029bde95596b4323eeb6f83e92ee26b2fd2b7b5bfb098",
    ("T(3,5)", "gapfn,hull,upsilon"): "2aa20f305c9a46ef658a7cea58ad56bc343343587818eb5d5ccf7d9d6af63073",
    ("cable_alt_237", "gapfn"): "eedbea61ae2e7fef1de538d94e5d073fc067ae1612bafe531e18891a30ea2552",
    ("cable_alt_237", "hull"): "d6de33d5e0399d9e7b22c558129bca6c03cab647caf65b93b710b1bd6bc27e98",
    ("cable_alt_237", "upsilon"): "f0285e66c4998b59763fc3468ed9e199cc6e5a81d2730d14d07553ba152bd6c3",
    ("cable_alt_237", "gapfn,hull,upsilon"): "24a03ed68771cc17e212c65511430f51bd1eb75971bdbef3195ac434f97480ae",
    ("pretzel_237", "gapfn"): "1ee9b33b738990ca455e2bda2e4b8e1c4c625d37e7cdc4869bf347d5f26eedc8",
    ("pretzel_237", "hull"): "d6de33d5e0399d9e7b22c558129bca6c03cab647caf65b93b710b1bd6bc27e98",
    ("pretzel_237", "upsilon"): "f0285e66c4998b59763fc3468ed9e199cc6e5a81d2730d14d07553ba152bd6c3",
    ("pretzel_237", "gapfn,hull,upsilon"): "57161dba75ce68d193a34c9e272cbde04059b22f33e6cec9298377f293aa57ac",
    ("t09847", "gapfn"): "c350ebd107459e49e9d94d6561b3b2c4bf77c82a65f9f401d33de8cc16722640",
    ("t09847", "hull"): "393d0a743c23112377d960ed5581229ab2f5b93bd33be6e8d97b139ec59b3ae0",
    ("t09847", "upsilon"): "071de391bb66a4399eebef705e946ca2948a5138d9d697ca3bb59a8f95ebe931",
    ("t09847", "gapfn,hull,upsilon"): "bdc50e85e9db5408cc60eaf76bbc5382c5fb913472e7c4acab557157ab4e48f3",
    ("v2871", "gapfn"): "df385cabbc93c3e7eeb3154b0b22a91146a990b9e5de0698ae3c09629240594f",
    ("v2871", "hull"): "61c26481819d9cd10f5f31ab777a0e18ccbb0961e0cc1f6e95cc493023fb82d8",
    ("v2871", "upsilon"): "ceb561404da8a5ff437b9d744c38354ae346368d927cc926c411c149ab65276c",
    ("v2871", "gapfn,hull,upsilon"): "2a4a256aaed785f92392c68c8d08cb01953c8a497c8e5918f32c1010452adbd3",
    ("unknot", "gapfn"): "55a0011f000df3b37faae1e584a320b874f945ee6ffa05fd3f116dcb87d9d9b1",
    ("unknot", "hull"): "0920ff37ae4b1bec65cde844477c83ec385e3d8d676b732ec011af6079ab1a82",
    ("unknot", "upsilon"): "3ecc551d97b6f2e8181ebef96f2a4e0976697f416be282bcd126254ea9fc0145",
    ("unknot", "gapfn,hull,upsilon"): "ea7a35955922dc5fa7d4cd483115f05c4719ac02c05999ccb8bb16cf580141d0",
    ("T(17,49)", "gapfn"): "8e552a5f5f44e9c3da03111e2c22e4037288d149791292757e0ecdcd50a1ee37",
    ("T(17,49)", "hull"): "a810bb2faaef1d00beee50c24bbd32f34ddc68881942e1de92a806e01155ed72",
    ("T(17,49)", "upsilon"): "3fc4545c5697b8d08adf2fa95bc9715284e093e92c3e961872f067a421a9ba19",
    ("T(17,49)", "gapfn,hull,upsilon"): "249bb10a238ed1d7b14183c0add96ddf418684208abbaabc330f86ea347400b4",
    ("K1(40)", "gapfn"): "cf0d8f88979d5eb508838c8d76d243c0a49e710e53920696f10e863c0739351c",
    ("K1(40)", "hull"): "4ef02837f071838ea57f2a388fa67df0b78ae353910d1c8db12b5a3fa0c9b1f1",
    ("K1(40)", "upsilon"): "c35c81df244c001451429b9d6d34e33f2a9299b8be6a3f1df50e9d8d3abbf568",
    ("K1(40)", "gapfn,hull,upsilon"): "2a78b4086b44598a6aa22c4fc2172dd4040fec34731d2aa18bb3b511cf53c21f",
    # The top of the genus ladder: g = 500 and g = 486.
    ("T(26,41)", "gapfn,hull,upsilon"): "4f3375388c2b77a65fdeb53a1dc8ae4c91377027f43ca5ff3febb96186a1eb82",
    ("K2(80)", "gapfn,hull,upsilon"): "b6cbd0d38ae601fedd62687ade8b0689fc915197740f032884a3c4e922816160",
}


def test_every_catalog_knot_is_pinned():
    pinned = {name for name, _ in SVG_SHA256}
    assert set(family.catalog_names()) <= pinned


@pytest.mark.parametrize("name,what", sorted(SVG_SHA256))
def test_svg_bytes(name, what):
    digest = hashlib.sha256(svg_of(name, what).encode()).hexdigest()
    assert digest == SVG_SHA256[name, what]


def test_nothing_to_plot():
    with pytest.raises(ValueError, match="^nothing to plot$"):
        build_svg()


# -- the writer that formats every pixel through px, py and fixed6, kept as the oracle ---------

_UNIT, _MARGIN = 24, 30


class _RefPanel:
    def __init__(self, x_min, x_max, y_min, y_max, x_unit, y_offset):
        self.x_min, self.x_max, self.y_min, self.y_max = x_min, x_max, y_min, y_max
        self.x_unit, self.y_offset = x_unit, y_offset
        self.width = 2 * _MARGIN + (x_max - x_min) * x_unit
        self.height = 2 * _MARGIN + (y_max - y_min) * _UNIT
        self.elements = []

    def px(self, x):
        return _MARGIN + (x - self.x_min) * self.x_unit

    def py(self, y):
        return self.y_offset + _MARGIN + (self.y_max - y) * _UNIT

    def polyline(self, points, stroke, dashed=False):
        attrs = f'fill="none" stroke="{stroke}" stroke-width="2"'
        if dashed:
            attrs += ' stroke-dasharray="6,4"'
        body = " ".join(f"{fixed6(self.px(x))},{fixed6(self.py(y))}" for x, y in points)
        self.elements.append(f'<polyline {attrs} points="{body}"/>')

    def axes_and_ticks(self):
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
        for x in range(math.ceil(self.x_min), math.floor(self.x_max) + 1):
            self.elements.append(
                f'<line {grey} x1="{fixed6(self.px(x))}" y1="{fixed6(self.py(x_axis_y) - 3)}" '
                f'x2="{fixed6(self.px(x))}" y2="{fixed6(self.py(x_axis_y) + 3)}"/>'
            )
        for y in range(math.ceil(self.y_min), math.floor(self.y_max) + 1):
            self.elements.append(
                f'<line {grey} x1="{fixed6(self.px(y_axis_x) - 3)}" y1="{fixed6(self.py(y))}" '
                f'x2="{fixed6(self.px(y_axis_x) + 3)}" y2="{fixed6(self.py(y))}"/>'
            )


def reference_svg(gapfn=None, hull=None, upsilon=None):
    panels, offset = [], 0
    if gapfn is not None or hull is not None:
        g = gapfn.genus if gapfn is not None else 0
        if hull is not None:
            g = max(g, max((math.floor(abs(x)) for x, _ in hull.vertices), default=0))
        span = max(g + 1, 2)
        panel = _RefPanel(-span, span, -1, 2 * g + 2, _UNIT, offset)
        panel.axes_and_ticks()
        gap_pl = None if gapfn is None else gapfn.to_pl()
        for f, stroke, dashed in ((gap_pl, "#000000", False), (hull, "#cc0000", True)):
            if f is not None:
                lo, hi = panel.x_min, panel.x_max
                panel.polyline([(lo, f(lo)), *f.vertices, (hi, f(hi))], stroke, dashed)
        panels.append(panel)
        offset += panel.height
    if upsilon is not None:
        lo = min(y for _, y in upsilon.vertices)
        panel = _RefPanel(0, 2, lo - 1, 1, _UNIT * 4, offset)
        panel.axes_and_ticks()
        panel.polyline(list(upsilon.vertices), "#0000cc")
        panels.append(panel)
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


WHATS = [set(kinds) for r in (1, 2, 3) for kinds in itertools.combinations(("gapfn", "hull", "upsilon"), r)]
ORACLE_TORUS = ((2, 3), (2, 5), (3, 4), (3, 5), (3, 7), (4, 7), (5, 7), (5, 9), (7, 9),
                (7, 11), (9, 11), (11, 13), (13, 23))


ORACLE_KNOTS = [*family.catalog_names(), *(f"{w}({n})" for w in ("K1", "K2") for n in (1, 2, 3)),
                *(f"T({p},{q})" for p, q in ORACLE_TORUS)]


def oracle_delta(name: str) -> IntLaurentPoly:
    if name.startswith("T("):
        p, q = map(int, name[2:-1].split(","))
        return torus_semigroup(p, q).to_alexander()
    if name[:2] in ("K1", "K2"):
        return family.alexander_closed_form(family.FamilyKnot(name[:2], int(name[3:-1])))
    return family.catalog_knot(name).alexander


def assert_same_bytes(gapfn=None, hull=None, upsilon=None):
    kwargs = {"gapfn": gapfn, "hull": hull, "upsilon": upsilon}
    assert build_svg(**kwargs) == reference_svg(**kwargs)


@pytest.mark.parametrize("name", ORACLE_KNOTS)
def test_every_what_subset_matches_the_per_pixel_writer(name):
    delta = oracle_delta(name)
    gapfn, hull = gap_function_of(delta), hull_of(delta)
    upsilon = legendre_fenchel(hull)
    for kinds in WHATS:
        assert_same_bytes(gapfn if "gapfn" in kinds else None, hull if "hull" in kinds else None,
                          upsilon if "upsilon" in kinds else None)


@pytest.mark.parametrize("upsilon", [
    # Thirds: the 96 and 24 pixel units make every pixel an int, but y_min = -13/3.
    PLFunction([(0, 0), (F(2, 3), F(-10, 3)), (F(4, 3), F(-10, 3)), (2, 0)]),
    # Fifths and sevenths: Fraction pixels, which only fixed6 may write.
    PLFunction([(0, 0), (F(2, 7), F(-4, 5)), (F(6, 5), F(-9, 7)), (2, 0)]),
], ids=["thirds", "fifths-and-sevenths"])
def test_fractional_upsilon_panel_matches_the_per_pixel_writer(upsilon):
    assert any(type(c) is F for vertex in upsilon.vertices for c in vertex)
    assert_same_bytes(upsilon=upsilon)
    delta = family.catalog_knot("pretzel_237").alexander
    assert_same_bytes(gap_function_of(delta), hull_of(delta), upsilon)
