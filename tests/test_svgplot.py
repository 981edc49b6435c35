"""SVG bytes pinned by sha256, so a change to the pixel arithmetic cannot move a coordinate."""

import hashlib

import pytest

from upsilon_lab import family
from upsilon_lab.invariants import gap_function_of, hull_of
from upsilon_lab.laurent import IntLaurentPoly
from upsilon_lab.piecewise import legendre_fenchel
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
