"""The K1/K2 twist family and the fixed-knot catalog.

K1(n) and K2(n) are the closures of the 4-braids in braids.family_braid.
Their Alexander polynomials admit three independent derivations, all
implemented here or nearby:

  1. closed form: an explicit sum of geometric blocks in n;
  2. Torres substitution: the stored three-variable link polynomial with
     x -> t, y -> t^{4n}, z -> t^6, times (t-1)/((t^4-1)(t^3-1));
  3. Burau determinant of the braid word (braids module).

The two trivariate polynomials are fixture data for the surgery
presentations K cup C1 cup C2 of the two links, stored as ((i, j, k), c)
term pairs for c x^i y^j z^k; a checksum (value 0 at x = y = z = 1) plus
the round trip against derivation 1 guards the transcription.

The catalog carries the handful of fixed knots used everywhere else, each
with every representation known for it (polynomial, braid word, gap
sequence, Upsilon).  The entries are constant, so they are checked by the
tests, not on every fetch: check_catalog_entry compares the stored gaps and
Upsilon with the polynomial, and each braid word is closed to it.
"""

from __future__ import annotations

from fractions import Fraction

from . import braids
from .errors import UnknownName
from .invariants import hull_of, upsilon_of
from .laurent import IntLaurentPoly
from .piecewise import PLFunction, legendre_fenchel
from .records import Record
from .semigroups import FormalSemigroup


class FamilyKnot(Record):
    """One member of the twist family: which in {"K1", "K2"}, 1 <= n <= MAX_TWIST."""

    __slots__ = ("which", "n")

    which: str
    n: int

    def __init__(self, which: str, n: int):
        if which not in ("K1", "K2"):
            raise ValueError(f"which must be K1 or K2, got {which!r}")
        # Exactly int: a bool or a float would pass the range check below.
        if type(n) is not int:
            raise TypeError(f"twist parameter n must be an int, got {n!r}")
        if not 1 <= n <= braids.MAX_TWIST:
            raise ValueError(f"twist parameter n must be from 1 to {braids.MAX_TWIST}, got {n}")
        object.__setattr__(self, "which", which)
        object.__setattr__(self, "n", n)

    def __str__(self) -> str:
        return f"{self.which}({self.n})"


# Multivariable Alexander polynomials of the two surgery-presentation links,
# variables (x, y, z) = meridians of (K, C1, C2), as ((i, j, k), c) pairs.
TRI_ALEXANDER_K1 = (
    ((6, 3, 2), 1),
    ((5, 2, 1), 1),
    ((3, 3, 2), -1),
    ((3, 2, 2), 1),
    ((3, 2, 1), -1),
    ((2, 2, 2), -1),
    ((4, 1, 0), 1),
    ((3, 1, 1), 1),
    ((3, 1, 0), -1),
    ((3, 0, 0), 1),
    ((1, 1, 1), -1),
    ((0, 0, 0), -1),
)

TRI_ALEXANDER_K2 = (
    ((6, 3, 2), 1),
    ((3, 3, 2), -1),
    ((4, 2, 1), 1),
    ((5, 1, 1), 1),
    ((3, 2, 2), 1),
    ((3, 2, 1), -1),
    ((4, 1, 1), -1),
    ((2, 2, 2), -1),
    ((4, 1, 0), 1),
    ((2, 2, 1), 1),
    ((3, 1, 1), 1),
    ((3, 1, 0), -1),
    ((1, 2, 1), -1),
    ((2, 1, 1), -1),
    ((3, 0, 0), 1),
    ((0, 0, 0), -1),
)


def _block(terms: dict[int, int], start: int, step: int, count: int, drop: int) -> None:
    """Add sum_{i=0}^{count-1} (t^{start+step*i} - t^{start-drop+step*i}) to terms."""
    for i in range(count):
        hi = start + step * i
        terms[hi] = terms.get(hi, 0) + 1
        terms[hi - drop] = terms.get(hi - drop, 0) - 1


def alexander_closed_form(knot: FamilyKnot) -> IntLaurentPoly:
    """The block-sum closed form of the family Alexander polynomial."""
    n = knot.n
    terms = {0: 1}
    _block(terms, 8 * n + 12, 4, n + 1, 1)   # t^{8n+12+4i} - t^{8n+11+4i}, i = 0..n
    _block(terms, 8 * n + 9, 0, 1, 1)        # t^{8n+9} - t^{8n+8}
    _block(terms, 4, 4, n, 3)                # t^{4+4i} - t^{1+4i}, i = 0..n-1
    _block(terms, 4 * n + 3, 0, 1, 2)        # t^{4n+3} - t^{4n+1}
    if knot.which == "K1":
        _block(terms, 4 * n + 6, 4, n + 1, 2)    # t^{4n+6+4i} - t^{4n+4+4i}
    else:
        _block(terms, 4 * n + 8, 2, 2 * n, 1)    # t^{4n+8+2i} - t^{4n+7+2i}
        _block(terms, 4 * n + 6, 0, 1, 2)        # t^{4n+6} - t^{4n+4}
    return IntLaurentPoly._from_terms({e: c for e, c in terms.items() if c})


def alexander_via_torres(knot: FamilyKnot) -> IntLaurentPoly:
    """Collapse the stored link polynomial to the knot polynomial.

    Substitute (t, t^{4n}, t^6), multiply by (t - 1), divide exactly by
    (t^4 - 1)(t^3 - 1), and knot-normalize.  A NonExactDivision here means
    the fixture data is corrupt.
    """
    tri = TRI_ALEXANDER_K1 if knot.which == "K1" else TRI_ALEXANDER_K2
    n = knot.n
    substituted = IntLaurentPoly((i + 4 * n * j + 6 * k, c) for (i, j, k), c in tri)
    t = IntLaurentPoly.t()
    numerator = substituted * (t - 1)
    denominator = (IntLaurentPoly.monomial(4) - 1) * (IntLaurentPoly.monomial(3) - 1)
    return numerator.exact_div(denominator).knot_normalized()


def alexander_via_burau(knot: FamilyKnot) -> IntLaurentPoly:
    """Burau-determinant derivation from the braid word.

    The slowest of the three at small n: 0.09 ms at n = 1, 0.11 ms at n = 10
    and 0.27 ms at n = 100, about 1.5 times Torres at n <= 10 and faster at
    n = 100 (0.39 ms), and three to twelve times the closed form (best of
    200, CPython 3.11, a shared 2-CPU host).
    """
    return braids.family_braid(knot.which, knot.n).alexander_of_closure()


def semigroup_closed_form(knot: FamilyKnot) -> FormalSemigroup:
    """The closed-form union-of-blocks formal semigroup, as a gap sequence."""
    n = knot.n
    gaps = [i for i in range(1, 4 * n) if i % 4 != 0]
    gaps += [4 * n + 1, 4 * n + 2]
    if knot.which == "K1":
        for i in range(n + 1):
            gaps += [4 * n + 4 + 4 * i, 4 * n + 5 + 4 * i]
        gaps += [8 * n + 8]
        gaps += [8 * n + 11 + 4 * i for i in range(n + 1)]
    else:
        gaps += [4 * n + 4, 4 * n + 5]
        gaps += [4 * n + 7 + 2 * i for i in range(2 * n)]
        gaps += [8 * n + 8, 8 * n + 11]
        gaps += [8 * n + 15 + 4 * i for i in range(n)]
    return FormalSemigroup(sorted(gaps))


def hull_closed_form(n: int) -> PLFunction:
    """The shared 7-piece convex hull of both family gap functions.

    Breakpoints at -6n-6, -2n-6, -2n, 2n, 2n+6, 6n+6 with slopes
    0, 1/2, 2/3, 1, 4/3, 3/2, 2.
    """
    if n < 1:
        raise ValueError("twist parameter n must be >= 1")
    vertices = [
        (-6 * n - 6, 0),
        (-2 * n - 6, 2 * n),
        (-2 * n, 2 * n + 4),
        (2 * n, 6 * n + 4),
        (2 * n + 6, 6 * n + 12),
        (6 * n + 6, 12 * n + 12),
    ]
    return PLFunction(vertices, 0, 2)


# verify_family_pair cross-checks the Burau derivation only up to this n.  The
# two words cost about 0.20 ms at n = 3, 0.23 ms at n = 10 and 0.6 ms at
# n = 100 (best of 200, CPython 3.11, a shared 2-CPU host), about twice Torres
# at n <= 10, which already checks every n; a larger bound would change the
# checks that `family verify` reports.
BURAU_MAX_N = 2


class CheckResult(Record):
    """One assertion's outcome."""

    __slots__ = ("ok", "detail")

    ok: bool
    detail: str

    def __init__(self, ok: bool, detail: str):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)


class FamilyVerification(Record):
    """Per-assertion outcome of the family-pair verification at one n.

    hash() raises TypeError, as checks is a dict.
    """

    __slots__ = ("n", "checks")

    n: int
    checks: dict[str, CheckResult]

    def __init__(self, n: int, checks: dict[str, CheckResult]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "ok": self.ok,
            "checks": {k: {"ok": c.ok, "detail": c.detail} for k, c in self.checks.items()},
        }


def verify_family_pair(n: int) -> FamilyVerification:
    """Check every computable claim about the pair K1(n), K2(n).

    (a) distinct Alexander polynomials; (b) formal semigroups match their
    closed forms; (c) both gap-function envelopes equal the 7-piece hull;
    (d) the Upsilon invariants coincide and are nonzero; (e) the Torres
    derivation matches the closed form, and for n <= BURAU_MAX_N the Burau
    derivation too; (f) neither formal semigroup is closed under addition.
    """
    knots = {which: FamilyKnot(which, n) for which in ("K1", "K2")}
    deltas = {which: alexander_closed_form(knot) for which, knot in knots.items()}
    d1, d2 = deltas.values()
    checks: dict[str, CheckResult] = {}
    # Each detail is built only for the outcome: (d1 - d2).min_exp raises when d1 == d2.
    ok = d1 != d2
    checks["alexander_distinct"] = CheckResult(
        ok, f"first differing coefficient at exponent {(d1 - d2).min_exp}" if ok
        else "closed forms coincide")

    semigroups = {which: FormalSemigroup.from_alexander(d) for which, d in deltas.items()}
    for which, got in semigroups.items():
        want = semigroup_closed_form(knots[which])
        ok = got == want
        checks[f"semigroup_{which}"] = CheckResult(
            ok, f"{got.genus} gaps match" if ok else "first gap mismatch: {}".format(next(
                (a for a, b in zip(got.gaps, want.gaps) if a != b),
                f"gap counts {got.genus} vs {want.genus}")))

    hull = hull_closed_form(n)
    envelopes = {which: hull_of(d) for which, d in deltas.items()}
    for which, env in envelopes.items():
        ok = env == hull
        checks[f"envelope_{which}"] = CheckResult(
            ok, "envelope equals closed-form hull" if ok
            else f"envelope vertices {env.vertices} != {hull.vertices}")

    u1, u2 = map(legendre_fenchel, envelopes.values())
    ok = u1 == u2 != PLFunction([(0, 0), (2, 0)])
    checks["upsilon_equal"] = CheckResult(
        ok, f"equal, nonzero; initial slope {u1.segment_slopes()[0]}" if ok
        else "Upsilon invariants differ" if u1 != u2 else "Upsilon is identically zero")

    routes = [("Torres", alexander_via_torres)]
    if n <= BURAU_MAX_N:
        routes.append(("Burau", alexander_via_burau))
    for route, derive in routes:
        for which, knot in knots.items():
            got = derive(knot)
            ok = got == deltas[which]
            checks[f"{route.lower()}_{which}"] = CheckResult(
                ok, f"{route} route matches closed form" if ok else f"{route} gave {got}")

    for which, sg in semigroups.items():
        closed, witness = sg.is_closed_under_addition()
        checks[f"not_semigroup_{which}"] = CheckResult(
            not closed, "semigroup is closed" if closed
            else f"witness {witness[0]} + {witness[1]} = {witness[0] + witness[1]} escapes")

    return FamilyVerification(n=n, checks=checks)


# -- catalog ----------------------------------------------------------------------


class CatalogEntry(Record):
    """A fixed knot with every representation known for it."""

    __slots__ = ("name", "alexander", "braid", "gaps", "upsilon")

    name: str
    alexander: IntLaurentPoly
    braid: braids.BraidWord | None
    gaps: tuple[int, ...] | None
    upsilon: PLFunction | None

    def __init__(self, name: str, alexander: IntLaurentPoly, braid: braids.BraidWord | None = None,
                 gaps: tuple[int, ...] | None = None, upsilon: PLFunction | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "alexander", alexander)
        object.__setattr__(self, "braid", braid)
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "upsilon", upsilon)


_CATALOG: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> None:
    _CATALOG[entry.name] = entry


_register(
    CatalogEntry(
        name="pretzel_237",
        alexander=IntLaurentPoly.from_pairs(
            [[0, 1], [1, -1], [3, 1], [4, -1], [5, 1], [6, -1], [7, 1], [9, -1], [10, 1]]
        ),
        gaps=(1, 2, 4, 6, 9),
        upsilon=PLFunction(
            [(0, 0), (Fraction(2, 3), Fraction(-10, 3)), (1, -4),
             (Fraction(4, 3), Fraction(-10, 3)), (2, 0)]
        ),
    )
)

_register(
    CatalogEntry(
        name="T(3,4)",
        alexander=IntLaurentPoly.from_pairs([[0, 1], [1, -1], [3, 1], [5, -1], [6, 1]]),
        braid=braids.torus_braid(3, 4),
        gaps=(1, 2, 5),
        upsilon=PLFunction(
            [(0, 0), (Fraction(2, 3), -2), (Fraction(4, 3), -2), (2, 0)]
        ),
    )
)

_register(
    CatalogEntry(
        name="T(3,5)",
        alexander=IntLaurentPoly.from_pairs(
            [[0, 1], [1, -1], [3, 1], [4, -1], [5, 1], [7, -1], [8, 1]]
        ),
        braid=braids.torus_braid(3, 5),
        gaps=(1, 2, 4, 7),
        upsilon=PLFunction(
            [(0, 0), (Fraction(2, 3), Fraction(-8, 3)), (1, -3),
             (Fraction(4, 3), Fraction(-8, 3)), (2, 0)]
        ),
    )
)

_register(
    CatalogEntry(
        name="t09847",
        alexander=IntLaurentPoly.from_pairs(
            [[0, 1], [1, -1], [4, 1], [5, -1], [7, 1], [9, -1], [10, 1], [13, -1], [14, 1]]
        ),
        braid=braids.named_braid("t09847"),
        gaps=(1, 2, 3, 5, 6, 9, 13),
    )
)

_register(
    CatalogEntry(
        name="v2871",
        alexander=IntLaurentPoly.from_pairs(
            [[0, 1], [1, -1], [4, 1], [5, -1], [7, 1], [8, -1], [9, 1],
             [11, -1], [12, 1], [15, -1], [16, 1]]
        ),
        braid=braids.named_braid("v2871"),
        gaps=(1, 2, 3, 5, 6, 8, 11, 15),
    )
)

# The alternative profile over the pretzel hull; realized by the (2,3)-cable
# of T(2,5), which is not an L-space knot, so no braid word is carried.
_register(
    CatalogEntry(
        name="cable_alt_237",
        alexander=IntLaurentPoly.from_pairs(
            [[0, 1], [1, -1], [3, 1], [5, -1], [7, 1], [9, -1], [10, 1]]
        ),
        gaps=(1, 2, 5, 6, 9),
        upsilon=PLFunction(
            [(0, 0), (Fraction(2, 3), Fraction(-10, 3)), (1, -4),
             (Fraction(4, 3), Fraction(-10, 3)), (2, 0)]
        ),
    )
)


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog_knot(name: str) -> CatalogEntry:
    """Fetch a catalog entry as stored; the tests run check_catalog_entry on every entry."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownName(
            f"no catalog knot named {name!r}; known: {', '.join(catalog_names())}"
        ) from None


def check_catalog_entry(entry: CatalogEntry) -> None:
    """Assert the stored gaps and Upsilon agree with the stored polynomial.

    The braid word is not closed here, since its Burau determinant would
    dominate the cost; the tests close every stored word.
    """
    if entry.gaps is not None:
        gaps = FormalSemigroup.from_alexander(entry.alexander).gaps
        if gaps != entry.gaps:
            raise AssertionError(f"{entry.name}: stored gaps {entry.gaps} != {gaps}")
    if entry.upsilon is not None and upsilon_of(entry.alexander) != entry.upsilon:
        raise AssertionError(f"{entry.name}: stored Upsilon disagrees with the pipeline")
