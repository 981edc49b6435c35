"""The arithmetic L-space test for small Seifert fibered spaces.

M(e0; r1, r2, r3) denotes e0-surgery on the unknot with three meridians
carrying (-1/r_i)-surgeries.  Shifting a ratio by 1 against e0 and reversing
orientation (negate everything) preserve the manifold.  With the ratios
normalized into [0, 1), the criterion implemented here reads: for
M(-1; r1 >= r2 >= r3 > 0), if no coprime pair m > a > 0 has a/m > r1,
(m-a)/m > r2 and 1/m > r3, the manifold (either orientation) is an L-space.
Only this sufficient direction is implemented: an obstruction pair or an
unusable normal form yields Undecided, never a negative verdict.

The search has a closed form.  An admissible a/m lies in (r1, 1 - r2), and
the fraction of least denominator there is the simplest one, p/q, unique at
that denominator and in lowest terms (Graham-Knuth-Patashnik, Concrete
Mathematics 4.5).  So a pair exists exactly when r1 < 1 - r2 and 1/q > r3,
and (q, p) is the least.  A Stern-Brocot descent finds p/q with one divmod
per continued-fraction term, jumping each run of same-side steps at once:
Euclid's cost on r1 and 1 - r2, whatever r3 is.

An LSpace certificate holds m_max (the largest m with 1/m > r3) and either
simplest = null, as r1 >= 1 - r2, or simplest = "p/q" with its Stern-Brocot
parents a/b < p/q < c/d as neighbours.  Check in O(1) that bc - ad = 1,
a/b <= r1, c/d >= 1 - r2 and b + d > m_max: every fraction strictly between
a/b and c/d has denominator at least b + d, so no m <= m_max admits an a.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadOrdering
from .rationals import format_rational


class SeifertForm:
    """A small Seifert presentation M(e0; r1, r2, r3); ratios auto-reduced.

    Immutable; compares, hashes and prints by (e0, ratios).
    """

    __slots__ = ("e0", "ratios")

    e0: int
    ratios: tuple[Fraction, Fraction, Fraction]

    def __init__(self, e0: int, ratios):
        object.__setattr__(self, "e0", int(e0))
        rs = tuple(Fraction(r) for r in ratios)
        if len(rs) != 3:
            raise ValueError("exactly three ratios required")
        object.__setattr__(self, "ratios", rs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.e0, self.ratios) == (other.e0, other.ratios)
        return NotImplemented

    def __hash__(self):
        return hash((self.e0, self.ratios))

    def __repr__(self):
        return f"SeifertForm(e0={self.e0!r}, ratios={self.ratios!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return (SeifertForm, (self.e0, self.ratios))

    def __str__(self) -> str:
        body = ", ".join(format_rational(r) for r in self.ratios)
        return f"M({self.e0}; {body})"

    def to_json(self) -> dict:
        return {"e0": self.e0, "ratios": [format_rational(r) for r in self.ratios]}


def negate(s: SeifertForm) -> SeifertForm:
    """Orientation reversal: -M(e0; r) = M(-e0; -r)."""
    return SeifertForm(-s.e0, tuple(-r for r in s.ratios))


def normalize(s: SeifertForm) -> SeifertForm:
    """Push each ratio into [0, 1), absorbing integer shifts into e0.

    r -> r - floor(r) costs e0 -> e0 + floor(r) per ratio.  Zero ratios are
    dropped to the end, the rest sorted descending.  Idempotent.
    """
    e0 = s.e0
    fracs = []
    for r in s.ratios:
        shift = r.numerator // r.denominator
        e0 += shift
        fracs.append(r - shift)
    nonzero = sorted((r for r in fracs if r != 0), reverse=True)
    zeros = [Fraction(0)] * (3 - len(nonzero))
    return SeifertForm(e0, tuple(nonzero + zeros))


def _simplest_parents(lo: Fraction, hi: Fraction) -> tuple[int, int, int, int]:
    """Parents a/b < c/d of the simplest (a+c)/(b+d) in (lo, hi), 0 < lo < hi < 1.

    >>> _simplest_parents(Fraction(1, 3), Fraction(1, 2))
    (1, 3, 1, 2)
    """
    # The first term is 0 as lo < 1: start from its convergents and (1/hi, 1/lo).
    p0, q0, p1, q1 = 1, 0, 0, 1
    xn, xd, yn, yd = hi.denominator, hi.numerator, lo.denominator, lo.numerator
    while True:
        t, r = divmod(xn, xd)
        if (t + 1) * yd < yn:  # t + 1 lies in the interval: the last term
            a, b, c, d = t * p1 + p0, t * q1 + q0, p1, q1
            return (a, b, c, d) if a * d < b * c else (c, d, a, b)
        p0, q0, p1, q1 = p1, q1, t * p1 + p0, t * q1 + q0
        # (x, y) -> (1/(y - t), 1/(x - t)); yd = 0 stands for infinity.
        xn, xd, yn, yd = yd, yn - t * yd, xd, r


def _search(r1: Fraction, r2: Fraction, r3: Fraction) -> tuple[tuple | None, dict | None]:
    """The least obstruction pair, or None and the certificate of its absence."""
    if not (1 >= r1 >= r2 >= r3 >= 0):
        raise BadOrdering(f"need 1 >= r1 >= r2 >= r3 >= 0, got {r1}, {r2}, {r3}")
    if r3 == 0:
        raise BadOrdering("r3 = 0 leaves the search unbounded; reject upstream")
    m_max = (r3.denominator - 1) // r3.numerator  # the largest m with 1/m > r3
    if r1 >= 1 - r2:
        return None, {"m_max": m_max, "simplest": None, "neighbours": None}
    a, b, c, d = _simplest_parents(r1, 1 - r2)
    if b + d <= m_max:
        return (b + d, a + c), None
    simplest, left, right = (format_rational(Fraction(*f)) for f in ((a + c, b + d), (a, b), (c, d)))
    return None, {"m_max": m_max, "simplest": simplest, "neighbours": [left, right]}


def coprime_obstruction(r1: Fraction, r2: Fraction, r3: Fraction) -> tuple[int, int] | None:
    """The least coprime (m, a), m > a > 0, with a/m > r1, (m-a)/m > r2, 1/m > r3.

    Needs 1 >= r1 >= r2 >= r3 > 0.  It is (q, p) if 1/q > r3, else None.
    """
    return _search(r1, r2, r3)[0]


class LSpaceVerdict:
    """Either a certified LSpace or Undecided with the blocking reason.

    Immutable; compares and prints by all three fields.  hash() raises
    TypeError when the certificate is a dict.
    """

    __slots__ = ("is_lspace", "detail", "certificate")

    is_lspace: bool
    detail: str
    certificate: dict | None

    def __init__(self, is_lspace: bool, detail: str, certificate: dict | None = None):
        object.__setattr__(self, "is_lspace", is_lspace)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "certificate", certificate)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.is_lspace, self.detail, self.certificate)
                    == (other.is_lspace, other.detail, other.certificate))
        return NotImplemented

    def __hash__(self):
        return hash((self.is_lspace, self.detail, self.certificate))

    def __repr__(self):
        return (f"LSpaceVerdict(is_lspace={self.is_lspace!r}, detail={self.detail!r}, "
                f"certificate={self.certificate!r})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return (LSpaceVerdict, (self.is_lspace, self.detail, self.certificate))

    def to_json(self) -> dict:
        out = {"verdict": "LSpace" if self.is_lspace else "Undecided", "detail": self.detail}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def decide(s: SeifertForm) -> LSpaceVerdict:
    """LSpace if M or -M normalizes to (-1; r1 >= r2 >= r3 > 0) with no pair, else Undecided."""
    blockers = []
    for side, form in (("M", s), ("-M", negate(s))):
        ns = normalize(form)
        if ns.e0 != -1:
            blockers.append(f"{side} normalizes to e0 = {ns.e0}, criterion needs -1")
            continue
        r1, r2, r3 = ns.ratios
        if r3 == 0:
            blockers.append(f"{side} has a zero ratio after normalization")
            continue
        pair, fields = _search(r1, r2, r3)
        if pair is None:
            certificate = {"side": side, "normalized": ns.to_json(), **fields}
            return LSpaceVerdict(True, f"empty coprime-pair search for {side} = {ns}", certificate)
        blockers.append(f"{side} = {ns} admits obstruction pair (m, a) = {pair}")
    return LSpaceVerdict(False, "; ".join(blockers))
