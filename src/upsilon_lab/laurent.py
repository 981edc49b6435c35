"""Exact integer Laurent polynomial arithmetic in one and three variables.

A univariate polynomial is stored sparsely as a mapping from integer
exponents to nonzero integer coefficients, so t^-1 is as natural as t.
Coefficients are Python ints (arbitrary precision).  Values are immutable
after construction and every operation is pure, so instances are safe to
share between threads.

The trivariate variant exists only to carry the multivariable polynomial of
a three-component link whose variables x, y, z are the meridians of the
three components; the single operation it needs is monomial substitution
x -> t^a, y -> t^b, z -> t^c.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction

from .errors import NonExactDivision


class IntLaurentPoly:
    """An integer Laurent polynomial in one variable t.

    >>> p = IntLaurentPoly({0: 1, 1: -1})
    >>> p * IntLaurentPoly({0: 1, 1: 1})
    IntLaurentPoly('1 - t^2')
    >>> (p * p)(2)
    Fraction(1, 1)
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        data: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            # Exactly int: a bool (or any other int subclass) is refused.
            if type(exp) is not int:
                raise TypeError(f"exponent {exp!r} is not an int")
            if type(coeff) is not int:
                raise TypeError(f"coefficient {coeff!r} is not an int")
            if exp in data:
                coeff += data[exp]
                if coeff:
                    data[exp] = coeff
                else:
                    del data[exp]
            elif coeff:
                data[exp] = coeff
        self._terms = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_terms(cls, terms: dict[int, int]) -> "IntLaurentPoly":
        """Wrap a dict of int exponents to nonzero int coefficients, unchecked.

        Only for terms this package has just computed itself; other input
        goes through IntLaurentPoly(...) or from_pairs, which validate every
        term.
        """
        result = cls.__new__(cls)
        result._terms = terms
        return result

    @classmethod
    def zero(cls) -> "IntLaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "IntLaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "IntLaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def t(cls) -> "IntLaurentPoly":
        return cls({1: 1})

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "IntLaurentPoly":
        """Build from JSON-style [[exponent, coefficient], ...] pairs.

        Entries must be ints: a float such as 2.7 raises TypeError here
        instead of being truncated.  Any iterable is read as pairs, a dict
        or a string too.
        """
        return cls(iter(pairs))

    def to_pairs(self) -> list[list[int]]:
        """JSON form: [exponent, coefficient] pairs sorted by exponent."""
        return [[e, self._terms[e]] for e in sorted(self._terms)]

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no minimum exponent")
        return min(self._terms)

    @property
    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no maximum exponent")
        return max(self._terms)

    @property
    def degree(self) -> int:
        """Top exponent; alias for max_exp."""
        return self.max_exp

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """Terms as (exponent, coefficient), sorted by exponent.

        The int keys are sorted, not the pairs: about a quarter of the cost.
        """
        terms = self._terms
        return ((e, terms[e]) for e in sorted(terms))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntLaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __repr__(self) -> str:
        return f"IntLaurentPoly({str(self)!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in sorted(self._terms.items()):
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                var = "t" if exp == 1 else f"t^{exp}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntLaurentPoly | int") -> "IntLaurentPoly":
        if isinstance(other, int):
            other = IntLaurentPoly({0: other})
        if not isinstance(other, IntLaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            new = out.get(exp, 0) + coeff
            if new:
                out[exp] = new
            elif exp in out:
                del out[exp]
        return IntLaurentPoly._from_terms(out)

    __radd__ = __add__

    def __neg__(self) -> "IntLaurentPoly":
        return IntLaurentPoly._from_terms({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "IntLaurentPoly | int") -> "IntLaurentPoly":
        if isinstance(other, int):
            other = IntLaurentPoly({0: other})
        if not isinstance(other, IntLaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "IntLaurentPoly":
        return IntLaurentPoly({0: other}) - self

    def __mul__(self, other: "IntLaurentPoly | int") -> "IntLaurentPoly":
        if isinstance(other, int):
            return IntLaurentPoly._from_terms(
                {e: c * other for e, c in self._terms.items()} if other else {}
            )
        if not isinstance(other, IntLaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                new = out.get(e, 0) + c1 * c2
                if new:
                    out[e] = new
                elif e in out:
                    del out[e]
        return IntLaurentPoly._from_terms(out)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "IntLaurentPoly":
        """Multiply by t^k."""
        return IntLaurentPoly._from_terms({e + k: c for e, c in self._terms.items()})

    def __call__(self, x: int | Fraction) -> Fraction:
        """Evaluate at a nonzero rational (or at 0 if no negative exponents)."""
        xf = Fraction(x)
        if xf == 0 and self._terms and self.min_exp < 0:
            raise ZeroDivisionError("polynomial has negative exponents; cannot evaluate at 0")
        return sum((c * xf**e for e, c in self._terms.items()), Fraction(0))

    # -- division ----------------------------------------------------------

    def exact_div(self, d: "IntLaurentPoly") -> "IntLaurentPoly":
        """Exact quotient q with q*d == self.

        Runs synthetic division from the lowest exponent up and raises
        NonExactDivision at the first position where the remainder cannot be
        cancelled; that exponent is recorded on the exception.  Each quotient
        step subtracts only the divisor's nonzero terms, so t^s - 1 costs two
        updates per step, not s + 1.
        """
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return IntLaurentPoly.zero()
        n_lo, n_hi = self.min_exp, self.max_exp
        d_lo, d_hi = d.min_exp, d.max_exp
        rem = [self._terms.get(e, 0) for e in range(n_lo, n_hi + 1)]
        div = [(e - d_lo, c) for e, c in d._terms.items()]
        d0 = d._terms[d_lo]
        width = d_hi - d_lo + 1
        q_offset = n_lo - d_lo
        quotient: dict[int, int] = {}
        for i, c in enumerate(rem):
            if not c:
                continue
            if i + width - 1 > len(rem) - 1:
                raise NonExactDivision(
                    f"nonzero remainder at exponent {n_lo + i}", exponent=n_lo + i
                )
            if c % d0:
                raise NonExactDivision(
                    f"coefficient {c} at exponent {n_lo + i} not divisible by {d0}",
                    exponent=n_lo + i,
                )
            f = c // d0
            quotient[q_offset + i] = f
            for j, dc in div:
                rem[i + j] -= f * dc
        return IntLaurentPoly._from_terms(quotient)

    # -- knot-theoretic normal forms ----------------------------------------

    def knot_normalized(self) -> "IntLaurentPoly":
        """Multiply by +-t^k so the minimum exponent is 0 and the constant
        term is positive.  Idempotent."""
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        shifted = self.shifted(-self.min_exp)
        return shifted if shifted.coeff(0) > 0 else -shifted

    def reversed(self) -> "IntLaurentPoly":
        """Substitute t -> t^-1."""
        return IntLaurentPoly._from_terms({-e: c for e, c in self._terms.items()})

    def unit_equal(self, other: "IntLaurentPoly") -> bool:
        """Equality up to units +-t^i, decided by comparing normal forms."""
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self.knot_normalized() == other.knot_normalized()

    def is_symmetric(self) -> bool:
        """True iff p(t^-1) equals p up to units +-t^i."""
        return self.unit_equal(self.reversed())


class TriLaurentPoly:
    """An integer Laurent polynomial in three variables x, y, z.

    Each monomial is a triple of int exponents and each coefficient an int:
    another type raises TypeError, a monomial of another length ValueError.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[tuple[int, int, int], int] | Iterable[tuple[tuple[int, int, int], int]] = (),
    ):
        data: dict[tuple[int, int, int], int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            key = tuple(mono)
            if len(key) != 3:
                raise ValueError(f"monomial {mono!r} does not have three exponents")
            # Exactly int, as in IntLaurentPoly: a bool, float or str is refused.
            for exp in key:
                if type(exp) is not int:
                    raise TypeError(f"exponent {exp!r} is not an int")
            if type(coeff) is not int:
                raise TypeError(f"coefficient {coeff!r} is not an int")
            if coeff:
                new = data.get(key, 0) + coeff
                if new:
                    data[key] = new
                elif key in data:
                    del data[key]
        self._terms = data

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TriLaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __repr__(self) -> str:
        return f"TriLaurentPoly({len(self._terms)} terms)"

    def substitute(self, e_x: int, e_y: int, e_z: int) -> IntLaurentPoly:
        """Substitute x -> t^e_x, y -> t^e_y, z -> t^e_z and collect."""
        out: dict[int, int] = {}
        for (i, j, k), coeff in self._terms.items():
            e = i * e_x + j * e_y + k * e_z
            new = out.get(e, 0) + coeff
            if new:
                out[e] = new
            elif e in out:
                del out[e]
        return IntLaurentPoly(out)


def determinant(rows: list[list[IntLaurentPoly]]) -> IntLaurentPoly:
    """Determinant of a square matrix over the Laurent ring.

    Fraction-free Bareiss elimination: every intermediate division is exact
    by the Sylvester identity, so no rational function field is needed.
    """
    n = len(rows)
    if n == 0:
        return IntLaurentPoly.one()
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = IntLaurentPoly.one()
    for k in range(n - 1):
        if m[k][k].is_zero:
            pivot_row = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if pivot_row is None:
                return IntLaurentPoly.zero()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = IntLaurentPoly.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det
