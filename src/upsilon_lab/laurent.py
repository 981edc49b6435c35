"""Exact integer Laurent polynomial arithmetic in one variable.

A polynomial is stored sparsely as a mapping from integer exponents to
nonzero integer coefficients, so t^-1 is as natural as t.  Coefficients are
Python ints (arbitrary precision).  Values are immutable after construction
and every operation is pure, so instances are safe to share between threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from itertools import repeat

from .errors import NonExactDivision


class IntLaurentPoly:
    """An integer Laurent polynomial in one variable t.

    Not a records.Record: a constant equals its int, so == and hash are its own.

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
        # A constant equals its int (__eq__), so it hashes as that int.
        terms = self._terms
        if not terms or (len(terms) == 1 and 0 in terms):
            return hash(terms.get(0, 0))
        return hash(tuple(sorted(terms.items())))

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

        There are two routes, and both raise the same NonExactDivision,
        message and exponent, as synthetic division from the lowest exponent
        up: at the first position where the remainder cannot be cancelled.

        - A monomial c*t^k is a shift of every term by -k, each coefficient
          checked for divisibility by c.
        - Any other divisor: synthetic division over a dense remainder list,
          each quotient step subtracting only the divisor's nonzero terms.
        """
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return IntLaurentPoly.zero()
        terms, div = self._terms, d._terms
        if len(div) == 1:
            ((k, d0),) = div.items()
            bad = [e for e, c in terms.items() if c % d0]
            if bad:
                e = min(bad)
                raise NonExactDivision(
                    f"coefficient {terms[e]} at exponent {e} not divisible by {d0}", exponent=e
                )
            return IntLaurentPoly._from_terms({e - k: c // d0 for e, c in terms.items()})
        n_lo, n_hi = min(terms), max(terms)
        d_lo, d_hi = min(div), max(div)
        rem = list(map(terms.get, range(n_lo, n_hi + 1), repeat(0)))
        q_offset = n_lo - d_lo
        div_steps = [(e - d_lo, c) for e, c in div.items()]
        d0 = div[d_lo]
        width = d_hi - d_lo + 1
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
            for j, dc in div_steps:
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


def determinant(rows: list[list[IntLaurentPoly]]) -> IntLaurentPoly:
    """Determinant of a square matrix over the Laurent ring.

    Fraction-free Bareiss elimination: every intermediate division is exact
    by the Sylvester identity, so no rational function field is needed.  The
    elimination runs on the entries' term dicts (see _bareiss); the input
    polynomials are not changed.
    """
    m = [[p._terms for p in row] for row in rows]
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix is not square")
    return IntLaurentPoly._from_terms(_bareiss(m))


def _bareiss(m: list[list[dict[int, int]]]) -> dict[int, int]:
    """Determinant of a square matrix of term dicts, as a term dict.

    Rows of m are swapped and entries replaced, but no dict in it is changed.
    Step k forms each entry m[i][j]*m[k][k] - m[i][k]*m[k][j] in one dict,
    drops its zero terms and divides it by the pivot of step k - 1 through
    IntLaurentPoly.exact_div; the first step's divisor is 1, so that step
    does not divide.
    """
    n = len(m)
    if n == 0:
        return {0: 1}
    negate = False
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            below = next((i for i in range(k + 1, n) if m[i][k]), None)
            if below is None:
                return {}
            m[k], m[below] = m[below], m[k]
            negate = not negate
        pivot_row = m[k]
        pivot = pivot_row[k].items()
        for row in m[k + 1 :]:
            lead = row[k].items()
            for j in range(k + 1, n):
                entry: dict[int, int] = {}
                for e1, c1 in row[j].items():
                    for e2, c2 in pivot:
                        e = e1 + e2
                        entry[e] = entry.get(e, 0) + c1 * c2
                for e1, c1 in lead:
                    for e2, c2 in pivot_row[j].items():
                        e = e1 + e2
                        entry[e] = entry.get(e, 0) - c1 * c2
                entry = {e: c for e, c in entry.items() if c}
                if prev is not None and entry:
                    entry = IntLaurentPoly._from_terms(entry).exact_div(prev)._terms
                row[j] = entry
        prev = IntLaurentPoly._from_terms(pivot_row[k])
    det = m[n - 1][n - 1]
    return {e: -c for e, c in det.items()} if negate else det
