"""Upsilon of torus knots against the Feller-Krcatovich recursion.

The oracle builds no semigroup, gap function or hull.  For 1 < p < q coprime
with q = kp + r,

    Upsilon_T(p,q) = k * Upsilon_T(p,p+1) + Upsilon_T(r,p),   Upsilon_T(1,.) = 0,

and on [2i/p, 2(i+1)/p], Upsilon_T(p,p+1)(t) = -i(i+1) - p(p-1-2i)t/2
(Feller-Krcatovich, "On cobordisms between knots, braid index, and the
Upsilon-invariant", Math. Ann. 2017).  So a fault shared by every stage of
the pipeline (gap runs, corners, hull, transform) cannot pass here.
"""

import math
from fractions import Fraction

import pytest

from upsilon_lab.invariants import upsilon_of
from upsilon_lab.piecewise import PLFunction
from upsilon_lab.semigroups import torus_semigroup

# Every coprime T(p, q) with 2 <= p < q up to the top of the bench's genus ladder: 2,053 knots.
GENUS_BOUND = 500


def staircase_at(p: int, t: Fraction) -> Fraction:
    """Upsilon of T(p, p+1) at t in [0, 2], on the segment [2i/p, 2(i+1)/p] holding t."""
    i = min(math.floor(t * p / 2), p - 1)
    return -i * (i + 1) - p * (p - 1 - 2 * i) * t / 2


def feller_krcatovich(p: int, q: int) -> PLFunction:
    """Upsilon of T(p, q) by the recursion: a sum of staircases, one per Euclid step."""
    terms = []  # (k, p): k copies of Upsilon_T(p,p+1)
    while p > 1:
        k, r = divmod(q, p)
        terms.append((k, p))
        p, q = r, p
    ts = sorted({Fraction(2 * i, s) for _, s in terms for i in range(s + 1)})
    return PLFunction([(t, sum(k * staircase_at(s, t) for k, s in terms)) for t in ts])


def coprime_pairs(genus_bound: int):
    for p in range(2, genus_bound + 2):
        q = p + 1
        while (p - 1) * (q - 1) // 2 <= genus_bound:
            if math.gcd(p, q) == 1:
                yield p, q
            q += 1


def test_staircase_matches_its_known_values():
    # T(2,3): Upsilon(t) = -t on [0, 1]; T(3,4) = -2 on [2/3, 4/3].
    assert feller_krcatovich(2, 3) == PLFunction([(0, 0), (1, -1), (2, 0)])
    assert feller_krcatovich(3, 4) == PLFunction(
        [(0, 0), (Fraction(2, 3), -2), (Fraction(4, 3), -2), (2, 0)]
    )


def test_every_coprime_torus_knot_up_to_the_genus_bound():
    pairs = list(coprime_pairs(GENUS_BOUND))
    assert len(pairs) == 2053
    for p, q in pairs:
        assert upsilon_of(torus_semigroup(p, q).to_alexander()) == feller_krcatovich(p, q), (p, q)


@pytest.mark.parametrize("p,q", [(3, 100001), (7, 33331), (11, 20001)])
def test_near_the_genus_limit(p, q):
    assert upsilon_of(torus_semigroup(p, q).to_alexander()) == feller_krcatovich(p, q)
