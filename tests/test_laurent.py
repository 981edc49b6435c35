"""Laurent polynomial arithmetic against hand-expanded and oracle values."""

import random

import pytest

from upsilon_lab.errors import NonExactDivision
from upsilon_lab.family import TRI_ALEXANDER_K1
from upsilon_lab.laurent import IntLaurentPoly, determinant

P = IntLaurentPoly.from_pairs


def poly(spec: dict) -> IntLaurentPoly:
    return IntLaurentPoly(spec)


def random_poly(rng: random.Random, max_terms=6, exp_range=(-8, 8), coeff_range=(-9, 9)):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        c = rng.randint(*coeff_range)
        if c:
            terms[rng.randint(*exp_range)] = c
    return IntLaurentPoly(terms)


# The five geometric blocks of the first family polynomial, written out at n=1.
A1_N1 = poly({20: 1, 19: -1, 24: 1, 23: -1})
A2_N1 = poly({17: 1, 16: -1})
A3_N1 = poly({10: 1, 8: -1, 14: 1, 12: -1})
A4_N1 = poly({7: 1, 5: -1})
A5_N1 = poly({4: 1, 1: -1})

# Their total plus 1: the full degree-24 polynomial, collected by hand.
K1_N1 = P(
    [[0, 1], [1, -1], [4, 1], [5, -1], [7, 1], [8, -1], [10, 1], [12, -1],
     [14, 1], [16, -1], [17, 1], [19, -1], [20, 1], [23, -1], [24, 1]]
)

# Same instantiation for the second family member.
K2_N1 = P(
    [[0, 1], [1, -1], [4, 1], [5, -1], [7, 1], [8, -1], [10, 1], [11, -1],
     [12, 1], [13, -1], [14, 1], [16, -1], [17, 1], [19, -1], [20, 1], [23, -1], [24, 1]]
)

PRETZEL = P([[0, 1], [1, -1], [3, 1], [4, -1], [5, 1], [6, -1], [7, 1], [9, -1], [10, 1]])

# TRI_ALEXANDER_K1 at x -> t, y -> t^4, z -> t^6, substituted term by term.
TRI_K1_SUB_N1 = P(
    [[0, -1], [3, 1], [7, -1], [8, 1], [11, -1], [13, 1], [17, -1], [19, 1],
     [22, -1], [23, 1], [27, -1], [30, 1]]
)


class TestAdd:
    def test_telescoping(self):
        assert poly({0: 1, 1: -1}) + poly({1: 1, 2: -1}) == poly({0: 1, 2: -1})

    def test_zero_identity(self):
        p = poly({-2: 3, 5: -7})
        assert p + IntLaurentPoly.zero() == p

    def test_family_blocks_sum_to_closed_form(self):
        total = A1_N1 + A2_N1 + A3_N1 + A4_N1 + A5_N1 + 1
        assert total == K1_N1


class TestMul:
    def test_difference_of_squares(self):
        assert poly({0: 1, 1: -1}) * poly({0: 1, 1: 1}) == poly({0: 1, 2: -1})

    def test_one_identity(self):
        p = poly({-1: 2, 3: 5})
        assert p * IntLaurentPoly.one() == p

    def test_cyclotomic_times_block_two(self):
        # (t^3+t^2+t+1) * (t^{8n+9} - t^{8n+8}) telescopes to t^{8n+12} - t^{8n+8};
        # at n = 2 that is t^28 - t^24.
        a2_n2 = poly({25: 1, 24: -1})
        quartic = poly({3: 1, 2: 1, 1: 1, 0: 1})
        assert quartic * a2_n2 == poly({28: 1, 24: -1})


def dense_exact_div(p: IntLaurentPoly, d: IntLaurentPoly) -> IntLaurentPoly:
    """Synthetic division stepping over every exponent of the divisor, zeros included.

    Raises NonExactDivision with the same message and exponent as
    IntLaurentPoly.exact_div, on either of its two routes.
    """
    if p.is_zero:
        return p
    n_lo, d_lo = p.min_exp, d.min_exp
    rem = [p.coeff(e) for e in range(n_lo, p.max_exp + 1)]
    div = [d.coeff(e) for e in range(d_lo, d.max_exp + 1)]
    quotient = {}
    for i, c in enumerate(rem):
        if not c:
            continue
        if i + len(div) > len(rem):
            raise NonExactDivision(f"nonzero remainder at exponent {n_lo + i}", exponent=n_lo + i)
        if c % div[0]:
            raise NonExactDivision(f"coefficient {c} at exponent {n_lo + i} not divisible by {div[0]}",
                                   exponent=n_lo + i)
        quotient[n_lo - d_lo + i] = c // div[0]
        for j, dc in enumerate(div):
            rem[i + j] -= c // div[0] * dc
    return IntLaurentPoly(quotient)


# Divisors for both routes of exact_div: monomials (a shift), and for synthetic
# division t^s - 1 (s = 1 has no interior zero) and other shapes, such as the
# Bareiss pivot 1 - t^168 + t^169 from the K1(40) Burau matrix.
SPARSE_DIVISORS = [
    poly({0: 3}),
    poly({5: -1}),
    poly({-3: 2}),
    *(IntLaurentPoly.monomial(s) - 1 for s in (1, 2, 4, 7, 40)),
    poly({0: 1, 168: -1, 169: 1}),
    poly({-5: 3, 2: -2, 30: 1}),
]


class TestExactDiv:
    @pytest.mark.parametrize("d", SPARSE_DIVISORS, ids=str)
    def test_sparse_divisor_matches_dense(self, d):
        rng = random.Random(str(d))
        for _ in range(20):
            q = random_poly(rng, max_terms=8, exp_range=(-50, 200))
            if q.is_zero:
                continue
            p = q * d
            assert p.exact_div(d) == dense_exact_div(p, d) == q

    @pytest.mark.parametrize("d", SPARSE_DIVISORS, ids=str)
    def test_sparse_divisor_nonexact_exponent_matches_dense(self, d):
        rng = random.Random(str(d))
        for _ in range(20):
            p = random_poly(rng, max_terms=8, exp_range=(-50, 400)) * d + random_poly(rng, 3, (-60, 450))
            try:
                expected = dense_exact_div(p, d)
            except NonExactDivision as dense_err:
                with pytest.raises(NonExactDivision) as err:
                    p.exact_div(d)
                assert (str(err.value), err.value.exponent) == (str(dense_err), dense_err.exponent)
            else:
                assert p.exact_div(d) == expected

    def test_monomial_reports_the_lowest_nondivisible_term(self):
        # The dict's first key, 5, divides; of 4*t^2 and 5, the lower, 5 at t^0, is reported.
        p = IntLaurentPoly({5: 3, 2: 4, 0: 5, -1: 6})
        d = poly({-2: 3})
        with pytest.raises(NonExactDivision) as dense_err:
            dense_exact_div(p, d)
        with pytest.raises(NonExactDivision) as err:
            p.exact_div(d)
        assert str(err.value) == str(dense_err.value) == "coefficient 5 at exponent 0 not divisible by 3"
        assert err.value.exponent == dense_err.value.exponent == 0

    @pytest.mark.parametrize("p", [poly({0: 1, 1: 2}), poly({-3: 4}), poly({-2: 1, 2: -1})], ids=str)
    def test_twist_denominator_longer_than_the_dividend(self, p):
        # t^7 - 1 spans more exponents than the dividend: its lowest term is the remainder.
        d = IntLaurentPoly.monomial(7) - 1
        with pytest.raises(NonExactDivision) as dense_err:
            dense_exact_div(p, d)
        with pytest.raises(NonExactDivision) as err:
            p.exact_div(d)
        assert str(err.value) == str(dense_err.value) == f"nonzero remainder at exponent {p.min_exp}"
        assert err.value.exponent == dense_err.value.exponent == p.min_exp

    def test_nonexact_past_the_divisor_reach(self):
        # (t^3 - 1) + t^5: the quotient term 1 leaves t^5, too high for t^3 - 1 to cancel.
        with pytest.raises(NonExactDivision, match="nonzero remainder") as err:
            poly({0: -1, 3: 1, 5: 1}).exact_div(poly({0: -1, 3: 1}))
        assert err.value.exponent == 5

    def test_nonexact_coefficient_with_interior_zeros(self):
        # 2 + t + t^20 over 2 - t^10: after the quotient term 1, t has odd coefficient.
        with pytest.raises(NonExactDivision, match="not divisible by 2") as err:
            poly({0: 2, 1: 1, 20: 1}).exact_div(poly({0: 2, 10: -1}))
        assert err.value.exponent == 1


    def test_linear(self):
        assert poly({0: 1, 2: -1}).exact_div(poly({0: 1, 1: -1})) == poly({0: 1, 1: 1})

    def test_cubic(self):
        assert poly({0: 1, 3: 1}).exact_div(poly({0: 1, 1: 1})) == poly({0: 1, 1: -1, 2: 1})

    def test_torres_collapse_at_n1(self):
        t = IntLaurentPoly.t()
        numerator = TRI_K1_SUB_N1 * (t - 1)
        denominator = (IntLaurentPoly.monomial(4) - 1) * (IntLaurentPoly.monomial(3) - 1)
        assert numerator.exact_div(denominator) == K1_N1

    def test_remainder_reports_exponent(self):
        with pytest.raises(NonExactDivision) as err:
            poly({0: 1, 1: 1}).exact_div(poly({0: 2}))
        assert err.value.exponent == 0

    def test_nonexact_tail(self):
        with pytest.raises(NonExactDivision):
            poly({0: 1, 1: 1, 5: 3}).exact_div(poly({0: 1, 1: 1}))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            poly({0: 1}).exact_div(IntLaurentPoly.zero())

    def test_laurent_offsets(self):
        p = poly({-3: 2, -1: -2})
        d = poly({-2: 2})
        assert p.exact_div(d) == poly({-1: 1, 1: -1})


class TestSubstitute:
    # The Torres route substitutes through the pairs constructor, which
    # collects repeated exponents and drops the ones that cancel.
    def test_single_monomial(self):
        assert IntLaurentPoly([(6, 1), (6, 2), (2, 0), (6, -2)]) == poly({6: 1})

    def test_link_polynomial_at_n1(self):
        collapsed = IntLaurentPoly((i + 4 * j + 6 * k, c) for (i, j, k), c in TRI_ALEXANDER_K1)
        assert collapsed == TRI_K1_SUB_N1
        assert len(collapsed) == 12

    def test_all_zero_exponents_total_coefficients(self):
        assert IntLaurentPoly([(0, 2), (0, 3)]) == poly({0: 5})
        assert IntLaurentPoly([(0, 2), (0, -2)]).is_zero
        assert IntLaurentPoly([(0, 2), (0, -2), (0, 4)]) == poly({0: 4})


class TestNormalize:
    def test_negative_unit(self):
        assert poly({-1: -1, 0: 1}).knot_normalized() == poly({0: 1, 1: -1})

    def test_shift_and_sign(self):
        assert poly({2: 1, 3: -1}).knot_normalized() == poly({0: 1, 1: -1})

    def test_idempotent_and_symmetry_preserving(self):
        rng = random.Random(11)
        for _ in range(200):
            p = random_poly(rng)
            if p.is_zero:
                continue
            q = p.knot_normalized()
            assert q.knot_normalized() == q
            assert q.min_exp == 0 and q.coeff(0) > 0
            assert p.is_symmetric() == q.is_symmetric()


class TestSymmetry:
    def test_pretzel_symmetric(self):
        assert PRETZEL.is_symmetric()

    def test_asymmetric(self):
        assert not poly({0: 1, 1: -1, 3: 1}).is_symmetric()

    def test_constant(self):
        assert IntLaurentPoly.one().is_symmetric()


class TestFromPairs:
    def test_int_pairs(self):
        assert P([[0, 1], [1, -1], [2, 1]]) == poly({0: 1, 1: -1, 2: 1})

    @pytest.mark.parametrize("pairs", [
        [[0.9, 1], [1, -1], [2.7, 1]],
        [[0, 1], [1, -1.0], [2, 1]],
        [[0, 1.0]],
        [[0, True]],
    ])
    def test_non_int_entries_rejected(self, pairs):
        # int() used to truncate: the first case read as 1 - t + t^2.
        with pytest.raises(TypeError):
            P(pairs)

    def test_int_subclass_entries_rejected(self):
        # Entries must be exactly int, as JSON integers are; a subclass is refused like bool.
        class Integer(int):
            pass

        with pytest.raises(TypeError, match="exponent 1 is not an int"):
            IntLaurentPoly({0: 1, Integer(1): -1, 2: 1})
        with pytest.raises(TypeError, match="coefficient 1 is not an int"):
            P([[0, Integer(1)]])


class TestRingProperties:
    def test_algebraic_identities(self):
        rng = random.Random(5)
        for _ in range(150):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert p + q == q + p
            assert p * q == q * p
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    def test_mul_then_exact_div_roundtrip(self):
        rng = random.Random(6)
        for _ in range(150):
            p = random_poly(rng)
            d = random_poly(rng)
            if d.is_zero:
                continue
            assert (p * d).exact_div(d) == p


class TestDeterminant:
    @staticmethod
    def cofactor_det(rows):
        n = len(rows)
        if n == 0:
            return IntLaurentPoly.one()
        if n == 1:
            return rows[0][0]
        total = IntLaurentPoly.zero()
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = rows[0][j] * TestDeterminant.cofactor_det(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    def test_matches_cofactor_expansion(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(1, 4)
            rows = [
                [random_poly(rng, max_terms=2, exp_range=(-2, 2), coeff_range=(-3, 3))
                 for _ in range(n)]
                for _ in range(n)
            ]
            assert determinant(rows) == self.cofactor_det(rows)

    def test_sparse_matrices_with_zero_pivots(self):
        # Entries are zero about half the time and the first pivot always, so
        # rows are swapped, at the first step and after elimination.
        rng = random.Random(32)
        swapped = 0
        for _ in range(40):
            rows = [[random_poly(rng, max_terms=2, exp_range=(-2, 2), coeff_range=(-2, 2))
                     if rng.random() < 0.5 else IntLaurentPoly.zero() for _ in range(5)]
                    for _ in range(5)]
            rows[0][0] = IntLaurentPoly.zero()
            swapped += any(not r[0].is_zero for r in rows[1:])
            before = [[dict(p._terms) for p in r] for r in rows]
            assert determinant(rows) == self.cofactor_det(rows)
            assert [[p._terms for p in r] for r in rows] == before
        assert swapped >= 20

    def test_singular(self):
        one = IntLaurentPoly.one()
        assert determinant([[one, one], [one, one]]) == IntLaurentPoly.zero()

    def test_identity(self):
        one, zero = IntLaurentPoly.one(), IntLaurentPoly.zero()
        assert determinant([[one, zero], [zero, one]]) == one

    def test_first_step_does_not_divide(self, monkeypatch):
        # Bareiss divides step k by the pivot of step k - 1, which is 1 at
        # k = 0: a 3 x 3 determinant needs only the one division of step 1.
        calls = []
        exact_div = IntLaurentPoly.exact_div
        monkeypatch.setattr(IntLaurentPoly, "exact_div",
                            lambda self, d: calls.append(d) or exact_div(self, d))
        rows = [[P([[0, 2], [1, -1]]), P([[1, 1]]), P([[-1, 3]])],
                [P([[0, 1]]), P([[2, -1], [0, 1]]), P([[1, 2]])],
                [P([[-1, 1]]), P([[0, 4]]), P([[3, 1], [0, -1]])]]
        assert determinant(rows) == self.cofactor_det(rows)
        assert len(calls) == 1 and calls[0] == rows[0][0]


class TestHash:
    @pytest.mark.parametrize("c", [0, 1, -1, 5])
    def test_constant_hashes_as_its_int(self, c):
        constant = IntLaurentPoly({0: c})
        assert constant == c and hash(constant) == hash(c)

    def test_sets_and_dicts_mix_constants_with_ints(self):
        assert {IntLaurentPoly.zero(), 0} == {0}
        assert {IntLaurentPoly.one(), 1, -IntLaurentPoly.one(), -1} == {1, -1}
        assert {IntLaurentPoly({0: 5}): 1}.get(5) == 1
        assert {5: 1}.get(IntLaurentPoly({0: 5})) == 1
        # A non-constant polynomial is not an int, so it keeps its own member.
        assert len({IntLaurentPoly.t(), 1, IntLaurentPoly({1: 1})}) == 2

    def test_equal_polynomials_hash_equal(self):
        assert hash(P([[2, 1], [-1, -3]])) == hash(IntLaurentPoly({-1: -3, 2: 1}))
