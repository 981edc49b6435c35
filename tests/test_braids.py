"""Braid words and the Burau-determinant Alexander oracle."""

import enum
import itertools
import random

import pytest

from upsilon_lab.braids import (
    MAX_STRANDS,
    MAX_TWIST,
    BraidWord,
    family_braid,
    named_braid,
    torus_braid,
)
from upsilon_lab.errors import NotAKnot, TooManyStrands, UnknownName
from upsilon_lab.family import FamilyKnot, alexander_closed_form
from upsilon_lab.laurent import IntLaurentPoly, determinant

from test_laurent import K1_N1, K2_N1, dense_exact_div

P = IntLaurentPoly.from_pairs

T09847_DELTA = P([[0, 1], [1, -1], [4, 1], [5, -1], [7, 1], [9, -1], [10, 1], [13, -1], [14, 1]])
V2871_DELTA = P(
    [[0, 1], [1, -1], [4, 1], [5, -1], [7, 1], [8, -1], [9, 1], [11, -1],
     [12, 1], [15, -1], [16, 1]]
)


def positive_family_word(which: str, n: int) -> BraidWord:
    """The family word with the single inverse letter cancelled away.

    K1's sigma_2^{-1} cancels against the first letter of the (sigma_2
    sigma_3)^6 tail; K2's sigma_3^{-1} cancels against the last letter of
    the twist region.
    """
    prefix = (2, 1, 3, 2)
    twist = (1, 2, 3) * (4 * n)
    if which == "K1":
        letters = prefix + twist + (3,) + (2, 3) * 5
    else:
        letters = prefix + twist[:-1] + (2, 3) * 6
    return BraidWord(4, letters)


def stabilized(word: BraidWord) -> BraidWord:
    """Embed into B_{s+1} and append sigma_s (Markov stabilization)."""
    return BraidWord(word.strands + 1, word.letters + (word.strands,))


def positive_braid_genus(word: BraidWord) -> int:
    """Seifert genus (c - s + 1)/2 of a positive word closing to a knot.

    The Bennequin surface of such a closure realizes the genus.
    """
    assert all(x > 0 for x in word.letters) and word.is_knot_closure(), word
    return (len(word.letters) - word.strands + 1) // 2


def inverse(word: BraidWord) -> BraidWord:
    return BraidWord(word.strands, [-x for x in reversed(word.letters)])


class TestValidation:
    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            BraidWord(3, [3])
        with pytest.raises(ValueError):
            BraidWord(2, [0])

    def test_strand_minimum(self):
        with pytest.raises(ValueError):
            BraidWord(1, [])

    def test_family_member_name(self):
        with pytest.raises(UnknownName, match="^family member must be K1 or K2, got 'K3'$"):
            family_braid("K3", 1)

    @pytest.mark.parametrize("p, q", [(1, 3), (3, 0)])
    def test_torus_parameters(self, p, q):
        with pytest.raises(ValueError, match="^need p >= 2 and q >= 1$"):
            torus_braid(p, q)

    @pytest.mark.parametrize(
        "strands, letters",
        [(4.9, [2, 1, 3, 2, 1]), (4.0, [1, 2, 3]), (4, [2.9, 1.2, 3.5, 2.1, 1]),
         (2, [True, True, True]), (True, [1]), (float("inf"), [1]), (4, [float("inf")]),
         (4, ["2"])],
    )
    def test_whole_numbers_only(self, strands, letters):
        with pytest.raises(TypeError):
            BraidWord(strands, letters)

    @pytest.mark.parametrize(
        "letters, error, message",
        [([1, True], TypeError, "letter True is not an int"),
         ([1, 2, 1.0], TypeError, "letter 1.0 is not an int"),
         ([1, 3, True], ValueError, "letter 3 is not a generator of B_3"),
         ([1, True, 3], TypeError, "letter True is not an int"),
         ([2, -1, 0, -3], ValueError, "letter 0 is not a generator of B_3"),
         ([1] * 50 + [-3, 2.0], ValueError, "letter -3 is not a generator of B_3")],
    )
    def test_first_offending_letter_is_named(self, letters, error, message):
        # The set of types is taken over the whole word, so a True after an
        # equal 1 is still refused, and the offender named is the first one.
        with pytest.raises(error) as err:
            BraidWord(3, letters)
        assert str(err.value) == message

    def test_int_subclass_letters_are_accepted(self):
        Letter = enum.IntEnum("Letter", {"ONE": 1, "TWO": 2})
        word = BraidWord(3, [Letter.ONE, Letter.TWO, -1, Letter.TWO])
        assert word == BraidWord(3, [1, 2, -1, 2])
        with pytest.raises(ValueError, match="^letter 2 is not a generator of B_2$"):
            BraidWord(2, [1, Letter.TWO])


class TestClosureComponents:
    def test_untouched_strands_are_counted_not_walked(self):
        assert BraidWord(10**18, [1]).closure_components() == 10**18 - 1
        assert BraidWord(5, []).closure_components() == 5
        assert BraidWord(5, [1, 2, 3, 4]).closure_components() == 1
        assert BraidWord(6, [2, 3, -2]).closure_components() == 5


class TestExponentSum:
    def test_trefoil(self):
        assert BraidWord(2, [1, 1, 1]).exponent_sum() == 3

    def test_empty(self):
        assert BraidWord(2, []).exponent_sum() == 0

    def test_family_word_n1(self):
        # 4 + 12n + 12 positive letters and one inverse: 27 at n = 1.
        word = named_braid("K1", 1)
        assert len(word.letters) == 29
        assert word.exponent_sum() == 27
        assert word.exponent_sum() == sum(1 if x > 0 else -1 for x in word.letters)

    def test_matches_definition_on_seeded_words(self):
        # Full twists of either sign and spelling, spliced into random words, are cut
        # and counted as power * (s - 1); the definition walks every letter.
        rng = random.Random(36)
        for _ in range(300):
            strands = rng.randint(2, 6)
            letters = []
            for _ in range(rng.randint(0, 6)):
                if rng.random() < 0.3:
                    letters += full_twist(strands, rng.choice((1, -1)), rng.random() < 0.5)
                else:
                    letters.append(rng.randint(1, strands - 1) * rng.choice((1, -1)))
            word = BraidWord(strands, letters)
            assert word.exponent_sum() == sum(1 if x > 0 else -1 for x in letters), word

    def test_matches_definition_on_k1_10000(self):
        word = family_braid("K1", 10000)
        assert word._cut[1] != 0  # the twists were cut, so the count reads the cut
        assert word.exponent_sum() == sum(1 if x > 0 else -1 for x in word.letters)


class TestPositiveBraidGenus:
    def test_trefoil(self):
        assert positive_braid_genus(BraidWord(2, [1, 1, 1])) == 1

    def test_unknot(self):
        assert positive_braid_genus(BraidWord(2, [1])) == 0

    @pytest.mark.parametrize("which", ["K1", "K2"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_family_positive_words(self, which, n):
        word = positive_family_word(which, n)
        assert positive_braid_genus(word) == 6 * n + 6
        # The cancelled word closes to the same knot.
        assert word.alexander_of_closure() == family_braid(which, n).alexander_of_closure()


def generator_matrix(strands: int, letter: int) -> list[list[IntLaurentPoly]]:
    """Reduced Burau image of sigma_i^{+-1} in B_strands, written out in full.

    The identity except in column i-1 (0-indexed), where the diagonal entry
    is -t with a t above (when present) and a 1 below (when present); the
    inverse has -t^-1 on the diagonal with a 1 above and a t^-1 below.
    """
    n = strands - 1
    i = abs(letter)
    mat = [[P([[0, 1]]) if r == c else P([]) for c in range(n)] for r in range(n)]
    above, diagonal, below = (
        (P([[1, 1]]), P([[1, -1]]), P([[0, 1]])) if letter > 0
        else (P([[0, 1]]), P([[-1, -1]]), P([[-1, 1]]))
    )
    mat[i - 1][i - 1] = diagonal
    if i >= 2:
        mat[i - 2][i - 1] = above
    if i <= n - 1:
        mat[i][i - 1] = below
    return mat


def generator_product(word: BraidWord) -> list[list[IntLaurentPoly]]:
    """The reduced Burau matrix as a plain triple-loop product of generators."""
    n = word.strands - 1
    out = [[P([[0, 1]]) if r == c else P([]) for c in range(n)] for r in range(n)]
    for letter in word.letters:
        gen = generator_matrix(word.strands, letter)
        out = [
            [sum((out[r][k] * gen[k][c] for k in range(n)), P([])) for c in range(n)]
            for r in range(n)
        ]
    return out


def full_twist(strands: int, sign: int, falling: bool) -> tuple[int, ...]:
    """A spelling of the full twist (sign 1) or its inverse (sign -1).

    Rising is (sigma_1 ... sigma_{s-1})^s and falling (sigma_{s-1} ...
    sigma_1)^s; with sign -1 every letter is inverted.
    """
    letters = range(strands - 1, 0, -1) if falling else range(1, strands)
    return tuple(sign * x for x in letters) * strands


def permutation_cycles(word: BraidWord) -> int:
    """Cycles of the word's permutation, every letter of every strand walked."""
    perm = list(range(word.strands))
    for x in word.letters:
        perm[abs(x) - 1], perm[abs(x)] = perm[abs(x)], perm[abs(x) - 1]
    seen, cycles = set(), 0
    for start in range(word.strands):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return cycles


class TestBurauAgainstGeneratorProduct:
    def test_every_short_word(self):
        for strands in (2, 3, 4):
            alphabet = [x for i in range(1, strands) for x in (i, -i)]
            for length in range(5):
                for letters in itertools.product(alphabet, repeat=length):
                    word = BraidWord(strands, letters)
                    assert word.reduced_burau() == generator_product(word), word

    def test_random_words(self):
        rng = random.Random(6)
        for _ in range(100):
            strands = rng.randint(2, 6)
            letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                       for _ in range(rng.randint(0, 20))]
            word = BraidWord(strands, letters)
            assert word.reduced_burau() == generator_product(word), word

    def test_random_words_on_many_strands_mostly_inverse(self):
        # Mostly inverse letters drive exponents negative, so the column keys
        # e * (s-1) + row go below zero and must decode by floor division.
        rng = random.Random(13)
        for strands in (7, 8):
            for _ in range(6):
                letters = [(1 if rng.random() < 0.25 else -1) * rng.randint(1, strands - 1)
                           for _ in range(rng.randint(1, 40))]
                word = BraidWord(strands, letters)
                assert word.reduced_burau() == generator_product(word), word

    @pytest.mark.parametrize("which", ["K1", "K2"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_family_words(self, which, n):
        word = family_braid(which, n)
        assert word.reduced_burau() == generator_product(word)

    @pytest.mark.parametrize("strands", range(2, 8))
    def test_words_with_full_twists(self, strands):
        # Whole twists of every spelling between random letters and back to
        # back, twists one letter short (s(s-1) - 1 letters), which stay on
        # the letter loop, and two such partial twists that join into one.
        rng = random.Random(30 + strands)
        twists = [full_twist(strands, sign, falling) for sign in (1, -1) for falling in (False, True)]

        def random_letters(count):
            return tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(count))

        for a, b in zip(twists, twists[1:] + twists[:1]):
            for letters in (random_letters(3) + a + random_letters(3) + b + random_letters(2),
                            a + b + a + random_letters(2),
                            a[:-1] + random_letters(2) + b[1:],
                            random_letters(1) + a[1:] + a[:-1]):
                word = BraidWord(strands, letters)
                assert word.reduced_burau() == generator_product(word), word
                assert word.closure_components() == permutation_cycles(word), word


class TestTwistCutAtMaxStrands:
    def test_every_spelling_with_letters_31(self):
        # Letters -31 .. 31 are cut as signed bytes.  Each spelling of the
        # full twist on 32 strands has 992 letters; the reference
        # generator_product takes about 50 ms a letter there, so the twists
        # enter it as t^(+-32) * I, the image that
        # test_full_twist_powers_are_scalar checks on up to 8 strands, and the
        # letters between them are multiplied out.
        rising, falling, rising_inverse, falling_inverse = (
            full_twist(32, sign, falling) for sign in (1, -1) for falling in (False, True))
        letters = ((31, -7) + rising + (-31, 2) + falling + (30,) + rising_inverse
                   + (-1,) + falling_inverse + rising + (-31, 31))
        word = BraidWord(32, letters)
        between = (31, -7, -31, 2, 30, -1, -31, 31)
        assert word._full_twists_removed() == (between, 32)
        expected = [[entry.shifted(32) for entry in row]
                    for row in generator_product(BraidWord(32, between))]
        assert word.reduced_burau() == expected


class TestBurauMatrices:
    def test_braid_relations(self):
        for s in (3, 4, 5):
            for i in range(1, s - 1):
                a = BraidWord(s, [i, i + 1, i]).reduced_burau()
                b = BraidWord(s, [i + 1, i, i + 1]).reduced_burau()
                assert a == b
        assert (
            BraidWord(4, [1, 3]).reduced_burau() == BraidWord(4, [3, 1]).reduced_burau()
        )

    @pytest.mark.parametrize("strands", range(2, 9))
    @pytest.mark.parametrize("k", range(-2, 3))
    def test_full_twist_powers_are_scalar(self, strands, k):
        # The full twist (sigma_1 ... sigma_{s-1})^s is central and maps to t^s * I.
        twist = torus_braid(strands, strands)
        power = twist.letters * k if k >= 0 else inverse(twist).letters * -k
        n = strands - 1
        expected = [[IntLaurentPoly.monomial(k * strands) if r == c else IntLaurentPoly.zero()
                     for c in range(n)] for r in range(n)]
        assert BraidWord(strands, power).reduced_burau() == expected

    def test_inverse_letters_cancel(self):
        for s in (2, 3, 4):
            for i in range(1, s):
                assert (
                    BraidWord(s, [i, -i]).reduced_burau()
                    == BraidWord(s, []).reduced_burau()
                )


class TestAlexanderOfClosure:
    def test_trefoil(self):
        assert BraidWord(2, [1, 1, 1]).alexander_of_closure() == P([[0, 1], [1, -1], [2, 1]])

    def test_unknot(self):
        assert BraidWord(2, [1]).alexander_of_closure() == IntLaurentPoly.one()

    def test_figure_eight(self):
        delta = BraidWord(3, [1, -2, 1, -2]).alexander_of_closure()
        assert delta.unit_equal(P([[0, 1], [1, -3], [2, 1]]))
        assert delta(1) == 1

    def test_census_words(self):
        assert named_braid("t09847").alexander_of_closure() == T09847_DELTA
        assert named_braid("v2871").alexander_of_closure() == V2871_DELTA

    def test_family_words_match_hand_expansion(self):
        assert named_braid("K1", 1).alexander_of_closure() == K1_N1
        assert named_braid("K2", 1).alexander_of_closure() == K2_N1

    def test_torus_words(self):
        assert torus_braid(3, 4).alexander_of_closure() == P(
            [[0, 1], [1, -1], [3, 1], [5, -1], [6, 1]]
        )
        assert torus_braid(2, 3).alexander_of_closure() == P([[0, 1], [1, -1], [2, 1]])

    @pytest.mark.parametrize("which", ["K1", "K2"])
    def test_family_words_match_closed_form(self, which):
        for n in range(1, 201):
            word = family_braid(which, n)
            assert word.alexander_of_closure() == alexander_closed_form(FamilyKnot(which, n)), n

    def test_rejects_links(self):
        with pytest.raises(NotAKnot):
            BraidWord(2, [1, 1]).alexander_of_closure()

    @pytest.mark.parametrize(
        "build, expected",
        [(lambda: family_braid("K1", 3), alexander_closed_form(FamilyKnot("K1", 3))),
         (lambda: BraidWord(3, [1, -1]), "closure has 3 components, need 1")],
        ids=["K1(3)", "three-component link"],
    )
    def test_full_twists_are_cut_once_per_word(self, monkeypatch, build, expected):
        # From construction through alexander_of_closure, on the knot path and
        # on the NotAKnot path, the word is scanned for full twists once.
        calls = []
        cut = BraidWord._full_twists_removed
        monkeypatch.setattr(BraidWord, "_full_twists_removed", lambda word: calls.append(word) or cut(word))
        word = build()
        try:
            got = word.alexander_of_closure()
        except NotAKnot as exc:
            got = str(exc)
        assert (got, calls) == (expected, [word])


def alexander_by_determinant(word: BraidWord) -> IntLaurentPoly:
    """Delta from the public matrices: det(I - B) * (t - 1) / (t^s - 1), dense division."""
    n = word.strands - 1
    burau = word.reduced_burau()
    i_minus_b = [[(IntLaurentPoly.one() if i == j else IntLaurentPoly.zero()) - burau[i][j]
                  for j in range(n)] for i in range(n)]
    numerator = determinant(i_minus_b) * (IntLaurentPoly.t() - 1)
    delta = dense_exact_div(numerator, IntLaurentPoly.monomial(word.strands) - 1)
    delta = delta.shifted(-delta.min_exp)
    return -delta if delta(1) < 0 else delta


class TestClosureAgainstDeterminant:
    @pytest.mark.parametrize("strands", [3, 4])
    def test_every_short_knot_word(self, strands):
        alphabet = [x for i in range(1, strands) for x in (i, -i)]
        for length in range(7):
            for letters in itertools.product(alphabet, repeat=length):
                word = BraidWord(strands, letters)
                if word.is_knot_closure():
                    assert word.alexander_of_closure() == alexander_by_determinant(word), word

    @pytest.mark.parametrize("which", ["K1", "K2"])
    def test_family_words(self, which):
        for n in range(1, 61):
            word = family_braid(which, n)
            assert word.alexander_of_closure() == alexander_by_determinant(word), n

    def test_one_bridge_braids(self):
        # B(w, b, t) = (sigma_b ... sigma_1)(sigma_{w-1} ... sigma_1)^t reaches
        # strand counts of both parities, where the sign of det(B - I) flips.
        shapes = [(w, b, t) for w in range(5, 13) for b in range(1, w) for t in range(1, 4)]
        words = [BraidWord(w, tuple(range(b, 0, -1)) + tuple(range(w - 1, 0, -1)) * t)
                 for w, b, t in shapes + [(24, 1, 2), (32, 1, 2)]]
        knots = [word for word in words if word.is_knot_closure()]
        assert len(knots) == 71
        assert {word.strands % 2 for word in knots} == {0, 1}
        for word in knots:
            assert word.alexander_of_closure() == alexander_by_determinant(word), word


def random_knot_word(rng: random.Random) -> BraidWord:
    while True:
        strands = rng.randint(2, 4)
        length = rng.randint(1, 8)
        letters = []
        for _ in range(length):
            i = rng.randint(1, strands - 1)
            letters.append(i if rng.random() < 0.7 else -i)
        word = BraidWord(strands, letters)
        if word.is_knot_closure():
            return word


class TestClosureProperties:
    def test_symmetry_and_value_at_one(self):
        rng = random.Random(17)
        for _ in range(40):
            word = random_knot_word(rng)
            delta = word.alexander_of_closure()
            assert delta.is_symmetric(), word
            assert delta(1) == 1, word

    def test_markov_stabilization(self):
        rng = random.Random(18)
        for _ in range(40):
            word = random_knot_word(rng)
            assert stabilized(word).alexander_of_closure() == word.alexander_of_closure()

    def test_conjugation_invariance(self):
        rng = random.Random(19)
        for _ in range(20):
            word = random_knot_word(rng)
            u = BraidWord(word.strands, [rng.choice((1, -1)) * rng.randint(1, word.strands - 1)
                                         for _ in range(rng.randint(1, 6))])
            conjugate = BraidWord(word.strands, u.letters + word.letters + inverse(u).letters)
            assert conjugate.alexander_of_closure() == word.alexander_of_closure(), (word, u)

    def test_degree_is_twice_genus_for_positive_catalog_words(self):
        words = [
            BraidWord(2, [1, 1, 1]),
            torus_braid(3, 4),
            torus_braid(3, 5),
            named_braid("t09847"),
            named_braid("v2871"),
            positive_family_word("K1", 1),
            positive_family_word("K2", 1),
        ]
        for word in words:
            delta = word.alexander_of_closure()
            assert delta.max_exp == 2 * positive_braid_genus(word), word


class TestStrandBound:
    def test_largest_accepted_unknot_word_answers(self):
        word = BraidWord(MAX_STRANDS, range(1, MAX_STRANDS))
        assert word.alexander_of_closure() == IntLaurentPoly.one()

    def test_one_more_strand_is_refused(self):
        with pytest.raises(TooManyStrands, match=f"above the limit of {MAX_STRANDS}"):
            BraidWord(MAX_STRANDS + 1, range(1, MAX_STRANDS + 1)).alexander_of_closure()

    def test_component_count_is_checked_first(self):
        with pytest.raises(NotAKnot):
            BraidWord(MAX_STRANDS + 1, [1]).alexander_of_closure()


class TestNamedBraids:
    def test_arg_in_name(self):
        assert named_braid("K1(2)") == family_braid("K1", 2)

    @pytest.mark.parametrize("name", ["t09847", "v2871", "K1(3)", "K2(1)"])
    def test_parameter_given_twice_or_to_a_fixed_word(self, name):
        with pytest.raises(ValueError, match="twist parameter"):
            named_braid(name, 5)

    def test_missing_parameter(self):
        with pytest.raises(UnknownName):
            named_braid("K1")

    def test_unknown(self):
        with pytest.raises(UnknownName):
            named_braid("K3", 1)

    @pytest.mark.parametrize("n", [0, MAX_TWIST + 1, 10**18])
    def test_twist_out_of_range(self, n):
        with pytest.raises(ValueError, match=f"from 1 to {MAX_TWIST}"):
            family_braid("K1", n)
        with pytest.raises(ValueError, match=f"from 1 to {MAX_TWIST}"):
            named_braid(f"K2({n})")
