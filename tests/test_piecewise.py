"""PL function algebra: evaluation, envelope, Legendre-Fenchel, duality."""

import random
from fractions import Fraction as F

import pytest

from upsilon_lab.errors import NotConvex, OutOfDomain, RaysInconsistent
from upsilon_lab.gapfunctions import GapFunction
from upsilon_lab.piecewise import (
    PLFunction,
    legendre_fenchel,
    lower_convex_envelope,
)

PRETZEL_SAMPLES = [(-5, 0), (-4, 2), (-3, 2), (-2, 2), (-1, 4), (0, 4),
                   (1, 6), (2, 6), (3, 8), (4, 10), (5, 10)]
PRETZEL_HULL = PLFunction([(-5, 0), (-2, 2), (2, 6), (5, 10)], 0, 2)
PRETZEL_UPSILON = PLFunction(
    [(0, 0), (F(2, 3), F(-10, 3)), (1, -4), (F(4, 3), F(-10, 3)), (2, 0)]
)
T34_HULL = PLFunction([(-3, 0), (0, 2), (3, 6)], 0, 2)
T34_UPSILON = PLFunction([(0, 0), (F(2, 3), -2), (F(4, 3), -2), (2, 0)])
UNKNOT_HULL = PLFunction([(0, 0)], 0, 2)


def catalog_hulls():
    from upsilon_lab.family import catalog_knot, catalog_names
    from upsilon_lab.invariants import hull_of

    return [hull_of(catalog_knot(name).alexander) for name in catalog_names()]


class TestEval:
    def test_pretzel_hull_on_middle_piece(self):
        assert PRETZEL_HULL(-2) == 2

    def test_vertex_value(self):
        assert PRETZEL_HULL(2) == 6
        assert PRETZEL_HULL(-5) == 0

    def test_pretzel_hull_fractional(self):
        # On the piece through (2,6) and (5,10): slope 4/3.
        assert PRETZEL_HULL(3) == F(22, 3)

    def test_rays(self):
        assert PRETZEL_HULL(-100) == 0
        assert PRETZEL_HULL(6) == 12

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            PRETZEL_UPSILON(F(5, 2))
        with pytest.raises(OutOfDomain):
            PRETZEL_UPSILON(-1)


class TestCanonical:
    def test_redundant_midpoints_dropped(self):
        absolute = PLFunction([(0, 0)], -1, 1)
        padded = PLFunction([(-2, 2), (-1, 1), (0, 0), (F(1, 2), F(1, 2)), (3, 3)], -1, 1)
        assert absolute == padded

    def test_ray_collinear_vertices_absorbed(self):
        f = PLFunction([(-5, 0), (-4, 0), (0, 4), (2, 8), (3, 10)], 0, 2)
        assert f.vertices == ((-4, 0), (0, 4))
        # Int vertices on a 1/3 ray: the slope 1/3 is exact only once they are Fractions.
        g = PLFunction([(0, 0), (3, 1), (6, 3)], F(1, 3), 1)
        assert g.vertices == ((3, 1), (6, 3))

    def test_distinct_upsilons_differ(self):
        t35 = PLFunction([(0, 0), (F(2, 3), F(-8, 3)), (1, -3), (F(4, 3), F(-8, 3)), (2, 0)])
        assert T34_UPSILON != t35

    def test_interval_needs_two_vertices(self):
        with pytest.raises(ValueError):
            PLFunction([(0, 0)])

    def test_x_strictly_increasing(self):
        with pytest.raises(ValueError):
            PLFunction([(0, 0), (0, 1)], 0, 1)


class TestLowerConvexEnvelope:
    def test_pretzel_samples_give_expected_hull(self):
        assert lower_convex_envelope(PRETZEL_SAMPLES, 0, 2) == PRETZEL_HULL

    def test_already_convex_unchanged(self):
        samples = [(-3, 0), (0, 2), (3, 6)]
        assert lower_convex_envelope(samples, 0, 2) == T34_HULL

    def test_family_hull_at_n1(self):
        from upsilon_lab.family import FamilyKnot, hull_closed_form, semigroup_closed_form

        gf = GapFunction.from_semigroup(semigroup_closed_form(FamilyKnot("K1", 1)))
        env = lower_convex_envelope(gf.samples(), 0, 2)
        assert env == hull_closed_form(1)
        assert [int(x) for x, _ in env.vertices] == [-12, -8, -2, 2, 8, 12]

    def test_left_ray_cut_raises(self):
        with pytest.raises(RaysInconsistent):
            lower_convex_envelope([(0, 0), (1, 2)], 3, 4)

    def test_right_ray_cut_raises(self):
        with pytest.raises(RaysInconsistent):
            lower_convex_envelope([(0, 0), (1, 2)], 0, 1)

    def test_single_point(self):
        assert lower_convex_envelope([(0, 0)], 0, 2) == UNKNOT_HULL

    def test_ray_checks_use_exact_slopes(self):
        # 2/3 and 1/10 are not floats: as floats the first rounds below and
        # the second above the exact ray slope, and a check done in float
        # division would raise here.
        for samples, ls, rs in (([(0, 0), (3, 2)], F(2, 3), 2), ([(0, 0), (10, 1)], 0, F(1, 10))):
            assert lower_convex_envelope(samples, ls, rs) == PLFunction(samples, ls, rs)


def symmetric_gap_functions(rng, count, max_genus):
    """Gap functions of random symmetric gap sequences: one of s, 2g-1-s per pair."""
    from upsilon_lab.semigroups import FormalSemigroup

    out = []
    for _ in range(count):
        g = rng.randint(1, max_genus)
        gaps = [s if rng.random() < 0.5 else 2 * g - 1 - s for s in range(1, g)]
        out.append(GapFunction.from_semigroup(FormalSemigroup(sorted(gaps + [2 * g - 1]))))
    return out


def envelope_gap_functions():
    from upsilon_lab.family import FamilyKnot, catalog_knot, catalog_names, semigroup_closed_form
    from upsilon_lab.invariants import gap_function_of

    gfs = [gap_function_of(catalog_knot(name).alexander) for name in catalog_names()]
    gfs += [GapFunction.from_semigroup(semigroup_closed_form(FamilyKnot(kind, n)))
            for kind in ("K1", "K2") for n in (1, 2, 3)]
    return gfs + symmetric_gap_functions(random.Random(31), 60, 40)


class TestEnvelopeSampleTypes:
    """Integer samples are swept as ints; the result must not depend on it."""

    @pytest.mark.parametrize("gf", envelope_gap_functions())
    def test_int_and_fraction_samples_agree(self, gf):
        samples = gf.samples()
        assert all(type(x) is int and type(y) is int for x, y in samples)
        as_fractions = [(F(x), F(y)) for x, y in samples]
        env = lower_convex_envelope(samples, 0, 2)
        assert env == lower_convex_envelope(as_fractions, F(0), F(2))
        assert all(type(c) is F for vertex in env.vertices for c in vertex)
        assert type(env.left_slope) is F and type(env.right_slope) is F
        assert all(type(s) is F for s in env.slope_sequence())
        pl = PLFunction(samples, 0, 2)
        assert pl == PLFunction(as_fractions, F(0), F(2))
        assert all(type(c) is F for vertex in pl.vertices for c in vertex)

    def test_non_integral_fraction_samples(self):
        # Scaling both axes by 1/3 scales the hull's vertices and keeps its slopes.
        thirds = [(F(x, 3), F(y, 3)) for x, y in PRETZEL_SAMPLES]
        expected = PLFunction([(F(x, 3), F(y, 3)) for x, y in PRETZEL_HULL.vertices], 0, 2)
        assert lower_convex_envelope(thirds, 0, 2) == expected
        # Integer x with non-integral y: slopes scale by 1/3.
        mixed = [(x, F(y, 3)) for x, y in PRETZEL_SAMPLES]
        env = lower_convex_envelope(mixed, 0, F(2, 3))
        assert env == PLFunction([(x, F(y, 3)) for x, y in PRETZEL_HULL.vertices], 0, F(2, 3))
        assert all(type(c) is F for vertex in env.vertices for c in vertex)


class TestLegendreFenchel:
    def test_pretzel(self):
        assert legendre_fenchel(PRETZEL_HULL) == PRETZEL_UPSILON

    def test_unknot_hull_gives_zero_on_02(self):
        assert legendre_fenchel(UNKNOT_HULL) == PLFunction([(0, 0), (2, 0)])

    def test_t34(self):
        assert legendre_fenchel(T34_HULL) == T34_UPSILON

    def test_not_convex_rejected(self):
        zigzag = PLFunction([(0, 0), (1, 2), (2, 2)], 0, 2)
        with pytest.raises(NotConvex):
            legendre_fenchel(zigzag)

    def test_biconjugation_on_catalog_hulls(self):
        for hull in catalog_hulls() + [UNKNOT_HULL]:
            upsilon = legendre_fenchel(hull)
            assert legendre_fenchel(upsilon) == hull

    def test_conjugate_duality(self):
        # Slopes of f* are the x-coordinates of f's vertices, in order.
        for hull in catalog_hulls():
            upsilon = legendre_fenchel(hull)
            assert upsilon.segment_slopes() == [x for x, _ in hull.vertices]
            assert [x for x, _ in upsilon.vertices] == hull.slope_sequence()

    def test_output_convex(self):
        for hull in catalog_hulls():
            assert legendre_fenchel(hull).is_convex()


def brute_force_conjugate(samples, t):
    """sup over the generating samples of t*x - y; exact because the
    supremum of a piecewise-linear concave objective sits at a vertex."""
    return max(F(t) * F(x) - F(y) for x, y in samples)


class TestConjugateOracle:
    def test_pretzel_breakpoints_and_midpoints(self):
        ups = legendre_fenchel(PRETZEL_HULL)
        xs = [x for x, _ in ups.vertices]
        probes = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        for t in probes:
            assert ups(t) == brute_force_conjugate(PRETZEL_SAMPLES, t)

    def test_catalog_gap_function_oracle(self):
        from upsilon_lab.family import catalog_knot, catalog_names
        from upsilon_lab.invariants import gap_function_of

        for name in catalog_names():
            gf = gap_function_of(catalog_knot(name).alexander)
            ups = legendre_fenchel(gf.envelope())
            xs = [x for x, _ in ups.vertices]
            probes = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
            for t in probes:
                assert ups(t) == brute_force_conjugate(gf.samples(), t), name


class TestJson:
    def test_line_round_trip(self):
        f = PRETZEL_HULL
        assert PLFunction.from_json(f.to_json()) == f
        assert f.to_json()["domain"] == "line"

    def test_interval_round_trip(self):
        f = PRETZEL_UPSILON
        back = PLFunction.from_json(f.to_json())
        assert back == f
        assert f.to_json()["domain"] == ["0", "2"]
        assert f.to_json()["left_slope"] is None
