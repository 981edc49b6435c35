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

from test_invariants import TORUS_LADDER as INVARIANTS_LADDER
from test_invariants import all_gap_sequences

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
        with pytest.raises(RaysInconsistent, match="^right ray slope 1 cuts below the sample at x=0$"):
            lower_convex_envelope([(0, 0), (1, 2)], 0, 1)

    def test_crossed_rays_at_a_single_point_raise(self):
        with pytest.raises(RaysInconsistent, match="^left slope 3 exceeds right slope 2 at a single"):
            lower_convex_envelope([(0, 0)], 3, 2)

    @pytest.mark.parametrize("samples", [[], [(1, 0), (0, 2)], [(0, 0), (0, 2)]],
                             ids=["empty", "decreasing", "repeated"])
    def test_samples_are_checked_unless_trusted(self, samples):
        # trusted=True is only for the package's own sorted int corners.
        with pytest.raises(ValueError):
            lower_convex_envelope(samples, 0, 2)

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


def pl_numbers(f):
    """Every number f stores or returns: vertices, slopes, domain and values."""
    xs = [x for x, _ in f.vertices]
    probes = xs + [F(a + b, 2) for a, b in zip(xs, xs[1:])] + [F(xs[0])]
    if f.on_line:
        probes += [xs[0] - 1, xs[-1] + F(1, 2)]
    yield from (c for vertex in f.vertices for c in vertex)
    yield from f.slope_sequence()
    yield from f.domain or ()
    yield from (f(t) for t in probes)


def assert_number_rule(f):
    """An int exactly when integral, otherwise a Fraction with denominator > 1."""
    for v in pl_numbers(f):
        assert type(v) is int or (type(v) is F and v.denominator > 1), (v, f)


def number_types(f):
    return [tuple(map(type, vertex)) for vertex in f.vertices], list(map(type, f.slope_sequence()))


def assert_pipeline_follows_the_rule(delta):
    """hull_of equals invariants.hull_vertices, types included; hull and Upsilon keep the rule."""
    from upsilon_lab.invariants import hull_of, hull_vertices, upsilon_of

    hull, ints = hull_of(delta), hull_vertices(delta)
    assert hull.vertices == ints, delta
    assert number_types(hull)[0] == [tuple(map(type, v)) for v in ints] == [(int, int)] * len(ints)
    assert_number_rule(hull)
    assert_number_rule(upsilon_of(delta))


# The torus ladder of test_invariants, and T(26,41) (g = 500) from the top of the plot ladder.
TORUS_LADDER = INVARIANTS_LADDER + ((26, 41),)


class TestEnvelopeSampleTypes:
    """Every coordinate, ray slope, segment slope and value of a PLFunction is an
    int exactly when it is integral, else a Fraction; int and Fraction input agree."""

    @pytest.mark.parametrize("gf", envelope_gap_functions())
    def test_int_and_fraction_samples_agree(self, gf):
        samples = gf.samples()
        assert all(type(x) is int and type(y) is int for x, y in samples)
        as_fractions = [(F(x), F(y)) for x, y in samples]
        env = lower_convex_envelope(samples, 0, 2)
        from_fractions = lower_convex_envelope(as_fractions, F(0), F(2))
        assert env == from_fractions
        assert number_types(env) == number_types(from_fractions)
        assert all(type(c) is int for vertex in env.vertices for c in vertex)
        assert type(env.left_slope) is int and type(env.right_slope) is int
        assert_number_rule(env)
        pl, pl_from_fractions = PLFunction(samples, 0, 2), PLFunction(as_fractions, F(0), F(2))
        assert pl == pl_from_fractions
        assert number_types(pl) == number_types(pl_from_fractions)
        assert_number_rule(pl)
        upsilon = legendre_fenchel(env)
        assert number_types(upsilon) == number_types(legendre_fenchel(from_fractions))
        assert_number_rule(upsilon)

    def test_non_integral_fraction_samples(self):
        # Scaling both axes by 1/3 scales the hull's vertices and keeps its slopes.
        thirds = [(F(x, 3), F(y, 3)) for x, y in PRETZEL_SAMPLES]
        expected = PLFunction([(F(x, 3), F(y, 3)) for x, y in PRETZEL_HULL.vertices], 0, 2)
        env = lower_convex_envelope(thirds, 0, 2)
        assert env == expected
        assert env.vertices[0] == (F(-5, 3), 0) and type(env.vertices[0][1]) is int
        assert_number_rule(env)
        # Integer x with non-integral y: slopes scale by 1/3.
        mixed = [(x, F(y, 3)) for x, y in PRETZEL_SAMPLES]
        env = lower_convex_envelope(mixed, 0, F(2, 3))
        assert env == PLFunction([(x, F(y, 3)) for x, y in PRETZEL_HULL.vertices], 0, F(2, 3))
        assert [x for x, _ in env.vertices] == [-5, -2, 2, 5]
        assert env.slope_sequence() == [0, F(2, 9), F(1, 3), F(4, 9), F(2, 3)]
        assert_number_rule(env)
        assert_number_rule(legendre_fenchel(env))

    def test_integral_fractions_are_stored_as_ints(self):
        f = PLFunction([(F(-4, 2), F(0)), (F(6, 3), F(4))], F(0), F(2, 1))
        assert f.vertices == ((-2, 0), (2, 4))
        assert number_types(f) == ([(int, int), (int, int)], [int, int, int])
        assert type(f(F(6))) is int and f(F(6)) == 12
        assert f(F(1, 2)) == F(5, 2)
        assert_number_rule(f)

    def test_legendre_fenchel(self):
        upsilon = legendre_fenchel(PRETZEL_HULL)
        assert upsilon.vertices == PRETZEL_UPSILON.vertices
        assert number_types(upsilon)[0] == [(int, int), (F, F), (int, int), (F, F), (int, int)]
        # An interval-domain conjugate has the domain endpoints as its (int) rays.
        hull = legendre_fenchel(upsilon)
        assert number_types(hull) == number_types(PRETZEL_HULL)
        assert type(hull.left_slope) is int and type(hull.right_slope) is int
        for f in catalog_hulls() + [UNKNOT_HULL, T34_HULL]:
            assert_number_rule(f)
            assert_number_rule(legendre_fenchel(f))

    @pytest.mark.parametrize("g", range(9))
    def test_every_gap_sequence_up_to_genus_8(self, g):
        from upsilon_lab.semigroups import FormalSemigroup

        for gaps in all_gap_sequences(g):
            assert_pipeline_follows_the_rule(FormalSemigroup(gaps).to_alexander())

    @pytest.mark.parametrize("p,q", TORUS_LADDER)
    def test_torus_ladder(self, p, q):
        from upsilon_lab.semigroups import torus_semigroup

        assert_pipeline_follows_the_rule(torus_semigroup(p, q).to_alexander())

    def test_no_float_anywhere(self):
        from upsilon_lab.family import catalog_knot, catalog_names
        from upsilon_lab.invariants import hull_of, knot_invariants, upsilon_of
        from upsilon_lab.semigroups import torus_semigroup

        def walk(obj):
            if isinstance(obj, dict):
                for v in obj.values():
                    yield from walk(v)
            elif isinstance(obj, (list, tuple)):
                for v in obj:
                    yield from walk(v)
            else:
                yield obj

        deltas = [catalog_knot(name).alexander for name in catalog_names()]
        deltas += [torus_semigroup(p, q).to_alexander() for p, q in TORUS_LADDER[:6]]
        # Int vertices whose slopes and midpoint values are not integral: int / int traps.
        traps = [PLFunction([(0, 0), (2, 1), (3, 3)]), PLFunction([(0, 0), (3, 1)], 0, 1)]
        for f in traps + [g(d) for d in deltas for g in (hull_of, upsilon_of)]:
            assert not any(isinstance(v, float) for v in pl_numbers(f)), f
        for delta in deltas:
            assert not any(isinstance(v, float) for v in walk(knot_invariants(delta))), delta


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

    @pytest.mark.parametrize("f", [
        PLFunction([(0, 0), (1, 2), (2, 2)]),  # interval domain, slopes 2 then 0
        PLFunction([(0, 0)], 2, 0),  # one vertex, left ray steeper than the right
    ], ids=["interval-zigzag", "one-vertex-rays"])
    def test_not_convex_rejected_off_the_line_zigzag(self, f):
        with pytest.raises(NotConvex):
            legendre_fenchel(f)

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


def assert_same_pl(f, expected):
    """Equal vertices and rays, each coordinate and slope of the same type."""
    assert f == expected, (f, expected)
    types = [[tuple(map(type, v)) for v in h.vertices] for h in (f, expected)]
    assert types[0] == types[1]
    assert (type(f.left_slope), type(f.right_slope)) == (
        type(expected.left_slope), type(expected.right_slope))


def assert_trusted_routes(delta):
    """hull_of, upsilon_of and GapFunction.to_pl equal the validating constructor's result."""
    from upsilon_lab.invariants import gap_function_of, hull_of, upsilon_of

    hull, upsilon, gf = hull_of(delta), upsilon_of(delta), gap_function_of(delta)
    assert_same_pl(hull, PLFunction(hull.vertices, 0, 2))
    assert_same_pl(upsilon, PLFunction(upsilon.vertices))
    assert_same_pl(gf.to_pl(), PLFunction(gf.samples(), 0, 2))
    assert_same_pl(legendre_fenchel(upsilon), hull)


def step_pattern_gap_functions(g):
    """Every GapFunction of genus g: each choice of g up steps among 2g, flat heads and
    rising tails (which the rays absorb) included."""
    from itertools import accumulate, combinations

    for ups in combinations(range(2 * g), g):
        steps = [0] * (2 * g)
        for i in ups:
            steps[i] = 2
        yield GapFunction(accumulate(steps, initial=0))


class TestTrustedRoutes:
    """The report path builds canonical vertices itself and skips the constructor's sweep;
    the constructor on the same vertices (or samples) is the oracle."""

    @pytest.mark.parametrize("g", range(9))
    def test_every_gap_sequence_up_to_genus_8(self, g):
        from upsilon_lab.semigroups import FormalSemigroup

        for gaps in all_gap_sequences(g):
            assert_trusted_routes(FormalSemigroup(gaps).to_alexander())

    @pytest.mark.parametrize("g", range(7))
    def test_every_step_pattern_up_to_genus_6(self, g):
        count = 0
        for gf in step_pattern_gap_functions(g):
            samples = gf.samples()
            assert_same_pl(gf.to_pl(), PLFunction(samples, 0, 2))
            hull = lower_convex_envelope(samples, 0, 2)
            assert_same_pl(hull, PLFunction(hull.vertices, 0, 2))
            upsilon = legendre_fenchel(hull)
            assert_same_pl(upsilon, PLFunction(upsilon.vertices))
            assert_same_pl(legendre_fenchel(upsilon), hull)
            count += 1
        assert count == (1, 2, 6, 20, 70, 252, 924)[g]

    @pytest.mark.parametrize("p,q", TORUS_LADDER)
    def test_torus_ladder(self, p, q):
        from upsilon_lab.semigroups import torus_semigroup

        assert_trusted_routes(torus_semigroup(p, q).to_alexander())

    @pytest.mark.parametrize("which", ["K1", "K2"])
    def test_family_members(self, which):
        from upsilon_lab.family import FamilyKnot, alexander_closed_form

        for n in range(1, 6):
            assert_trusted_routes(alexander_closed_form(FamilyKnot(which, n)))

    def test_fraction_samples(self):
        thirds = [(F(x, 3), F(y, 3)) for x, y in PRETZEL_SAMPLES]
        hull = lower_convex_envelope(thirds, 0, 2)
        assert_same_pl(hull, PLFunction(hull.vertices, 0, 2))
        assert_same_pl(legendre_fenchel(hull), PLFunction(legendre_fenchel(hull).vertices))

    def test_interval_domain_with_fraction_vertices(self):
        f = PLFunction([(F(-1, 2), F(1, 3)), (F(1, 3), 0), (F(5, 2), F(7, 4))])
        conjugate = legendre_fenchel(f)
        assert_same_pl(conjugate, PLFunction(conjugate.vertices, F(-1, 2), F(5, 2)))
        assert_same_pl(legendre_fenchel(conjugate), f)
        assert_same_pl(legendre_fenchel(PRETZEL_UPSILON), PRETZEL_HULL)


# -- the Fraction formulas the division-free code replaced, kept as its oracle ---------


def ref_exact(v):
    v = F(v)
    return v.numerator if v.denominator == 1 else v


def ref_slope(a, b):
    return ref_exact(F(b[1] - a[1], b[0] - a[0]))


def ref_absorb(pts, ls, rs):
    """PLFunction's ray absorption as a slope comparison: the vertices it keeps."""
    pts = list(pts)
    if ls is not None:
        while len(pts) >= 2 and ref_slope(pts[0], pts[1]) == ls:
            pts.pop(0)
        while len(pts) >= 2 and ref_slope(pts[-2], pts[-1]) == rs:
            pts.pop()
    return tuple(pts)


def ref_slope_sequence(vertices, ls, rs):
    slopes = [ref_slope(a, b) for a, b in zip(vertices, vertices[1:])]
    return slopes if ls is None else [ls, *slopes, rs]


def ref_envelope(samples, ls, rs):
    """lower_convex_envelope with Fraction slopes in its ray checks: (vertices, ls, rs)."""
    hull = []
    for p in [(ref_exact(x), ref_exact(y)) for x, y in samples]:
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
            <= (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(p)
    ls, rs = ref_exact(ls), ref_exact(rs)
    if len(hull) == 1:
        if ls > rs:
            raise RaysInconsistent(
                f"left slope {ls} exceeds right slope {rs} at a single hull point")
    else:
        if ls > ref_slope(hull[0], hull[1]):
            raise RaysInconsistent(f"left ray slope {ls} cuts below the sample at x={hull[1][0]}")
        if rs < ref_slope(hull[-2], hull[-1]):
            raise RaysInconsistent(f"right ray slope {rs} cuts below the sample at x={hull[-2][0]}")
    return ref_absorb(hull, ls, rs), ls, rs


def ref_is_convex(vertices, ls, rs):
    seq = ref_slope_sequence(vertices, ls, rs)
    return all(a < b for a, b in zip(seq, seq[1:]))


def ref_legendre_fenchel(vertices, ls, rs):
    """The transform with a Fraction slope, product and difference per vertex: (vertices, ls, rs)."""
    slopes = ref_slope_sequence(vertices, ls, rs)
    if any(a >= b for a, b in zip(slopes, slopes[1:])):
        raise NotConvex("Legendre-Fenchel transform requires a convex function")
    if ls is not None:
        pairs = zip(slopes, (vertices[0], *vertices))
        return tuple((s, ref_exact(s * x - y)) for s, (x, y) in pairs), None, None
    pairs = zip(slopes, vertices)
    out = [(s, ref_exact(s * x - y)) for s, (x, y) in pairs]
    lo, hi = vertices[0][0], vertices[-1][0]
    return ref_absorb(out, lo, hi), lo, hi


def ref_call(vertices, ls, rs, x):
    if x < vertices[0][0]:
        return ref_exact(vertices[0][1] + ls * (x - vertices[0][0]))
    if x > vertices[-1][0]:
        return ref_exact(vertices[-1][1] + rs * (x - vertices[-1][0]))
    for a, b in zip(vertices, vertices[1:]):
        if a[0] <= x < b[0]:
            return ref_exact(a[1] + ref_slope(a, b) * (x - a[0]))
    return vertices[-1][1]


def typed(vertices, ls, rs):
    """Vertices and rays with each number's type, so an int and an integral Fraction differ."""
    return tuple((x, type(x), y, type(y)) for x, y in vertices), (ls, type(ls)), (rs, type(rs))


def triple(f):
    return f.vertices, f.left_slope, f.right_slope


def outcome(fn, *args):
    """fn's typed result, or the type and message of the error it raises."""
    try:
        result = fn(*args)
    except (NotConvex, RaysInconsistent) as exc:
        return type(exc), str(exc)
    return typed(*(triple(result) if isinstance(result, PLFunction) else result))


def assert_matches_fraction_oracle(f):
    """is_convex, the slopes and legendre_fenchel, on f and on its conjugate, equal the
    Fraction formulas, and conjugating twice gives f back."""
    ref = triple(f)
    assert f.is_convex() == ref_is_convex(*ref), f
    slopes = f.slope_sequence()
    assert [(s, type(s)) for s in slopes] == [(s, type(s)) for s in ref_slope_sequence(*ref)], f
    expected = outcome(ref_legendre_fenchel, *ref)
    assert outcome(legendre_fenchel, f) == expected, f
    if expected[0] is not NotConvex:
        conjugate = legendre_fenchel(f)
        assert outcome(legendre_fenchel, conjugate) == outcome(
            ref_legendre_fenchel, *triple(conjugate)) == typed(*ref), f


def assert_evaluation_matches_fraction_oracle(f):
    xs = [x for x, _ in f.vertices]
    probes = xs + [a + F(b - a, k) for a, b in zip(xs, xs[1:]) for k in (2, 3)]
    if f.on_line:
        probes += [xs[0] - F(7, 3), xs[-1] + F(5, 2)]
    for x in probes:
        value, expected = f(x), ref_call(*triple(f), x)
        assert (value, type(value)) == (expected, type(expected)), (f, x)


def random_points(rng, count):
    """count points with strictly increasing x, Fractions and ints mixed."""
    x = F(rng.randint(-12, 12), rng.randint(1, 4))
    points = []
    for _ in range(count):
        points.append((x, F(rng.randint(-24, 24), rng.choice((1, 1, 2, 3, 5)))))
        x += F(rng.randint(1, 9), rng.choice((1, 1, 2, 3, 4)))
    return points


def near(rng, slope):
    """A ray slope on, just past or just short of the hull's end slope, or anywhere."""
    return rng.choice((slope, slope, slope + F(1, 7), slope - F(1, 7), F(rng.randint(-9, 9), 2)))


class TestFractionOracle:
    """The envelope, the transform and is_convex compare slopes by cross-multiplication and
    divide once per output coordinate; the Fraction formulas they replaced are the oracle."""

    @pytest.mark.parametrize("g", range(9))
    def test_hull_of_every_gap_set_up_to_genus_8(self, g):
        from upsilon_lab.semigroups import FormalSemigroup

        for gaps in all_gap_sequences(g):
            samples = GapFunction.from_semigroup(FormalSemigroup(gaps)).samples()
            assert outcome(lower_convex_envelope, samples, 0, 2) == outcome(
                ref_envelope, samples, 0, 2), gaps
            hull = lower_convex_envelope(samples, 0, 2)
            assert_matches_fraction_oracle(hull)
            assert_matches_fraction_oracle(legendre_fenchel(hull))

    @pytest.mark.parametrize("seed", range(6))
    def test_envelopes_of_fraction_samples(self, seed):
        rng = random.Random(seed)
        raised = absorbed = 0
        for _ in range(300):
            samples = random_points(rng, rng.randint(1, 7))
            hull = ref_envelope(samples, -10**6, 10**6)[0]
            if len(hull) == 1:
                ls, rs = F(rng.randint(-9, 9), 2), F(rng.randint(-9, 9), 2)
            else:
                ls, rs = near(rng, ref_slope(*hull[:2])), near(rng, ref_slope(*hull[-2:]))
            expected = outcome(ref_envelope, samples, ls, rs)
            assert outcome(lower_convex_envelope, samples, ls, rs) == expected, (samples, ls, rs)
            if expected[0] is RaysInconsistent:
                raised += 1
                continue
            f = lower_convex_envelope(samples, ls, rs)
            absorbed += len(f.vertices) < len(hull)
            assert_matches_fraction_oracle(f)
            assert_evaluation_matches_fraction_oracle(f)
        assert raised > 30 and absorbed > 30

    @pytest.mark.parametrize("seed", range(6))
    def test_fraction_vertices_on_the_line_and_on_intervals(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(300):
            points = random_points(rng, rng.randint(1, 6))
            on_line = len(points) == 1 or rng.random() < 0.5
            rays = (F(rng.randint(-9, 9), 2), F(rng.randint(-9, 9), 2)) if on_line else ()
            f = PLFunction(points, *rays)
            if on_line:
                assert f.vertices == ref_absorb(
                    PLFunction(points).vertices if len(points) > 1 else points, *rays)
            assert_matches_fraction_oracle(f)
            assert_evaluation_matches_fraction_oracle(f)
            convex = ref_envelope(points, -10**6, 10**6)[0]
            if len(convex) >= 2:
                assert_matches_fraction_oracle(PLFunction(convex))

    def test_round_trips_hull_upsilon_hull(self):
        from upsilon_lab.family import FamilyKnot, alexander_closed_form
        from upsilon_lab.invariants import hull_of
        from upsilon_lab.semigroups import torus_semigroup

        deltas = [torus_semigroup(p, q).to_alexander() for p, q in INVARIANTS_LADDER]
        deltas += [alexander_closed_form(FamilyKnot(w, n)) for w in ("K1", "K2") for n in (1, 2, 3)]
        for hull in catalog_hulls() + [hull_of(delta) for delta in deltas]:
            upsilon = legendre_fenchel(hull)
            assert typed(*triple(upsilon)) == typed(*ref_legendre_fenchel(*triple(hull)))
            assert typed(*triple(legendre_fenchel(upsilon))) == typed(*triple(hull))
            assert_evaluation_matches_fraction_oracle(hull)
            assert_evaluation_matches_fraction_oracle(upsilon)

    def test_ray_slope_equal_to_the_end_slope_is_absorbed(self):
        # Runs 1/2 and 2: a check that lost its dx factor would raise on both rays.
        samples = [(0, 0), (F(1, 2), 1), (F(5, 2), 6)]
        f = lower_convex_envelope(samples, 2, F(5, 2))
        assert triple(f) == (((F(1, 2), 1),), 2, F(5, 2))
        assert f == PLFunction(samples, 2, F(5, 2))
        with pytest.raises(RaysInconsistent, match="left ray slope 9/4 cuts below the sample at x=1/2"):
            lower_convex_envelope(samples, F(9, 4), F(5, 2))
        with pytest.raises(RaysInconsistent, match="right ray slope 9/4 cuts below the sample at x=1/2"):
            lower_convex_envelope(samples, 2, F(9, 4))

    @pytest.mark.parametrize("f", [
        PLFunction([(F(1, 2), F(1, 3))], F(3, 2), F(3, 2)),  # one vertex, equal rays
        PLFunction._canonical([(0, 0), (2, 1), (4, 2)]),  # equal slopes 1/2 on runs of 2
        PLFunction._canonical([(0, 0), (3, 1), (6, 2)], 0, 1),  # equal slopes 1/3 on the line
    ], ids=["one-vertex-equal-rays", "interval-equal-segments", "line-equal-segments"])
    def test_equal_consecutive_slopes_raise_not_convex(self, f):
        assert not f.is_convex()
        with pytest.raises(NotConvex, match="^Legendre-Fenchel transform requires a convex function$"):
            legendre_fenchel(f)
