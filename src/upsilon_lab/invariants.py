"""The full invariant pipeline for one L-space-form polynomial.

Upsilon is the Legendre-Fenchel transform of the gap function
(Borodzik-Hedden), and the transform sees only the gap function's convex
corners.  The gap function climbs with slope 2 across each gap run and is
flat in between, so each run [a, b) gives one corner: the climb starts at
x = g - b, at height 2 * #{gaps >= b}.  The chain is therefore

    polynomial -> gap runs (semigroups.gap_runs, O(terms))
               -> corners (semigroups._corners: plain ints, one per run, then (g, 2g))
               -> lower hull (the monotone-chain sweep, semigroups._lower_hull)
               -> Upsilon (legendre_fenchel).

hull_vertices stops at the integer hull; hull_of and upsilon_of build the
PLFunctions.  The formal semigroup and the 2g + 1 gap-function samples are
built only for the report fields that print them (knot_invariants).  _gap_pl
reads the gap function's polyline off the runs, with GapFunction.to_pl as the
tests' oracle, as GapFunction.envelope is the hull's.  The report's symmetric
flag is GapFunction.is_symmetric on the gap function it prints, and its
upsilon_slopes are the x strings of the hull's JSON vertices.

A caller that has the gap runs already hands them to knot_invariants and
hull_of as the private keyword _runs; without it each takes gap_runs itself.
Runs that carry their semigroup (semigroups._runs_of_semigroup) give it back
to knot_invariants (semigroups._semigroup_of_runs) instead of rebuilding its
gap tuple.
Each stage trusts the one before it: the corners reach the sweep with no
number or order check (lower_convex_envelope's trusted=True),
FormalSemigroup.from_gap_runs and GapFunction.from_semigroup wrap what they
build unchecked, and only the public constructors check their input.  All
rationals in the report are exact "p/q" strings.
"""

from __future__ import annotations

from .gapfunctions import GapFunction
from .laurent import IntLaurentPoly
from .piecewise import PLFunction, legendre_fenchel, lower_convex_envelope
from .semigroups import _corners, _lower_hull, _semigroup_of_runs, gap_runs


def gap_function_of(delta: IntLaurentPoly) -> GapFunction:
    """The gap function's 2g + 1 integer samples."""
    return GapFunction.from_semigroup(_semigroup_of_runs(gap_runs(delta)))


def _gap_pl(runs: list[tuple[int, int]]) -> PLFunction:
    """GapFunction.to_pl() of the runs' gap function, read off the runs with no samples.

    Walking the runs from the top down, with below gaps above the current
    run, run [a, b) climbs from (g - b, 2 * below) to (g - a, 2 * (below + b - a));
    (g, 2g) ends the list.  Maximal runs leave a flat step between climbs,
    so no vertex is collinear, and only the ray absorption is left to do.
    """
    g = runs[-1][1] // 2 if runs else 0
    verts = []
    below = 0
    for a, b in reversed(runs):
        verts.append((g - b, 2 * below))
        below += b - a
        verts.append((g - a, 2 * below))
    verts.append((g, 2 * g))
    return PLFunction._canonical(verts, 0, 2)


def hull_vertices(delta: IntLaurentPoly) -> tuple[tuple[int, int], ...]:
    """Vertices of the gap function's convex envelope, as plain ints.

    T(3,4) has gaps (1, 2, 5), i.e. runs [1, 3) and [5, 6):

    >>> hull_vertices(IntLaurentPoly({0: 1, 1: -1, 3: 1, 5: -1, 6: 1}))
    ((-3, 0), (0, 2), (3, 6))
    """
    return tuple(_lower_hull(_corners(gap_runs(delta))))


def hull_of(delta: IntLaurentPoly, *, _runs: list[tuple[int, int]] | None = None) -> PLFunction:
    """The gap function's convex envelope, with rays of slope 0 and 2.

    _runs as in the module docstring.
    """
    runs = gap_runs(delta) if _runs is None else _runs
    return lower_convex_envelope(_corners(runs), 0, 2, trusted=True)


def upsilon_of(delta: IntLaurentPoly) -> PLFunction:
    """Upsilon on [0, 2]: the Legendre-Fenchel transform of the gap function."""
    return legendre_fenchel(hull_of(delta))


def knot_invariants(delta: IntLaurentPoly, name: str | None = None, *,
                    _runs: list[tuple[int, int]] | None = None) -> dict:
    """Everything the pipeline knows about one polynomial, JSON-ready.

    The gap runs are derived once, or taken as _runs, and feed the semigroup
    (and through it the gap function) and the hull.  Each JSON form is built once:
    upsilon_breakpoints and upsilon_slopes reuse its strings.
    """
    runs = gap_runs(delta) if _runs is None else _runs
    semigroup = _semigroup_of_runs(runs)
    gap_function = GapFunction.from_semigroup(semigroup)
    hull = hull_of(delta, _runs=runs)
    hull_json = hull.to_json()
    upsilon_json = legendre_fenchel(hull).to_json()
    closed, witness = semigroup.is_closed_under_addition()
    report = {
        "name": name,
        "alexander": delta.to_pairs(),
        "genus": semigroup.genus,
        "surgery_threshold": semigroup.surgery_threshold,
        "semigroup": semigroup.to_json(),
        "gap_function": gap_function.to_json(),
        "hull": hull_json,
        "upsilon": upsilon_json,
        "upsilon_breakpoints": upsilon_json["vertices"],
        # Upsilon's slopes are the hull's vertex x-coordinates (the transform swaps roles).
        "upsilon_slopes": [x for x, _ in hull_json["vertices"]],
        "semigroup_closed": closed,
        "closure_witness": list(witness) if witness else None,
        "symmetric": gap_function.is_symmetric(),
    }
    if name is None:
        del report["name"]
    return report
