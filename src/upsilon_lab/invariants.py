"""The full invariant pipeline for one L-space-form polynomial.

Upsilon is the Legendre-Fenchel transform of the gap function
(Borodzik-Hedden), and the transform sees only the gap function's convex
corners.  The gap function climbs with slope 2 across each gap run and is
flat in between, so each run [a, b) gives one corner: the climb starts at
x = g - b, at height 2 * #{gaps >= b}.  The chain is therefore

    polynomial -> gap runs (semigroups.gap_runs, O(terms))
               -> corners (plain ints: one per run, then (g, 2g))
               -> lower hull (the monotone-chain sweep of piecewise)
               -> Upsilon (legendre_fenchel).

hull_vertices stops at the integer hull, which is the census's Upsilon key.
census.parse_census_line keeps the runs of the L-space gate
(semigroups.lspace_runs, or _lspace_pairs as it reads the pairs) and sweeps
no hull; CensusRecord.hull sweeps the same key from them,
with _corners and the same sweep, only when a scan reads it.  hull_of
and upsilon_of build the PLFunctions.  The formal semigroup and the
2g + 1 gap-function samples are built only for the report fields that print
them (knot_invariants) and for plot's gap-function panel; the dense route
GapFunction.envelope stays as the tests' oracle.  The report's symmetric
flag is GapFunction.is_symmetric on the gap function it prints, and its
upsilon_slopes are the x strings of the hull's JSON vertices.

The command line's L-space gate (semigroups.lspace_runs), or for --torus
the semigroup's gaps, has the runs already, so knot_invariants, hull_of and
gap_function_of take them as the private keyword _runs and the command walks
the polynomial at most once; without _runs each takes gap_runs itself.
The --torus runs also carry the semigroup, which knot_invariants and
gap_function_of take back (semigroups._semigroup_of_runs) instead of
rebuilding its gap tuple.
Each stage trusts the one before it: the corners reach the sweep with no
number or order check (lower_convex_envelope's trusted=True),
FormalSemigroup.from_gap_runs and GapFunction.from_semigroup wrap what they
build unchecked, and only the public constructors check their input.  All
rationals in the report are exact "p/q" strings.
"""

from __future__ import annotations

from .gapfunctions import GapFunction
from .laurent import IntLaurentPoly
from .piecewise import PLFunction, _lower_hull, legendre_fenchel, lower_convex_envelope
from .semigroups import _semigroup_of_runs, gap_runs


def gap_function_of(delta: IntLaurentPoly, *,
                    _runs: list[tuple[int, int]] | None = None) -> GapFunction:
    """The gap function's 2g + 1 integer samples; _runs as in the module docstring."""
    runs = gap_runs(delta) if _runs is None else _runs
    return GapFunction.from_semigroup(_semigroup_of_runs(runs))


def _corners(runs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The gap function's convex corners from its gap runs: top run first, then (g, 2g).

    The runs come from gap_runs or lspace_runs, so the last one ends at deg = 2g.
    """
    g = runs[-1][1] // 2 if runs else 0
    corners = []
    below = 0  # gaps at or above the current run's end
    for a, b in reversed(runs):
        corners.append((g - b, 2 * below))
        below += b - a
    corners.append((g, 2 * g))
    return corners


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
    hull = lower_convex_envelope(_corners(runs), 0, 2, trusted=True)
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
