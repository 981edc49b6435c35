"""Exact invariants of L-space knots.

From an L-space-form Alexander polynomial the package derives the formal
semigroup, gap sequence, gap function, its lower convex envelope, and the
Upsilon invariant as an exact piecewise-linear function; decides whether the
polynomial can be restored from Upsilon; computes Alexander polynomials of
braid closures through the reduced Burau representation; and applies the
coprime-pair L-space criterion to small Seifert forms.  All arithmetic is
exact (integers and Fractions); nothing here floats.
"""

from .braids import BraidWord, family_braid, named_braid, torus_braid
from .family import (
    CatalogEntry,
    FamilyKnot,
    FamilyVerification,
    alexander_closed_form,
    alexander_via_burau,
    alexander_via_torres,
    catalog_knot,
    catalog_names,
    hull_closed_form,
    semigroup_closed_form,
    verify_family_pair,
)
from .gapfunctions import GapFunction
from .invariants import (
    gap_function_of,
    hull_of,
    hull_vertices,
    knot_invariants,
    upsilon_of,
)
from .laurent import IntLaurentPoly, determinant
from .piecewise import PLFunction, legendre_fenchel, lower_convex_envelope
from .restorability import (
    RestorabilityReport,
    enumerate_gap_functions,
    is_restorable,
    designed_family_alexander,
)
from .seifert import LSpaceVerdict, SeifertForm, coprime_obstruction, decide, negate, normalize
from .semigroups import FormalSemigroup, torus_semigroup

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "CatalogEntry",
    "FamilyKnot",
    "FamilyVerification",
    "FormalSemigroup",
    "GapFunction",
    "IntLaurentPoly",
    "LSpaceVerdict",
    "PLFunction",
    "RestorabilityReport",
    "SeifertForm",
    "alexander_closed_form",
    "alexander_via_burau",
    "alexander_via_torres",
    "catalog_knot",
    "catalog_names",
    "coprime_obstruction",
    "decide",
    "determinant",
    "enumerate_gap_functions",
    "family_braid",
    "gap_function_of",
    "hull_closed_form",
    "hull_of",
    "hull_vertices",
    "is_restorable",
    "knot_invariants",
    "legendre_fenchel",
    "lower_convex_envelope",
    "named_braid",
    "negate",
    "normalize",
    "designed_family_alexander",
    "semigroup_closed_form",
    "torus_braid",
    "torus_semigroup",
    "upsilon_of",
    "verify_family_pair",
]
