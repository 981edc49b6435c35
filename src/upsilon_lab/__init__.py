"""Exact invariants of L-space knots.

From an L-space-form Alexander polynomial the package derives the formal
semigroup, gap sequence, gap function, its lower convex envelope, and the
Upsilon invariant as an exact piecewise-linear function; decides whether the
polynomial can be restored from Upsilon; computes Alexander polynomials of
braid closures through the reduced Burau representation; and applies the
coprime-pair L-space criterion to small Seifert forms.  All arithmetic is
exact (integers and Fractions); nothing here floats.

Importing the package loads none of its submodules.  Each name in __all__
is imported from its home submodule on first access, and the command line
(upsilon_lab.cli) imports inside each subcommand the modules only that
subcommand runs, so a process loads only what its work needs: a census scan
or a braid closure never loads the fractions module.
"""

# Each public name -> the submodule it lives in, for __getattr__ (PEP 562) and __all__.
_HOMES = {
    name: module
    for module, names in (
        ("braids", ("BraidWord", "family_braid", "named_braid", "torus_braid")),
        ("family", ("CatalogEntry", "FamilyKnot", "FamilyVerification", "alexander_closed_form",
                    "alexander_via_burau", "alexander_via_torres", "catalog_knot",
                    "catalog_names", "hull_closed_form", "semigroup_closed_form",
                    "verify_family_pair")),
        ("gapfunctions", ("GapFunction",)),
        ("invariants", ("gap_function_of", "hull_of", "hull_vertices", "knot_invariants",
                        "upsilon_of")),
        ("laurent", ("IntLaurentPoly", "determinant")),
        ("piecewise", ("PLFunction", "legendre_fenchel", "lower_convex_envelope")),
        ("restorability", ("RestorabilityReport", "enumerate_gap_functions", "is_restorable",
                           "designed_family_alexander")),
        ("seifert", ("LSpaceVerdict", "SeifertForm", "coprime_obstruction", "decide", "negate",
                     "normalize")),
        ("semigroups", ("FormalSemigroup", "torus_semigroup")),
    )
    for name in names
}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it here, without __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
