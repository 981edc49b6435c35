"""Exception hierarchy.

Every error deliberately raised by this package derives from UpsilonLabError,
so the CLI can turn any of them into a diagnostic and a clean exit code.
"""


class UpsilonLabError(Exception):
    """Base class for all errors raised by upsilon_lab."""


class NonExactDivision(UpsilonLabError):
    """Polynomial division left a nonzero remainder.

    Signals a wrong input polynomial; carries the exponent where the first
    nonzero remainder term appeared.
    """

    def __init__(self, message, exponent=None):
        super().__init__(message)
        self.exponent = exponent


class NotAKnot(UpsilonLabError):
    """The braid closure has more than one component."""


class TooManyStrands(UpsilonLabError):
    """The braid has more strands than braids.MAX_STRANDS allows for the Burau determinant.

    Raised after the component check, before any matrix is built.
    """


class WordTooLong(UpsilonLabError):
    """A braid word from the command line has more than braids.MAX_LETTERS letters.

    Raised before the word is built.
    """


class NotLSpaceForm(UpsilonLabError):
    """Polynomial is not in L-space form (alternating +-1 coefficients).

    Carries the first offending exponent when the failure is a bad partial
    coefficient sum.
    """

    def __init__(self, message, exponent=None):
        super().__init__(message)
        self.exponent = exponent


class BadParameters(UpsilonLabError):
    """Invalid parameters for a rank-two semigroup."""


class OutOfDomain(UpsilonLabError):
    """Evaluation point lies outside the function's domain."""


class RaysInconsistent(UpsilonLabError):
    """A boundary ray would cut below a sample point."""


class NotConvex(UpsilonLabError):
    """Operation requires a convex piecewise-linear function."""


class InvalidStepPattern(UpsilonLabError):
    """A step profile does not encode a valid gap sequence."""


class GenusTooLarge(UpsilonLabError):
    """The input's genus exceeds semigroups.MAX_GENUS; nothing of size g was built."""


class CountTooCostly(UpsilonLabError):
    """Exact profile counting over this hull would exceed restorability.MAX_COUNT_WORK.

    Raised before any counting is done.
    """


class MalformedHull(UpsilonLabError):
    """Hull cannot arise as the convex envelope of any gap function."""


class BadOrdering(UpsilonLabError):
    """Ratios violate the required ordering 1 >= r1 >= r2 >= r3 >= 0."""


class UnknownName(UpsilonLabError):
    """No catalog entry or named braid under this name."""


def json_type(value) -> str:
    """JSON's name for the type of a json.loads value, for refusal messages.

    >>> [json_type(v) for v in (None, True, 7, 1.5, "s", [], {})]
    ['null', 'boolean', 'number', 'number', 'string', 'array', 'object']
    """
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"
