"""Census scanning: duplicate detection across a list of knots.

Input is JSON lines, one record per knot:

    {"name": "t09847", "alexander": [[0, 1], [1, -1], ...]}

Records are grouped by canonical Alexander polynomial and by Upsilon.  The
Upsilon key is the integer vertex tuple of the gap function's convex
envelope.  parse_census_line validates each term once (from_pairs), then
takes the gap runs from semigroups.lspace_runs, the one gate on the L-space
shape 1 - t + t^{a_2} - ... + t^{2g} and deg = 2g, so Delta and the hull are
built in O(terms) with no second validation.
The key is exact: every envelope has rays of slope 0 and 2, so its vertices
determine it; Upsilon is its Legendre-Fenchel transform, and the transform
is an involution on convex functions.  So two records have equal hulls
exactly when they have equal Upsilon, and a scan builds no gap function and
no PLFunction.  Interesting output: duplicate groups of either kind and the
Upsilon-equal-but-Alexander-distinct pairs, all sorted by name so permuting
the input lines cannot change the report.  Malformed lines are skipped
with a warning, never fatal.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable

from .errors import NotLSpaceForm, UpsilonLabError
from .invariants import _corners, hull_vertices
from .laurent import IntLaurentPoly
from .piecewise import _lower_hull
from .semigroups import lspace_runs


class CensusRecord:
    """One census knot; the hull is swept from delta unless it is given.

    Immutable.  ==, hash and repr read name and delta only: the hull is a
    function of delta.
    """

    __slots__ = ("name", "delta", "hull")

    name: str
    delta: IntLaurentPoly
    hull: tuple[tuple[int, int], ...]

    def __init__(self, name: str, delta: IntLaurentPoly,
                 hull: tuple[tuple[int, int], ...] | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "hull", hull_vertices(delta) if hull is None else hull)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.delta) == (other.name, other.delta)
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.delta))

    def __repr__(self):
        return f"CensusRecord(name={self.name!r}, delta={self.delta!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return (CensusRecord, (self.name, self.delta, self.hull))


def parse_census_line(line: str) -> CensusRecord:
    """One JSON line to a record: from_pairs, the lspace_runs gate, then the hull sweep.

    Raises a TypeError for a non-int entry, then an UpsilonLabError for a
    shape other than the L-space shape or a NotLSpaceForm for deg != 2g,
    both naming the record.
    """
    data = json.loads(line)
    name = str(data["name"])
    delta = IntLaurentPoly.from_pairs(data["alexander"])
    try:
        runs = lspace_runs(delta)
    except NotLSpaceForm as exc:
        raise NotLSpaceForm(f"record {name!r}: {exc}") from None
    if runs is None:
        raise UpsilonLabError(f"record {name!r}: polynomial is not in L-space form")
    return CensusRecord(name, delta, tuple(_lower_hull(_corners(runs))))


def load_census(path: str | os.PathLike[str]) -> tuple[list[CensusRecord], list[str]]:
    """Read a JSON-lines census file; malformed records become warnings."""
    records: list[CensusRecord] = []
    warnings: list[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                records.append(parse_census_line(line))
            except (UpsilonLabError, ValueError, KeyError, TypeError) as exc:
                warnings.append(f"line {lineno}: skipped ({exc})")
    return records, warnings


def scan_census(records: Iterable[CensusRecord]) -> dict:
    """Group records by canonical Alexander and by Upsilon, via the hull.

    Both keys are canonical, hashable objects: a hull is only built for a
    polynomial with minimum exponent 0 and constant term 1, and its sweep
    drops collinear vertices.  Output order is independent of
    input order: names within a group are sorted, and so are the groups.
    """
    records = list(records)

    # Group record indices, not names: names need not be unique.
    by_delta: dict[IntLaurentPoly, list[int]] = {}
    by_upsilon: dict[tuple[tuple[int, int], ...], list[int]] = {}
    for i, record in enumerate(records):
        by_delta.setdefault(record.delta, []).append(i)
        by_upsilon.setdefault(record.hull, []).append(i)

    def names(group: list[int]) -> list[str]:
        return sorted(records[i].name for i in group)

    delta_groups = sorted(names(g) for g in by_delta.values() if len(g) > 1)
    upsilon_groups = sorted(names(g) for g in by_upsilon.values() if len(g) > 1)
    cross_pairs = []
    for group in by_upsilon.values():
        for j, a in enumerate(group):
            for b in group[j + 1 :]:
                if records[a].delta != records[b].delta:
                    cross_pairs.append(names([a, b]))
    cross_pairs.sort()

    return {
        "records": len(records),
        "delta_duplicate_groups": delta_groups,
        "upsilon_duplicate_groups": upsilon_groups,
        "upsilon_equal_delta_distinct": cross_pairs,
    }


def sample_census_path() -> pathlib.Path:
    """Path of the bundled 10-record sample file."""
    import pathlib  # here, not at the top: nothing else needs it, and it slows a cold start

    return pathlib.Path(__file__).resolve().parent / "data" / "census_sample.jsonl"
