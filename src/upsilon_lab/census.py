"""Census scanning: duplicate detection across a list of knots.

Input is JSON lines, one record per knot:

    {"name": "t09847", "alexander": [[0, 1], [1, -1], ...]}

Records are grouped by canonical Alexander polynomial and by Upsilon.  The
Upsilon key is the integer vertex tuple of the gap function's convex
envelope.  parse_census_line reads the "alexander" pairs and takes the gap
runs from the one gate on the L-space shape 1 - t + t^{a_2} - ... + t^{2g}
and deg = 2g, and keeps them on the record; it sweeps no hull.  Pairs in the
order json.dumps writes such a Delta in (exponents rising from 0,
coefficients +1, -1, ..., +1) are validated and gated in one pass
(semigroups._lspace_pairs); any other value is validated term by term
(from_pairs) and then gated (semigroups.lspace_runs), with the same result
and the same warnings.
The key is exact: every envelope has rays of slope 0 and 2, so its vertices
determine it; Upsilon is its Legendre-Fenchel transform, and the transform
is an involution on convex functions.  So two records have equal hulls
exactly when they have equal Upsilon, and a scan builds no gap function and
no PLFunction.

The three keys are nested, so scan_census refines from the cheapest to the
dearest.  Delta determines the gap runs, hence the hull; the hull runs from
(-g, 0) to (g, 2g), hence determines the genus, which is read off the last
run.  So only records that share a genus can share a hull, and only records
that share a hull can share Delta: a hull is swept only inside a genus
group of two or more, and Delta is hashed only inside an Upsilon group of
two or more.  Interesting output: duplicate groups of either kind and the
Upsilon-equal-but-Alexander-distinct pairs, all sorted by name so permuting
the input lines cannot change the report.  Malformed lines are skipped
with a warning, never fatal.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from itertools import combinations, product

from .errors import NotLSpaceForm, UpsilonLabError, json_type
from .invariants import _corners
from .laurent import IntLaurentPoly
from .piecewise import _lower_hull
from .records import Record
from .semigroups import _lspace_pairs, gap_runs, lspace_runs


class CensusRecord(Record):
    """One census knot: its name, its Delta and the gap runs the gate built.

    The runs sit in a private slot.  CensusRecord(name, delta) takes them
    from semigroups.gap_runs; parse_census_line passes the ones
    lspace_runs gave it.  genus is read from the last run, and hull, the
    Upsilon key, is swept from the runs each time it is read, so a record
    that no scan compares by Upsilon never pays for a sweep.  ==, hash and
    repr read name and delta only: the runs, the genus and the hull are
    functions of delta.
    """

    __slots__ = ("name", "delta", "_runs")
    _compared = ("name", "delta")

    name: str
    delta: IntLaurentPoly

    def __init__(self, name: str, delta: IntLaurentPoly,
                 _runs: list[tuple[int, int]] | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "_runs", gap_runs(delta) if _runs is None else _runs)

    @property
    def genus(self) -> int:
        """Half of deg Delta, where the last gap run ends."""
        runs = self._runs
        return runs[-1][1] // 2 if runs else 0

    @property
    def hull(self) -> tuple[tuple[int, int], ...]:
        """Vertices of the gap function's convex envelope: invariants.hull_vertices(delta)."""
        return tuple(_lower_hull(_corners(self._runs)))


def alexander_from_json(value) -> IntLaurentPoly:
    """The polynomial of a JSON "alexander" value, an array of [exponent, coefficient] pairs.

    A value that is not an array is refused first: from_pairs would read a
    string or an object as pairs, and "" or {} as the zero polynomial.
    from_pairs validates every term; only once it has failed are the pairs
    inspected, so a valid value pays nothing.  parse_census_line and
    --alexander come here only for a value the one-pass reader
    (_alexander_and_runs) does not take.  A pair that is not a
    2-element array is refused in JSON's terms, naming the first one; any
    other failure keeps from_pairs' own message.

    >>> alexander_from_json([[0, 1], [1, -1], [2, 1]])
    IntLaurentPoly('1 - t + t^2')
    >>> alexander_from_json({"0": 1})
    Traceback (most recent call last):
    ...
    TypeError: "alexander" must be a JSON array, got object
    >>> alexander_from_json([[0, 1], [1, -1, 2]])
    Traceback (most recent call last):
    ...
    TypeError: pair 2 of "alexander" must be an array of 2 integers, got array of 3
    """
    if not isinstance(value, list):
        raise TypeError(f'"alexander" must be a JSON array, got {json_type(value)}')
    try:
        return IntLaurentPoly.from_pairs(value)
    except (TypeError, ValueError):
        for i, pair in enumerate(value, start=1):
            if not isinstance(pair, list) or len(pair) != 2:
                got = f"array of {len(pair)}" if isinstance(pair, list) else json_type(pair)
                raise TypeError(
                    f'pair {i} of "alexander" must be an array of 2 integers, got {got}') from None
            if type(pair[0]) is not int or type(pair[1]) is not int:
                break  # the pair from_pairs refused, in its own words
        raise


def _alexander_and_runs(value) -> tuple[IntLaurentPoly, list[tuple[int, int]] | None]:
    """alexander_from_json(value) and its lspace_runs, raising what they raise.

    Pairs in json.dumps' order of an L-space Delta take one pass
    (semigroups._lspace_pairs); any other value takes the two steps.
    """
    read = _lspace_pairs(value) if type(value) is list else None
    if read is None:
        delta = alexander_from_json(value)
        read = delta, lspace_runs(delta)
    return read


def parse_census_line(line: str) -> CensusRecord:
    """One JSON line to a record: alexander_from_json, then the lspace_runs gate (_alexander_and_runs).

    Raises a TypeError for a value that is not a JSON object, a ValueError
    for a missing "name" or "alexander" key, a TypeError for a name that is
    not a string or an "alexander" value that alexander_from_json refuses,
    then an UpsilonLabError for a shape other than the L-space shape or a
    NotLSpaceForm for deg != 2g, both naming the record.  No hull is swept.
    """
    data = json.loads(line)
    if not isinstance(data, dict):
        raise TypeError(f"record must be a JSON object, got {json_type(data)}")
    for key in ("name", "alexander"):
        if key not in data:
            raise ValueError(f'record has no "{key}" key')
    name = data["name"]
    if not isinstance(name, str):
        raise TypeError(f"record name must be a string, got {json_type(name)}")
    try:
        delta, runs = _alexander_and_runs(data["alexander"])
    except NotLSpaceForm as exc:
        raise NotLSpaceForm(f"record {name!r}: {exc}") from None
    if runs is None:
        raise UpsilonLabError(f"record {name!r}: polynomial is not in L-space form")
    return CensusRecord(name, delta, runs)


def load_census(path: str | os.PathLike[str]) -> tuple[list[CensusRecord], list[str]]:
    """Read a JSON-lines census file; malformed records become warnings.

    So does a line nested too deeply for json.loads, which raises RecursionError,
    and a line that is not valid UTF-8: its bytes are read as lone surrogates,
    and decoding them again raises UnicodeDecodeError.  A leading UTF-8
    byte-order mark is dropped.
    """
    records: list[CensusRecord] = []
    warnings: list[str] = []
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                records.append(parse_census_line(line))
            except (UpsilonLabError, ValueError, TypeError, RecursionError) as exc:
                warnings.append(f"line {lineno}: skipped ({exc})")
    return records, warnings


def scan_census(records: Iterable[CensusRecord]) -> dict:
    """Group records by canonical Alexander and by Upsilon, via the hull.

    Refines genus -> hull -> Delta: each key is built only for records
    whose cheaper key another record shares (see the module docstring), so
    the groups are those of keying every record by hull and by Delta.  Both
    keys are canonical, hashable objects: a hull is only built for a
    polynomial with minimum exponent 0 and constant term 1, and its sweep
    drops collinear vertices.  Output order is independent of input order:
    names within a group are sorted, and so are the groups.
    """
    records = list(records)

    # Group record indices, not names: names need not be unique.
    by_genus: dict[int, list[int]] = {}
    for i, record in enumerate(records):
        by_genus.setdefault(record.genus, []).append(i)
    by_upsilon: dict[tuple[tuple[int, int], ...], list[int]] = {}
    for group in by_genus.values():
        if len(group) > 1:
            for i in group:
                by_upsilon.setdefault(records[i].hull, []).append(i)

    delta_groups, upsilon_groups, cross_pairs = [], [], []
    for group in by_upsilon.values():
        if len(group) < 2:
            continue
        upsilon_groups.append(sorted(records[i].name for i in group))
        by_delta: dict[IntLaurentPoly, list[str]] = {}
        for i in group:
            by_delta.setdefault(records[i].delta, []).append(records[i].name)
        delta_groups += (sorted(names) for names in by_delta.values() if len(names) > 1)
        # Every pair of names drawn from two different Alexander classes.
        for one, other in combinations(by_delta.values(), 2):
            cross_pairs += ([a, b] if a <= b else [b, a] for a, b in product(one, other))
    delta_groups.sort()
    upsilon_groups.sort()
    cross_pairs.sort()

    return {
        "records": len(records),
        "delta_duplicate_groups": delta_groups,
        "upsilon_duplicate_groups": upsilon_groups,
        "upsilon_equal_delta_distinct": cross_pairs,
    }


def sample_census_path() -> os.PathLike[str]:
    """Path of the bundled 10-record sample file, a pathlib.Path."""
    import pathlib  # here, not at the top: nothing else needs it, and it slows a cold start

    return pathlib.Path(__file__).resolve().parent / "data" / "census_sample.jsonl"
