"""Exactness checks for every benchmark operation.

Each check compares one ``cli.main`` result with references that do not come
from the code path under test: closed forms from ``family``
(``hull_closed_form``, ``semigroup_closed_form``, ``alexander_closed_form``),
``torus_semigroup``, the generator's own gap sequences and planted census
structure, and integer re-derivations written here (the gap function, the
lower-envelope property, the Legendre transform at every breakpoint).
``check`` returns None when the output is right and a one-line reason when
it is not; it never raises on a bad output.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

from workloads import Op, alexander_pairs


def gap_values(gaps) -> list[int]:
    """Samples 2 * #{gaps >= g - k} at k = -g..g, for a sorted gap sequence."""
    g = len(gaps)
    return [2 * (g - bisect_left(gaps, g - k)) for k in range(-g, g + 1)]


def envelope_error(hull: dict, values: list[int]) -> str | None:
    """Why the hull JSON is not the lower convex envelope of the samples (rays 0 and 2).

    A convex function whose vertices are samples and which lies on or below
    every sample is the envelope, so those three properties are checked, in
    integer arithmetic.
    """
    g = (len(values) - 1) // 2
    if hull.get("domain") != "line" or hull.get("left_slope") != "0" or hull.get("right_slope") != "2":
        return f"hull rays {hull.get('left_slope')}, {hull.get('right_slope')} are not 0, 2"
    verts = []
    for x, y in hull["vertices"]:
        xf, yf = Fraction(x), Fraction(y)
        if xf.denominator != 1 or not -g <= xf <= g or values[int(xf) + g] != yf:
            return f"hull vertex ({x}, {y}) is not a sample"
        verts.append((int(xf), int(yf)))
    slopes = [Fraction(0)] + [Fraction(b[1] - a[1], b[0] - a[0]) for a, b in zip(verts, verts[1:])]
    if any(s >= t for s, t in zip(slopes, slopes[1:] + [Fraction(2)])):
        return "hull slopes are not strictly increasing"
    (x0, y0), (xl, yl) = verts[0], verts[-1]
    if y0 != 0 or yl > 2 * xl:
        return "hull rays cut above the gap function"
    j = 0
    for k in range(-g, g + 1):
        v = values[k + g]
        if k <= x0:
            above = y0 > v
        elif k >= xl:
            above = yl + 2 * (k - xl) > v
        else:
            while verts[j + 1][0] < k:
                j += 1
            (xa, ya), (xb, yb) = verts[j], verts[j + 1]
            above = ya * (xb - xa) + (yb - ya) * (k - xa) > v * (xb - xa)
        if above:
            return f"hull lies above the sample at x = {k}"
    return None


def transform_error(upsilon: dict, hull: dict) -> str | None:
    """Why the Upsilon JSON is not the Legendre-Fenchel conjugate of the hull on [0, 2]."""
    verts = [(Fraction(x), Fraction(y)) for x, y in hull["vertices"]]

    def conj(t: Fraction) -> Fraction:
        return max(t * x - y for x, y in verts)

    if upsilon.get("domain") != ["0", "2"]:
        return f"Upsilon domain {upsilon.get('domain')} is not [0, 2]"
    pts = [(Fraction(t), Fraction(u)) for t, u in upsilon["vertices"]]
    if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
        return "Upsilon breakpoints are not increasing"
    for t, u in pts:
        if conj(t) != u:
            return f"Upsilon({t}) = {u}, conjugate gives {conj(t)}"
    for (ta, ua), (tb, ub) in zip(pts, pts[1:]):
        if conj((ta + tb) / 2) != (ua + ub) / 2:
            return f"Upsilon misses a breakpoint in ({ta}, {tb})"
    slopes = [(b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(pts, pts[1:])]
    if any(s == t for s, t in zip(slopes, slopes[1:])):
        return "Upsilon keeps a collinear breakpoint"
    return None


def closure_witness(gaps) -> list[int] | None:
    """First (s, s') with s <= s' in S and s + s' a gap, or None if S is closed."""
    gapset = set(gaps)
    bound = 2 * len(gaps)
    members = [s for s in range(bound) if s not in gapset]
    for i, s in enumerate(members):
        for sp in members[i:]:
            if s + sp >= bound:
                break
            if s + sp in gapset:
                return [s, sp]
    return None


def _is_symmetric(pairs) -> bool:
    coeffs = dict((e, c) for e, c in pairs)
    lo, hi = min(coeffs), max(coeffs)
    return all(coeffs.get(lo + i, 0) == coeffs.get(hi - i, 0) for i in range(hi - lo + 1))


def _check_invariants(op: Op, out: dict) -> str | None:
    ref = op.ref
    gaps = ref["gaps"]
    g = len(gaps)
    if out["alexander"] != ref["alexander"]:
        return "alexander differs from the reference polynomial"
    if out["semigroup"] != {"genus": g, "gaps": gaps} or out["genus"] != g:
        return "semigroup differs from the reference gap sequence"
    if out["surgery_threshold"] != 2 * g - 1:
        return "surgery threshold is not 2g - 1"
    values = gap_values(gaps)
    if out["gap_function"] != {"genus": g, "values": values}:
        return "gap function differs from the re-derived samples"
    if "hull" in ref and out["hull"] != ref["hull"]:
        return "hull differs from hull_closed_form"
    reason = envelope_error(out["hull"], values) or transform_error(out["upsilon"], out["hull"])
    if reason:
        return reason
    if out["upsilon_breakpoints"] != out["upsilon"]["vertices"]:
        return "upsilon_breakpoints disagree with the Upsilon vertices"
    witness = closure_witness(gaps)
    if out["semigroup_closed"] != (witness is None) or out["closure_witness"] != witness:
        return f"closure check reports {out['closure_witness']}, expected {witness}"
    if out["symmetric"] != _is_symmetric(ref["alexander"]):
        return "symmetry flag is wrong"
    return None


def _check_plot(op: Op, stdout: str) -> str | None:
    path = Path(op.ref["out"])
    if stdout or not path.is_file() or path.stat().st_size == 0:
        return "plot wrote no SVG file"
    try:
        root = ET.fromstring(path.read_bytes())
    except ET.ParseError as exc:
        return f"SVG is not well-formed: {exc}"
    if not root.tag.endswith("svg"):
        return f"root element is {root.tag}, not svg"
    curves = sum(1 for el in root.iter() if el.tag.endswith("polyline"))
    if curves != op.ref["curves"]:
        return f"SVG has {curves} curves, expected {op.ref['curves']}"
    return None


FAMILY_CHECKS = {"alexander_distinct", "semigroup_K1", "semigroup_K2", "envelope_K1", "envelope_K2",
                 "upsilon_equal", "torres_K1", "torres_K2", "not_semigroup_K1", "not_semigroup_K2"}


def _check_family(op: Op, out: dict) -> str | None:
    results = out.get("results", [])
    if out.get("ok") is not True or [r["n"] for r in results] != [op.ref["n"]]:
        return "family verify did not pass for the requested n"
    checks = results[0]["checks"]
    missing = FAMILY_CHECKS - set(checks)
    if missing:
        return f"family verify skipped {sorted(missing)}"
    if not all(c["ok"] for c in checks.values()):
        return "a family check failed"
    return None


def _check_restore(op: Op, out: dict) -> str | None:
    ref = op.ref
    gaps = ref["gaps"]
    hull = out["hull"]
    if "hull" in ref and hull != ref["hull"]:
        return "hull differs from hull_closed_form"
    reason = envelope_error(hull, gap_values(gaps))
    if reason:
        return reason
    witnesses = out["witnesses"]
    truncated = out["budget_exhausted"]
    if out["total_count"] < len(witnesses) or out["total_count"] < out["symmetric_count"]:
        return "counts are below the number of profiles reported"
    for w in witnesses:
        if len(w) != len(gaps):
            return f"witness {w} has the wrong genus"
        reason = envelope_error(hull, gap_values(w))
        if reason:
            return f"witness envelope is not the hull: {reason}"
        if not ref["all"] and not _is_symmetric(alexander_pairs(w)):
            return "default mode reported an asymmetric witness"
    if truncated:
        return None
    expected_reported = out["total_count"] if ref["all"] else out["symmetric_count"]
    if len(witnesses) != expected_reported:
        return "an untruncated report omits witnesses"
    if gaps not in witnesses:
        return "the request's own gap sequence is not among the witnesses"
    if ref["pinned"] is not None and (out["total_count"], out["symmetric_count"]) != tuple(ref["pinned"]):
        return f"counts {out['total_count']}/{out['symmetric_count']} differ from pinned {ref['pinned']}"
    if ref.get("designed") and (out["symmetric_count"] != 1 or out["unique"] is not True):
        return "designed family member is not uniquely restorable"
    return None


def _check_braid(op: Op, out: dict) -> str | None:
    ref = op.ref
    pairs = out["alexander"]
    if "word" in ref:
        if out["braid"] != {"strands": ref["strands"], "word": ref["word"]}:
            return "braid echo differs from the request"
        if out["exponent_sum"] != sum(1 if x > 0 else -1 for x in ref["word"]):
            return "exponent sum is wrong"
    if "alexander" in ref:
        return None if pairs == ref["alexander"] else "Burau polynomial differs from the reference"
    if not pairs or pairs[0][0] != 0 or sum(c for _, c in pairs) != 1:
        return "Burau polynomial is not normalised to Delta(1) = 1"
    return None if _is_symmetric(pairs) else "Burau polynomial is not symmetric"


def _check_census(op: Op, out: dict) -> str | None:
    ref = op.ref
    if out["records"] != ref["records"]:
        return f"scanned {out['records']} records, expected {ref['records']}"
    if len(out["warnings"]) != ref["warnings"]:
        return f"{len(out['warnings'])} warnings, expected {ref['warnings']}"
    if out["delta_duplicate_groups"] != ref["delta_groups"]:
        return "Alexander duplicate groups differ from the planted ones"
    planted = ref["planted"]
    for pair in planted["pairs"]:
        if pair not in out["upsilon_equal_delta_distinct"]:
            return f"planted Upsilon-equal pair {pair} is missing"
    if not any(set(planted["duplicate"]) <= set(group) for group in out["upsilon_duplicate_groups"]):
        return "planted duplicate is missing from the Upsilon groups"
    for key in ("delta_duplicate_groups", "upsilon_duplicate_groups", "upsilon_equal_delta_distinct"):
        groups = out[key]
        if groups != sorted(groups) or any(g != sorted(g) for g in groups):
            return f"{key} is not in canonical order"
    return None


def check(op: Op, rc, stdout: str) -> str | None:
    """None when the output of ``op`` is exactly right, else the first reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        if op.kind == "plot":
            return _check_plot(op, stdout)
        out = json.loads(stdout)
        if op.kind == "invariants":
            return _check_invariants(op, out)
        if op.kind == "family":
            return _check_family(op, out)
        if op.kind == "restore":
            return _check_restore(op, out)
        if op.kind == "braid":
            return _check_braid(op, out)
        return _check_census(op, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
