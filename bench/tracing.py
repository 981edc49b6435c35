"""Per-layer spans for the traced benchmark run, recorded from outside ``src/``.

``install`` replaces the public callables of each layer module with timing
wrappers: module-level functions (in every ``upsilon_lab`` namespace that
binds them, so names rebound by ``from ... import`` are covered) and the
methods of public classes, plus a few special methods that are layer
boundaries (``PLFunction.__init__``/``__call__``, ``IntLaurentPoly.__mul__``)
and the CLI's private ``_emit``.  The returned undo list restores the
originals, so an untraced run in the same process sees the plain code.

Each call records one span (label, parent span, operation index, start,
end) in flat arrays kept in memory; ``write_spans`` dumps them when the run
ends.  A layer's self time is its spans' duration minus the time of their
direct child spans; the counts come from hooks that read a call's arguments
or result after its span has closed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "invariants", "semigroups", "gapfunctions", "piecewise", "restorability",
           "census", "laurent", "braids", "family", "svgplot")

# Non-public callables that mark a layer boundary.
EXTRA = {"cli._emit", "piecewise.PLFunction.__init__", "piecewise.PLFunction.__call__",
         "laurent.IntLaurentPoly.__mul__"}
# Accessors and constructors called in inner loops at well under a
# microsecond each; a span per call would dwarf the work and bury the
# caller's self time, so their cost stays in the caller.
UNTRACED = {"semigroups.FormalSemigroup.contains", "semigroups.FormalSemigroup.count_gaps_at_least",
            "gapfunctions.GapFunction.value_at", "laurent.IntLaurentPoly.coeff",
            "laurent.IntLaurentPoly.items", "laurent.IntLaurentPoly.zero",
            "laurent.IntLaurentPoly.one", "laurent.IntLaurentPoly.monomial",
            "laurent.IntLaurentPoly.t"}


class Tracer:
    """Spans in flat arrays plus named counters."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_index = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.closures: list = []

    def label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def open(self, label_id: int) -> int:
        i = len(self.label)
        self.label.append(label_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_index)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time (s) and span count per label."""
        n = len(self.label)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.labels[self.label[i]]
            total[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return total, calls

    def spans_in_ops(self, label: str, ops: set[int]) -> int:
        lid = self._ids.get(label)
        return sum(1 for i in range(len(self.label)) if self.label[i] == lid and self.op[i] in ops)


def _closure_pairs(semigroup, result) -> int:
    """Pairs is_closed_under_addition examined: s <= s' in S, s + s' < 2g, up to the witness."""
    bound = 2 * semigroup.genus
    members = semigroup.elements_below(bound)
    closed, witness = result
    pairs = 0
    hi = len(members)
    for i, s in enumerate(members):
        while hi > i and s + members[hi - 1] >= bound:
            hi -= 1
        if witness is not None and s == witness[0]:
            return pairs + members.index(witness[1], i) - i + 1
        pairs += max(0, hi - i)
    return pairs


def _count(tracer: Tracer, key: str, value: int) -> None:
    tracer.counts[key] += value


# Counters read at layer boundaries: label -> hook(tracer, args, result).
HOOKS = {
    "semigroups.FormalSemigroup.from_alexander":
        lambda t, a, r: _count(t, "semigroups.exponents_scanned", a[1].max_exp + 1),
    "semigroups.FormalSemigroup.is_closed_under_addition":
        lambda t, a, r: t.closures.append((a[0], r)),
    "gapfunctions.GapFunction.from_semigroup":
        lambda t, a, r: _count(t, "gapfunctions.samples", len(r.values)),
    "piecewise.lower_convex_envelope":
        lambda t, a, r: (_count(t, "piecewise.envelope_points", len(a[0])),
                         _count(t, "piecewise.hull_vertices", len(r.vertices))),
    "restorability.enumerate_gap_functions":
        lambda t, a, r: (_count(t, "restorability.profiles_total", r.total_count),
                         _count(t, "restorability.witnesses", len(r.witnesses)),
                         _count(t, "restorability.reports", 1),
                         _count(t, "restorability.truncated", int(r.budget_exhausted))),
    "census.load_census":
        lambda t, a, r: _count(t, "census.skipped_lines", len(r[1])),
    "braids.BraidWord.alexander_of_closure":
        lambda t, a, r: _count(t, "braids.letters", len(a[0].letters)),
    "svgplot.build_svg":
        lambda t, a, r: _count(t, "svgplot.bytes_written", len(r.encode("utf-8"))),
}


def _wrap(tracer: Tracer, label: str, fn):
    lid = tracer.label_id(label)
    hook = HOOKS.get(label)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(lid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return traced


def _wanted(label: str, attr: str) -> bool:
    if label in UNTRACED:
        return False
    return not attr.startswith("_") or label in EXTRA


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every layer's public callables; returns (owner, name, original) to undo."""
    undo = []
    by_function: dict[int, object] = {}
    for short in MODULES:
        mod = importlib.import_module(f"upsilon_lab.{short}")
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and _wanted(f"{short}.{name}", name):
                by_function[id(obj)] = _wrap(tracer, f"{short}.{name}", obj)
            elif inspect.isclass(obj) and not name.startswith("_"):
                undo += _install_class(tracer, f"{short}.{name}", obj)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "upsilon_lab" or mod_name.startswith("upsilon_lab.")):
            continue
        for name, obj in list(vars(mod).items()):
            wrapper = by_function.get(id(obj))
            if wrapper is not None and inspect.isfunction(obj):
                undo.append((mod, name, obj))
                setattr(mod, name, wrapper)
    return undo


def _install_class(tracer: Tracer, prefix: str, cls) -> list[tuple[object, str, object]]:
    undo = []
    replaced: dict[int, object] = {}
    for attr, raw in list(vars(cls).items()):
        label = f"{prefix}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            fn = raw.__func__
        elif inspect.isfunction(raw):
            fn = raw
        else:
            continue
        if id(fn) in replaced:  # an alias such as __rmul__ = __mul__
            new = replaced[id(fn)]
        elif _wanted(label, attr):
            new = _wrap(tracer, label, fn)
            replaced[id(fn)] = new
        else:
            continue
        undo.append((cls, attr, raw))
        setattr(cls, attr, type(raw)(new) if isinstance(raw, (classmethod, staticmethod)) else new)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def write_spans(tracer: Tracer, path) -> None:
    """One line per span: id, parent, op, label, start and end in microseconds."""
    t0 = tracer.start[0] if len(tracer.start) else 0.0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write("id\tparent\top\tlabel\tstart_us\tend_us\n")
        for i in range(len(tracer.label)):
            out.write(f"{i}\t{tracer.parent[i]}\t{tracer.op[i]}\t{tracer.labels[tracer.label[i]]}\t"
                      f"{(tracer.start[i] - t0) * 1e6:.3f}\t{(tracer.end[i] - t0) * 1e6:.3f}\n")


# Per-layer metric -> span label whose self time (ms per operation) it reports.
SELF_MS = {
    "cli.main_ms": "cli.main",
    "cli.build_parser_ms": "cli.build_parser",
    "cli.emit_ms": "cli._emit",
    "invariants.report_ms": "invariants.knot_invariants",
    "semigroups.from_alexander_ms": "semigroups.FormalSemigroup.from_alexander",
    "semigroups.closure_check_ms": "semigroups.FormalSemigroup.is_closed_under_addition",
    "gapfunctions.from_semigroup_ms": "gapfunctions.GapFunction.from_semigroup",
    "piecewise.envelope_ms": "piecewise.lower_convex_envelope",
    "piecewise.transform_ms": "piecewise.legendre_fenchel",
    "piecewise.plfunction_init_ms": "piecewise.PLFunction.__init__",
    "piecewise.pl_eval_ms": "piecewise.PLFunction.__call__",
    "restorability.search_ms": "restorability.enumerate_gap_functions",
    "census.load_ms": "census.load_census",
    "census.parse_ms": "census.parse_census_line",
    "census.group_ms": "census.scan_census",
    "laurent.mul_ms": "laurent.IntLaurentPoly.__mul__",
    "laurent.exact_div_ms": "laurent.IntLaurentPoly.exact_div",
    "laurent.determinant_ms": "laurent.determinant",
    "braids.burau_product_ms": "braids.BraidWord.reduced_burau",
    "braids.closure_ms": "braids.BraidWord.alexander_of_closure",
    "family.torres_ms": "family.alexander_via_torres",
    "family.verify_ms": "family.verify_family_pair",
    "svgplot.build_ms": "svgplot.build_svg",
}
# Per-layer metric -> span label whose call count (per operation) it reports.
CALLS = {
    "piecewise.envelope_calls": "piecewise.lower_convex_envelope",
    "piecewise.pl_eval_calls": "piecewise.PLFunction.__call__",
    "laurent.mul_calls": "laurent.IntLaurentPoly.__mul__",
}
# Per-layer counters accumulated by HOOKS (reported per operation).
COUNTS = ("semigroups.exponents_scanned", "semigroups.closure_pairs", "gapfunctions.samples",
          "piecewise.envelope_points", "piecewise.hull_vertices", "restorability.profiles_total",
          "restorability.witnesses", "census.skipped_lines", "braids.letters", "svgplot.bytes_written")


def layer_metrics(tracer: Tracer, op_kinds: list[str]) -> dict[str, float]:
    """Per-operation self times and counts derived from one traced pass."""
    ops = max(1, len(op_kinds))
    for semigroup, result in tracer.closures:
        tracer.counts["semigroups.closure_pairs"] += _closure_pairs(semigroup, result)
    tracer.closures.clear()
    total, calls = tracer.self_times()
    metrics = {name: total.get(label, 0.0) * 1000 / ops for name, label in SELF_MS.items()}
    metrics.update({name: calls.get(label, 0) / ops for name, label in CALLS.items()})
    metrics.update({name: tracer.counts.get(name, 0) / ops for name in COUNTS})
    reports = tracer.counts.get("restorability.reports", 0)
    metrics["restorability.truncated_ratio"] = (
        tracer.counts.get("restorability.truncated", 0) / reports if reports else 0.0)
    report_ops = {i for i, kind in enumerate(op_kinds) if kind in ("invariants", "plot")}
    metrics["invariants.envelopes_per_op"] = (
        tracer.spans_in_ops("piecewise.lower_convex_envelope", report_ops) / len(report_ops)
        if report_ops else 0.0)
    return metrics
