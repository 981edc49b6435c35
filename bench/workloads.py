"""Seeded inputs for the four benchmark workloads over the genus ladder.

Every workload is a fixed-shape pool of CLI operations in a fixed order; the
seed picks the knots that fill each slot (which torus knot near a target
genus, which random gap sequence, which family member), never how many slots
there are, their target genera or their order.  Keeping the shape fixed
keeps the cost and memory profile of one pass nearly the same from seed to
seed, so differences between seeds stay small next to the regression bounds.

An ``Op`` carries the argv for ``upsilon_lab.cli.main``, the number of knots
it processes (for ``records_per_s``), the files it needs on disk, and the
reference data ``checks.check`` compares its output against.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

from upsilon_lab import family, restorability, semigroups

WORKLOADS = ("census-ladder", "cli-reports", "restore-search", "burau-oracles")

# Target genera of the census records: the ladder g = 12 -> 500, spaced
# roughly geometrically, split into two halves of equal total genus.  Even
# files take the first half, odd files the second, so every file spans the
# ladder and all files cost about the same; latency percentiles then fall
# inside one plateau instead of between two unlike files.
CENSUS_HALVES = ((500, 320, 160, 100, 64, 40, 32, 20, 14),
                 (400, 256, 200, 128, 80, 56, 48, 28, 24, 16, 12))
CENSUS_FILES = 20
# Every fifth file also carries a g = 500 record: 4 heavier files make the
# 90th percentile one of them rather than the noise among equal files.
CENSUS_HEAVY_EVERY = 5
# Genera (g = 6n + 6) of the two planted K1(n)/K2(n) pairs of a file, in turn
# over the files; every plan sums to the same genus, so files cost alike.
CENSUS_PAIR_PLANS = ((12, 96), (24, 84), (36, 72), (48, 60))
# Each census file carries one handled malformed line, rotating through these.
MALFORMED_KINDS = ("bad_json", "missing_key", "non_alternating")

CENSUS_KINDS = ("torus", "designed", "gaps")


def ladder(lo: int, hi: int, count: int) -> tuple[int, ...]:
    """count genera spaced geometrically from lo to hi."""
    return tuple(round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count))


# cli-reports: a dense ladder, so that neighbouring requests differ little in
# cost and latency percentiles do not jump between two distant requests.
# The kind turns over the slots; the seed picks the knot of that kind.
REPORT_KINDS = ("torus", "family", "designed", "gaps")
INVARIANT_GENERA = ladder(12, 500, 40)
PLOT_GENERA = ladder(12, 384, 10)
FAMILY_VERIFY_OPS = 6

RESTORE_DESIGNED_M = (3, 6, 12, 25, 50, 100, 150, 200)
# Ladder torus knots for restore; from T(9,11) on the search hits the
# 10,000-solution cap, so these run in the default (symmetric) mode only.
RESTORE_TORUS = ((2, 5), (3, 7), (4, 7), (5, 7), (5, 9), (7, 9), (7, 11), (9, 11),
                 (11, 13), (13, 23))
# Random symmetric gap sequences stay at g <= 6 (--all only for g <= 5), where
# every search costs about as much as the CLI call around it, so the seed
# barely moves the median.
RESTORE_RANDOM_GENERA = (4, 4, 5, 5, 5, 6, 6, 6)

# Family words fill the middle and top of the cost range and the short torus
# and random words the bottom, so the latency percentiles land on
# deterministic family words rather than on random ones.
BURAU_FAMILY_N = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20, 23, 26, 30, 33, 36, 40)
BURAU_TORUS = ((2, 9), (2, 15), (3, 7), (3, 11), (4, 7), (5, 6))
BURAU_RANDOM = tuple((s, length) for s in (3, 4, 5) for length in (12, 20))


@dataclass
class Op:
    """One ``cli.main`` call and what its output must be."""

    kind: str
    argv: list[str]
    knots: int = 1
    ref: dict = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.argv)[:120]

    def write_files(self) -> None:
        for path, text in self.files.items():
            Path(path).write_text(text, encoding="utf-8")


# -- polynomial helpers shared with the checker -------------------------------


def alexander_pairs(gaps) -> list[list[int]]:
    """Delta = 1 + (t - 1) * sum_i t^{a_i} as sorted [exponent, coefficient] pairs."""
    terms = {0: 1}
    for a in gaps:
        terms[a + 1] = terms.get(a + 1, 0) + 1
        terms[a] = terms.get(a, 0) - 1
    return [[e, c] for e, c in sorted(terms.items()) if c]


def gaps_of_pairs(pairs) -> list[int]:
    """Gap sequence read off the partial coefficient sums of an L-space polynomial."""
    coeff = dict((e, c) for e, c in pairs)
    top = max(coeff)
    psum, gaps = 0, []
    for e in range(top + 1):
        psum += coeff.get(e, 0)
        if psum == 0:
            gaps.append(e)
    return gaps


def random_symmetric_gaps(g: int, rng: random.Random) -> list[int]:
    """A random gap sequence of genus g satisfying s in S <=> 2g-1-s not in S.

    0 is a member and 1 a gap, so the polynomial has L-space shape.
    """
    gaps = [2 * g - 1]
    for s in range(1, g):
        gaps.append(s if s == 1 or rng.random() < 0.5 else 2 * g - 1 - s)
    return sorted(gaps)


def torus_near(g: int, rng: random.Random) -> tuple[int, int]:
    """A torus knot T(p, q), 1 < p < q coprime, with genus within about 3% of g."""
    slack = max(1, g // 30)
    cands = []
    p = 2
    while (p - 1) * p // 2 <= g + slack:
        for q in range(p + 1, 2 * (g + slack) // (p - 1) + 2):
            if gcd(p, q) == 1 and abs((p - 1) * (q - 1) // 2 - g) <= slack:
                cands.append((p, q))
        p += 1
    return rng.choice(cands)


def family_ref(which: str, n: int) -> dict:
    knot = family.FamilyKnot(which, n)
    return {
        "alexander": family.alexander_closed_form(knot).to_pairs(),
        "gaps": list(family.semigroup_closed_form(knot).gaps),
        "hull": family.hull_closed_form(n).to_json(),
    }


def torus_ref(p: int, q: int) -> dict:
    s = semigroups.torus_semigroup(p, q)
    return {"alexander": s.to_alexander().to_pairs(), "gaps": list(s.gaps)}


def designed_pairs(m: int) -> list[list[int]]:
    return restorability.designed_family_alexander(m).to_pairs()


def _knot_at(g: int, kind: str, rng: random.Random) -> tuple[str, dict, list[str]]:
    """A knot of the kind with genus about g: (display name, reference, CLI spec flags).

    kind is "family" (the nearest g = 6n + 6), "torus", "designed" or "gaps".
    """
    if kind == "family":
        which, n = rng.choice(("K1", "K2")), max(1, round(g / 6) - 1)
        return f"{which}({n})", family_ref(which, n), ["--family", which, "--n", str(n)]
    if kind == "torus":
        p, q = torus_near(g, rng)
        return f"T({p},{q})", torus_ref(p, q), ["--torus", f"{p},{q}"]
    if kind == "designed":
        pairs = designed_pairs(g - 1)
        ref = {"alexander": pairs, "gaps": gaps_of_pairs(pairs)}
        return f"D({g - 1})", ref, ["--alexander", json.dumps(pairs)]
    gaps = random_symmetric_gaps(g, rng)
    ref = {"alexander": alexander_pairs(gaps), "gaps": gaps}
    return f"S{g}.{rng.randrange(10**6)}", ref, ["--alexander", json.dumps(ref["alexander"])]


# -- census-ladder ------------------------------------------------------------------


def _census_lines(rng: random.Random, tag: str, index: int) -> tuple[list[str], dict]:
    """Valid ladder records plus two planted K1/K2 pairs and one planted duplicate.

    index picks the ladder half and the pair genera, and turns the kind of
    each genus slot over the files.
    """
    records: list[tuple[str, list]] = []
    pairs = []
    for g in CENSUS_PAIR_PLANS[index // 2 % len(CENSUS_PAIR_PLANS)]:
        n = g // 6 - 1
        pairs.append([f"{tag}K1({n})", f"{tag}K2({n})"])
        records.append((pairs[-1][0], family_ref("K1", n)["alexander"]))
        records.append((pairs[-1][1], family_ref("K2", n)["alexander"]))
    genera = CENSUS_HALVES[index % 2]
    if index % CENSUS_HEAVY_EVERY == CENSUS_HEAVY_EVERY - 1:
        genera = (500,) + genera
    for i, g in enumerate(genera):
        name, ref, _ = _knot_at(g, CENSUS_KINDS[(i + index) % len(CENSUS_KINDS)], rng)
        records.append((f"{tag}{i}:{name}", ref["alexander"]))
    # Exact duplicate of the smallest-genus slot under a new name.
    original = records[-1]
    duplicate = (original[0] + "~dup", original[1])
    records.append(duplicate)
    planted = {"pairs": [sorted(p) for p in pairs], "duplicate": sorted([original[0], duplicate[0]])}
    lines = [json.dumps({"name": name, "alexander": pairs}) for name, pairs in records]
    return lines, {"records": records, "planted": planted}


def _malformed_line(kind: str, tag: str) -> str:
    if kind == "bad_json":
        return '{"name": "' + tag + 'broken", "alexander": [[0, 1], [1, -1]'
    if kind == "missing_key":
        return json.dumps({"name": tag + "nopoly"})
    return json.dumps({"name": tag + "nonalt", "alexander": [[0, 1], [1, -1], [2, -1], [3, 1], [4, 1]]})


def _census_op(path: str, lines: list[str], info: dict, malformed: int, kind: str = "census") -> Op:
    groups: dict[str, list[str]] = {}
    for name, pairs in info["records"]:
        groups.setdefault(json.dumps(pairs), []).append(name)
    ref = {
        "records": len(info["records"]),
        "warnings": malformed,
        "delta_groups": sorted(sorted(v) for v in groups.values() if len(v) > 1),
        "planted": info["planted"],
    }
    return Op(kind, ["census", "scan", path], knots=len(info["records"]), ref=ref,
              files={path: "\n".join(lines) + "\n"})


def census_ops(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"census-ladder:{seed}")
    ops = []
    for f in range(CENSUS_FILES):
        lines, info = _census_lines(rng, f"f{f}:", f)
        lines.append(_malformed_line(MALFORMED_KINDS[f % len(MALFORMED_KINDS)], f"f{f}:"))
        rng.shuffle(lines)
        ops.append(_census_op(str(Path(workdir) / f"census-{f}.jsonl"), lines, info, malformed=1))
    return ops


def census_defect_probes(seed: int, workdir: str) -> list[Op]:
    """Census files holding the two line kinds known to break scans.

    Both inputs are valid census files; a correct scan skips the first kind
    with a warning and reports the planted pair in the second.  They run
    once per census-ladder run, outside the timed loop, and are reported as
    known defects rather than as failed timed operations.
    """
    rng = random.Random(f"census-probe:{seed}")
    probes = []
    # Kind 1: L-space shape (alternating, Delta(1) = 1, even top exponent)
    # but degree != 2 * gap count; 1 - t + t^4 has 3 gaps.
    lines, info = _census_lines(rng, "p0:", 0)
    lines.append(json.dumps({"name": "p0:degree-mismatch", "alexander": [[0, 1], [1, -1], [4, 1]]}))
    rng.shuffle(lines)
    probes.append(_census_op(str(Path(workdir) / "probe-degree.jsonl"), lines, info,
                             malformed=1, kind="census-probe:degree_mismatch_line"))
    # Kind 2: a last record reusing the K2 name of the planted pair with the
    # K1 polynomial; keyed by name, the pair's Alexander keys collide and the
    # Upsilon-equal/Alexander-distinct pair disappears.
    lines, info = _census_lines(rng, "p1:", 1)
    k1_name, k2_name = info["planted"]["pairs"][0]
    k1_pairs = dict(info["records"])[k1_name]
    rng.shuffle(lines)
    lines.append(json.dumps({"name": k2_name, "alexander": k1_pairs}))
    info["records"].append((k2_name, k1_pairs))
    probes.append(_census_op(str(Path(workdir) / "probe-names.jsonl"), lines, info,
                             malformed=0, kind="census-probe:repeated_name"))
    return probes


# -- cli-reports ------------------------------------------------------------------------


def cli_report_ops(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"cli-reports:{seed}")
    ops = []
    for i, g in enumerate(INVARIANT_GENERA):
        _, ref, spec = _knot_at(g, REPORT_KINDS[i % len(REPORT_KINDS)], rng)
        ops.append(Op("invariants", ["invariants", *spec], ref=ref))
    for name in rng.sample(family.catalog_names(), 2):
        ops.append(Op("invariants", ["invariants", "--catalog", name], ref=_catalog_ref(name)))
    for i, g in enumerate(PLOT_GENERA):
        _, ref, spec = _knot_at(g, REPORT_KINDS[i % len(REPORT_KINDS)], rng)
        out = str(Path(workdir) / f"plot-{i}.svg")
        ops.append(Op("plot", ["plot", *spec, "--what", "gapfn,hull,upsilon", "--out", out],
                      ref={**ref, "out": out, "curves": 3}))
    for _ in range(FAMILY_VERIFY_OPS):
        n = rng.randint(1, 5)
        ops.append(Op("family", ["family", "verify", "--n", str(n)], knots=2, ref={"n": n}))
    return ops


def _catalog_ref(name: str) -> dict:
    entry = family.catalog_knot(name)
    return {"alexander": entry.alexander.to_pairs(), "gaps": list(entry.gaps)}


# -- restore-search ---------------------------------------------------------------------

# Counts pinned when the benchmark was written, for inputs whose search never
# truncates; designed-family members are checked against the theorem
# (exactly one symmetric profile).
PINNED_RESTORE_COUNTS = {
    "pretzel_237": (2, 2), "cable_alt_237": (2, 2), "T(3,4)": (1, 1), "T(3,5)": (1, 1),
    "t09847": (1, 1), "v2871": (1, 1),
    "K1(1)": (18, 6), "K2(1)": (18, 6), "K1(2)": (2016, 72), "K2(2)": (2016, 72),
}


def restore_ops(seed: int, workdir: str) -> list[Op]:
    """Restore requests; which slots use --all is fixed, the seed picks knots and order."""
    rng = random.Random(f"restore-search:{seed}")
    ops = []

    def add(spec, ref, all_mode, pin=None):
        argv = ["restore", *spec] + (["--all"] if all_mode else [])
        ref = {**ref, "all": all_mode, "pinned": PINNED_RESTORE_COUNTS.get(pin)}
        ops.append(Op("restore", argv, ref=ref))

    for i, name in enumerate(family.catalog_names()):
        add(["--catalog", name], _catalog_ref(name), i % 2 == 1, pin=name)
    for which in ("K1", "K2"):
        for n in (1, 2, 3):
            add(["--family", which, "--n", str(n)], family_ref(which, n), False, pin=f"{which}({n})")
        for n in (1, 2):
            add(["--family", which, "--n", str(n)], family_ref(which, n), True, pin=f"{which}({n})")
    add(["--family", "K1", "--n", "3"], family_ref("K1", 3), True)
    for i, m in enumerate(RESTORE_DESIGNED_M):
        pairs = designed_pairs(m)
        add(["--designed-family", str(m)], {"alexander": pairs, "gaps": gaps_of_pairs(pairs),
                                            "designed": True}, i % 2 == 1)
    for i, (p, q) in enumerate(RESTORE_TORUS):
        add(["--torus", f"{p},{q}"], torus_ref(p, q), (p - 1) * (q - 1) // 2 <= 16 and i % 2 == 1)
    for i, g in enumerate(RESTORE_RANDOM_GENERA):
        gaps = random_symmetric_gaps(g, rng)
        pairs = alexander_pairs(gaps)
        add(["--alexander", json.dumps(pairs)], {"alexander": pairs, "gaps": gaps}, g <= 5 and i % 2 == 1)
    return ops


# -- burau-oracles ----------------------------------------------------------------------


def knot_closing_word(strands: int, length: int, rng: random.Random) -> list[int]:
    """Random signed letters, then sigma_i letters that merge cycles until one is left."""
    letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
    perm = list(range(strands))
    for x in letters:
        i = abs(x) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    while True:
        cycle_of = [-1] * strands
        for start in range(strands):
            i = start
            while cycle_of[i] < 0:
                cycle_of[i] = start
                i = perm[i]
        splits = [i for i in range(strands - 1) if cycle_of[i] != cycle_of[i + 1]]
        if not splits:
            return letters
        i = rng.choice(splits)
        letters.append(rng.choice((1, -1)) * (i + 1))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]


def burau_ops(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"burau-oracles:{seed}")
    ops = []
    for n in BURAU_FAMILY_N:
        which = rng.choice(("K1", "K2"))
        ops.append(Op("braid", ["braid", "--named", which, "--n", str(n)],
                      ref={"alexander": family_ref(which, n)["alexander"]}))
    for p, q in BURAU_TORUS:
        q += rng.choice((0, p)) if gcd(p, q + p) == 1 else 0
        word = [i for _ in range(q) for i in range(1, p)]
        ops.append(Op("braid", ["braid", "--strands", str(p), "--word=" + ",".join(map(str, word))],
                      ref={"alexander": torus_ref(p, q)["alexander"], "strands": p, "word": word}))
    for strands, length in BURAU_RANDOM:
        word = knot_closing_word(strands, length, rng)
        ops.append(Op("braid", ["braid", "--strands", str(strands), "--word=" + ",".join(map(str, word))],
                      ref={"strands": strands, "word": word}))
    return ops


GENERATORS = {
    "census-ladder": census_ops,
    "cli-reports": cli_report_ops,
    "restore-search": restore_ops,
    "burau-oracles": burau_ops,
}

# Fixed warm-up operations the setup_s probe runs after importing the package.
WARMUP = {
    "census-ladder": [["census", "scan", "sample"]],
    "cli-reports": [["invariants", "--catalog", "pretzel_237"],
                    ["plot", "--catalog", "pretzel_237", "--what", "gapfn,hull,upsilon",
                     "--out", "{workdir}/warmup.svg"],
                    ["family", "verify", "--n", "1"]],
    "restore-search": [["restore", "--catalog", "pretzel_237"],
                       ["restore", "--family", "K1", "--n", "1", "--all"]],
    "burau-oracles": [["braid", "--named", "K1", "--n", "1"], ["braid", "--named", "t09847"]],
}


def generate(workload: str, seed: int, workdir: str) -> list[Op]:
    """The op pool of one workload; the same seed and workdir give the same pool."""
    return GENERATORS[workload](seed, workdir)
