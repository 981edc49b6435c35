#!/usr/bin/env python3
"""One digest over everything the benchmark's operations print and write.

    python3 tools/output_digest.py --seed 1

Generates every operation of the four benchmark workloads, plus the census
defect probes, through bench/workloads.py, adds the restore, braid,
gate-refusal, pair-order and census probes below, and runs each once through
``upsilon_lab.cli.main`` in this process.  Input files and SVG output go to
one fixed directory under the system temp directory, because file paths
appear in warnings on stderr; nothing is written under the repository.

Prints, per workload, the op count and a histogram of exit codes, then one
sha256 over each op's exit code, stdout, stderr and SVG bytes, in op order.
Two trees print the same digest exactly when their outputs are
byte-identical on these inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from upsilon_lab import cli  # noqa: E402

WORKDIR = Path(tempfile.gettempdir()) / "upsilon-lab-output-digest"

# Restore listings that no benchmark op reaches: caps at the end of K1(5)'s last
# hull piece (969 paths) and just past it, a cap within K1(40)'s last piece, and
# a long listing over T(2,41)'s single piece.  Then capped symmetric listings
# (default mode): caps one below, at and one above 9,648 and 9,790, the ranks
# among all profiles of the last symmetric witness that T(9,11) and K1(3) list
# at the default cap, and a cap of 1.
RESTORE_PROBES = (
    ["restore", "--family", "K1", "--n", "5", "--all", "--max-solutions", "969"],
    ["restore", "--family", "K1", "--n", "5", "--all", "--max-solutions", "970"],
    ["restore", "--family", "K1", "--n", "40", "--all", "--max-solutions", "2000"],
    ["restore", "--torus", "2,41", "--all", "--max-solutions", "5000"],
    *(["restore", "--torus", "9,11", "--max-solutions", str(cap)] for cap in (9647, 9648, 9649)),
    *(["restore", "--family", "K1", "--n", "3", "--max-solutions", str(cap)] for cap in (9789, 9790, 9791)),
    ["restore", "--torus", "9,11", "--max-solutions", "1"],
    ["restore", "--family", "K1", "--n", "3", "--max-solutions", "1"],
)


# Braid closures that no benchmark op reaches: K2(300) (3,617 letters, 300 full
# twists), the T(7,8) and T(5,-11) words given letter by letter (the second all
# inverse letters), and T(3,4) through invariants --braid.
def _torus_word(p: int, q: int) -> list[int]:
    return [i if q > 0 else -i for _ in range(abs(q)) for i in range(1, p)]


BRAID_PROBES = (
    ["braid", "--named", "K2", "--n", "300"],
    ["braid", "--strands", "7", "--word=" + ",".join(map(str, _torus_word(7, 8)))],
    ["braid", "--strands", "5", "--word=" + ",".join(map(str, _torus_word(5, -11)))],
    ["invariants", "--braid", json.dumps({"strands": 3, "word": _torus_word(3, 4)})],
)


# Inputs that the Alexander-polynomial gate or the braid checks refuse, each
# with exit 2: Delta not alternating, zero, without gap 1, with an odd top
# exponent, and of the L-space shape with deg != 2g; an "alexander" value
# that is a JSON string or object, not an array, or has a JSON true for a
# coefficient; a closure with 3 components, a JSON letter true, and the
# 33-strand unknot word.
GATE_PROBES = (
    ["invariants", "--alexander", "[[0,1],[1,1],[2,-1]]"],
    ["invariants", "--alexander", "[]"],
    ["invariants", "--alexander", '""'],
    ["invariants", "--alexander", "{}"],
    ["invariants", "--alexander", "[[0,1],[1,-1],[2,true]]"],
    ["invariants", "--alexander", "[[0,1],[2,-1],[4,1]]"],
    ["invariants", "--alexander", "[[0,1],[1,-1],[3,1]]"],
    ["invariants", "--alexander", "[[0,1],[1,-1],[2,1],[3,-1],[6,1]]"],
    ["braid", "--strands", "3", "--word", "1,-1"],
    ["braid", "--json", '{"strands":3,"word":[1,true]}'],
    ["braid", "--strands", "33", "--word", ",".join(map(str, range(1, 33)))],
)


# T(3,4)'s Delta, 1 - t + t^3 - t^5 + t^6, given in pair orders that the
# one-pass reader of sorted pairs hands to from_pairs: reversed, with the
# -t term split in two, and with a zero term.  Each exits 0.
T34_PAIRS = [[0, 1], [1, -1], [3, 1], [5, -1], [6, 1]]
T34_OFF_ROUTE = {
    "reversed": T34_PAIRS[::-1],
    "split-term": [[0, 1], [1, -2], [1, 1], [3, 1], [5, -1], [6, 1]],
    "zero-term": [[0, 1], [1, -1], [3, 1], [4, 0], [5, -1], [6, 1]],
}
PAIR_ORDER_PROBES = tuple(["invariants", "--alexander", json.dumps(pairs)] for pairs in T34_OFF_ROUTE.values())


# Census files that no benchmark op reaches: all ten gap-1 sequences of genus 4
# (one genus, six hulls), an Upsilon class of three distinct polynomials at
# genus 6 beside a fourth genus-6 record, the unknot twice, and two five-term
# records of genus 10**6, 1 - t + t^2 - t^(g+1) + t^(2g) and
# 1 - t + t^3 - t^(g+2) + t^(2g); and T(3,4) sorted and in the three orders
# above, one Delta class, beside reversed lines with a JSON true, deg != 2g
# and no gap 1, each a warning.
def census_probes() -> list[workloads.Op]:
    g = 10**6
    genus_4 = [(1, a, b, 7) for a in range(2, 7) for b in range(a + 1, 7)]
    genus_6 = [(1, 2, 3, 5, 8, 11), (1, 2, 3, 5, 9, 11), (1, 2, 3, 5, 10, 11), (1, 2, 3, 4, 8, 11)]
    files = {
        "census-probe-genus-4.jsonl": [(f"g4:{gaps}", workloads.alexander_pairs(gaps))
                                       for gaps in genus_4],
        "census-probe-three-delta.jsonl": [(f"g6:{gaps}", workloads.alexander_pairs(gaps))
                                           for gaps in genus_6],
        "census-probe-unknot.jsonl": [("unknot", [[0, 1]]), ("unknot~dup", [[0, 1]])],
        "census-probe-genus-1e6.jsonl": [
            ("five-terms:2", [[0, 1], [1, -1], [2, 1], [g + 1, -1], [2 * g, 1]]),
            ("five-terms:3", [[0, 1], [1, -1], [3, 1], [g + 2, -1], [2 * g, 1]]),
        ],
        "census-probe-pair-order.jsonl": [
            ("T(3,4)", T34_PAIRS),
            *((f"T(3,4):{kind}", pairs) for kind, pairs in T34_OFF_ROUTE.items()),
            ("true-coefficient", [[2, True], [1, -1], [0, 1]]),
            ("degree-not-2g", [[4, 1], [1, -1], [0, 1]]),
            ("first-gap-not-1", [[4, 1], [2, -1], [0, 1]]),
        ],
    }
    ops = []
    for filename, records in files.items():
        path = str(WORKDIR / filename)
        text = "".join(json.dumps({"name": name, "alexander": pairs}) + "\n" for name, pairs in records)
        ops.append(workloads.Op("census", ["census", "scan", path], files={path: text}))
    return ops


def run(op: workloads.Op) -> tuple[object, str, str, bytes]:
    """Exit code, stdout, stderr and SVG bytes (empty if none) of one op."""
    op.write_files()
    svg = Path(op.ref["out"]) if op.kind == "plot" else None
    if svg is not None:
        svg.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = exc.code
    data = svg.read_bytes() if svg is not None and svg.exists() else b""
    return rc, out.getvalue(), err.getvalue(), data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    pools = {name: workloads.generate(name, args.seed, str(WORKDIR)) for name in workloads.WORKLOADS}
    pools["census_defect_probes"] = workloads.census_defect_probes(args.seed, str(WORKDIR))
    pools["restore_probes"] = [workloads.Op("restore", argv) for argv in RESTORE_PROBES]
    pools["braid_probes"] = [workloads.Op(argv[0], argv) for argv in BRAID_PROBES]
    pools["gate_refusal_probes"] = [workloads.Op(argv[0], argv) for argv in GATE_PROBES]
    pools["pair_order_probes"] = [workloads.Op(argv[0], argv) for argv in PAIR_ORDER_PROBES]
    pools["census_probes"] = census_probes()
    digest = hashlib.sha256()
    try:
        for name, ops in pools.items():
            codes = Counter()
            for op in ops:
                rc, stdout, stderr, svg = run(op)
                codes[rc] += 1
                for part in (repr(rc).encode(), stdout.encode(), stderr.encode(), svg):
                    digest.update(len(part).to_bytes(8, "big") + part)
            histogram = ", ".join(f"{rc}: {n}" for rc, n in sorted(codes.items(), key=repr))
            print(f"{name}: {len(ops)} ops, exit codes {{{histogram}}}")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
