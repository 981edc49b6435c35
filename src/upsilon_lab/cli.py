"""Command-line surface.

Subcommands: invariants, restore, family, seifert, braid, census, plot.
When argv starts with a subcommand's name, only that subcommand's parser
reads the rest of it (_parse_argv).  The top-level parser reads any other
argv (none, an unknown command, a top-level -h) and one that the
subcommand's parser leaves arguments over from, so every usage error and
help text is argparse's own.  The knot-spec commands take the gap
runs from the L-space gate (_resolve_knot_spec), or for --torus from the
semigroup's gaps, and hand them on, so the polynomial is walked at most once
per command.

Every report is JSON on stdout with rationals as exact "p/q" strings.
_emit builds the text of every top-level entry with _json_text, then writes
them one at a time, byte-identical to json.dumps(indent=2); it accepts only
ints, strings, booleans and None, and writes nothing for a report it cannot
encode.  Only restore witnesses stream, one block of witnesses per write
(_witness_chunks): at most _BLOCK_CHARS (64 KiB) of text, or one witness if
that is longer.

Exit codes: 0 on success (and all in-scope assertions passing), 1 when an
asserted verification fails, 2 on usage or input validation errors, 3 on an
internal error (an unexpected exception, reported in one line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from itertools import chain, islice, product
from json.encoder import encode_basestring_ascii

from . import braids, census, family, restorability, seifert, svgplot
from .errors import GenusTooLarge, UpsilonLabError, WordTooLong, json_type
from .invariants import gap_function_of, hull_of, knot_invariants
from .laurent import IntLaurentPoly
from .piecewise import legendre_fenchel
from .rationals import int_text, parse_rational
from .semigroups import (MAX_GENUS, _alexander_of_runs, _runs_of_semigroup, lspace_runs,
                         torus_semigroup)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _UsageError(UpsilonLabError):
    pass


def _add_knot_spec_arguments(parser: argparse.ArgumentParser, designed_family: bool = False) -> None:
    group = parser.add_argument_group("knot specification (give exactly one)")
    group.add_argument("--alexander", metavar="JSON",
                       help='coefficient pairs, e.g. "[[0,1],[1,-1],[2,1]]"')
    group.add_argument("--torus", metavar="P,Q", help="torus knot T(p,q)")
    group.add_argument("--family", metavar="K1|K2", choices=("K1", "K2"),
                       help="twist-family member (needs --n)")
    group.add_argument("--n", type=int, metavar="N", help="twist parameter for --family")
    group.add_argument("--braid", metavar="JSON",
                       help='braid closure, e.g. \'{"strands":4,"word":[2,1,3,2]}\'')
    group.add_argument("--catalog", metavar="NAME",
                       help=f"built-in knot: {', '.join(family.catalog_names())}")
    if designed_family:
        group.add_argument("--designed-family", type=int, metavar="M",
                           help="designed restorable polynomial with parameter m >= 3")


def _resolve_knot_spec(
    args: argparse.Namespace,
) -> tuple[str | None, IntLaurentPoly, list[tuple[int, int]]]:
    """Turn the exactly-one spec flag into (name, polynomial, gap runs).

    The runs are the L-space gate's (semigroups.lspace_runs), so the report
    builders take them instead of walking the polynomial again.  --alexander
    reads its pairs and gates them in one pass where it can
    (census._alexander_and_runs).  --torus takes the runs from the gaps of
    torus_semigroup, which has gap 1 and deg = 2g by construction, and builds
    the polynomial from them, so no gate walks it; its runs carry the
    semigroup on to the report (semigroups._runs_of_semigroup).
    """
    kinds = ("alexander", "torus", "family", "braid", "catalog", "designed_family")
    given = [kind for kind in kinds if getattr(args, kind, None) is not None]
    if len(given) != 1:
        raise _UsageError(
            f"give exactly one knot specification, got {len(given)}: {', '.join(given) or 'none'}"
        )
    if args.n is not None and args.family is None:
        raise _UsageError("--n goes only with --family")
    kind = given[0]
    if kind == "alexander":
        try:
            delta, runs = census._alexander_and_runs(json.loads(args.alexander))
        except (ValueError, TypeError, RecursionError) as exc:  # RecursionError: JSON nested too deeply
            raise _UsageError(f"bad --alexander value: {exc}") from exc
        name = None
    elif kind == "torus":
        try:
            p, q = (int(x) for x in args.torus.split(","))
        except ValueError as exc:
            raise _UsageError(f"bad --torus value {args.torus!r}, expected P,Q") from exc
        runs = _runs_of_semigroup(torus_semigroup(p, q))
        delta = _alexander_of_runs(runs)
        name = f"T({p},{q})"
    elif kind == "family":
        if args.n is None:
            raise _UsageError("--family needs --n")
        delta = family.alexander_closed_form(family.FamilyKnot(args.family, args.n))
        name = f"{args.family}({args.n})"
    elif kind == "braid":
        delta = _json_braid(args.braid, "--braid").alexander_of_closure()
        name = None
    elif kind == "catalog":
        delta = family.catalog_knot(args.catalog).alexander
        name = args.catalog
    else:  # designed_family
        delta = restorability.designed_family_alexander(args.designed_family)
        name = f"designed_family({args.designed_family})"
    if kind not in ("alexander", "torus"):
        runs = lspace_runs(delta)
    if runs is None:  # NotLSpaceForm when the shape holds but deg != 2g
        raise _UsageError(
            f"polynomial {delta} is not in L-space form; the pipeline does not apply"
        )
    genus = runs[-1][1] // 2 if runs else 0  # deg = 2g: the last run ends at the top exponent
    if genus > MAX_GENUS:
        raise GenusTooLarge(f"the polynomial has genus {genus}, above the limit of {MAX_GENUS}")
    return name, delta, runs


def _user_braid(strands, letters) -> braids.BraidWord:
    """A braid word given on the command line, refused past MAX_LETTERS letters before it is built.

    Named words (braids.named_braid) are bounded by MAX_TWIST instead.
    """
    if len(letters) > braids.MAX_LETTERS:
        raise WordTooLong(
            f"the braid word has {len(letters)} letters, above the limit of {braids.MAX_LETTERS}"
        )
    return braids.BraidWord(strands, letters)


def _json_braid(text: str, flag: str) -> braids.BraidWord:
    """The _user_braid of a '{"strands": S, "word": [...]}' value given to flag.

    A value that is not such an object is refused in JSON's terms, and so is
    any other key, and a strand count or letter that is not a JSON integer.
    """
    try:
        spec = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deeply
        raise _UsageError(f"bad {flag} value: {exc}") from exc
    if not isinstance(spec, dict):
        raise _UsageError(f"bad {flag} value: must be a JSON object, got {json_type(spec)}")
    for key in ("strands", "word"):
        if key not in spec:
            raise _UsageError(f'bad {flag} value: has no "{key}" key')
    unknown = [key for key in spec if key not in ("strands", "word")]
    if unknown:
        raise _UsageError(f"bad {flag} value: unknown key{'s' * (len(unknown) > 1)} "
                          + ", ".join(map(json.dumps, unknown)))
    strands, word = spec["strands"], spec["word"]
    if not isinstance(word, list):
        raise _UsageError(f'bad {flag} value: "word" must be a JSON array, got {json_type(word)}')
    for i, value in enumerate([strands, *word]):
        if type(value) is not int:  # json.loads gives bool for true, float for 3.0 or 1e400
            name = f'letter {i} of "word"' if i else '"strands"'
            raise _UsageError(
                f"bad {flag} value: {name} must be a JSON integer, got {json_type(value)}")
    try:
        return _user_braid(strands, word)
    except ValueError as exc:
        raise _UsageError(f"bad {flag} value: {exc}") from exc


# Each twist value is a full verification, so a range holds at most this many.
MAX_N_VALUES = 1000


def _parse_n_range(text: str) -> list[int]:
    """Accept "3", "1..5", or "1,2,4"; A..B is sized before it is built."""
    try:
        if ".." in text:
            lo, hi = (int(x) for x in text.split(".."))
            values = range(lo, hi + 1)
            count = hi - lo + 1
        else:
            values = [int(x) for x in text.split(",")]
            count = len(values)
    except ValueError as exc:
        raise _UsageError(f"bad n range {text!r}: use N, A..B, or a comma list") from exc
    if count < 1:
        raise _UsageError(f"n range {text!r} is empty")
    if count > MAX_N_VALUES:
        raise _UsageError(f"n range {text!r} holds {count} values; at most {MAX_N_VALUES} allowed")
    if any(not 1 <= v <= braids.MAX_TWIST for v in values):
        raise _UsageError(f"n values must be from 1 to {braids.MAX_TWIST}, got {text!r}")
    return list(values)


# Digits, optionally times a power of ten ("2e8"); read exactly, never as a float.
_COUNT = re.compile(r"([0-9]{1,19})(?:[eE]([0-9]{1,2}))?")
MAX_COUNT = 10**18


def _positive_count(text: str) -> int:
    """argparse type: a whole number from 1 to MAX_COUNT, such as 1000 or 2e8."""
    match = _COUNT.fullmatch(text)
    if match:
        value = int(match[1]) * 10 ** int(match[2] or 0)
        if 1 <= value <= MAX_COUNT:
            return value
    raise argparse.ArgumentTypeError(
        f"expected a whole number from 1 to 10**18, such as 1000 or 2e8, got {text!r}"
    )


def _uniform_text(items, indent: str) -> str | None:
    """JSON text of a non-empty list of plain ints only or plain strs only, or of
    non-empty flat rows of one length, all plain ints or all plain strs (the
    [exponent, coefficient] pairs and [p, q] vertices); None for any other.
    A flat list is a row of width 0; the row template, repeated and joined
    once, is formatted %-wise in one call.
    """
    width, cells = 0, items
    kinds = set(map(type, items))
    if kinds <= {list, tuple}:
        widths = set(map(len, items))
        if len(widths) != 1 or 0 in widths:
            return None
        (width,) = widths
        cells = tuple(chain.from_iterable(items))
        kinds = set(map(type, cells))
    if kinds == {str}:
        cell, cells = "%s", tuple(map(encode_basestring_ascii, cells))
    elif kinds == {int}:
        cell, cells = "%d", tuple(cells)
    else:
        return None
    inner, cell_indent = indent + "  ", indent + "    "
    row = ("[\n" + cell_indent + (",\n" + cell_indent).join([cell] * width) + "\n" + inner + "]"
           if width else cell)
    try:
        body = (",\n" + inner).join([row] * len(items)) % cells
    except ValueError:  # an int past the digit limit: written entry by entry
        return None
    return "[\n" + inner + body + "\n" + indent + "]"


def _json_text(obj, indent: str = "") -> str:
    """Indent-2 JSON text of obj, as json.dumps(obj, indent=2) writes it.

    Lists that _uniform_text takes (most of a report) are formatted in one
    call; any other container is written entry by entry, and a Witnesses as
    the list of gap lists that _witness_chunks writes.  Floats, Fractions,
    sets and non-str keys raise TypeError.

    >>> _json_text({"gaps": (1, 2), "name": None})
    '{\\n  "gaps": [\\n    1,\\n    2\\n  ],\\n  "name": null\\n}'
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if type(obj) is int:
        return int_text(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        text = _uniform_text(obj, indent)
        if text is None:
            entries = [_json_text(item, inner) for item in obj]
            text = "[\n" + inner + (",\n" + inner).join(entries) + "\n" + indent + "]"
        return text
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str.
        entries = [encode_basestring_ascii(key) + ": " + _json_text(value, inner)
                   for key, value in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(entries) + "\n" + indent + "}"
    if isinstance(obj, restorability.Witnesses):
        return "".join(_witness_chunks(obj, indent))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# A witness block holds at most this many characters, or one witness if that is longer.
_BLOCK_CHARS = 1 << 16


def _witness_chunks(witnesses: restorability.Witnesses, indent: str):
    """The JSON text of witnesses as a list of gap lists, one block of witnesses at a time.

    The witnesses are the product of their pieces' paths, the last piece
    varying fastest (Witnesses.path_texts), so a run of them shares the text
    of every earlier piece; tail holds that text and the closing bracket.
    Every listing, of one piece or many, goes through one loop: a block is
    one join of the last piece's texts around tail, of as many witnesses as
    fit in _BLOCK_CHARS at a bound on their length, and at least one.  The
    bound comes from the longest pattern's length n: a witness of n steps
    has at most n // 2 gaps, each below n.  When an earlier piece holds more
    than one path, the last piece was walked whole, and earlier pieces are
    folded into it while the folded texts fit in one block, so a short last
    piece does not make short blocks; otherwise the last piece's texts are
    made as they are written.  No gap tuple is built and no pattern
    checked: each was checked when its Witnesses was built from outside, or
    made by the walk.
    """
    left = len(witnesses)
    if not left:
        yield "[]"
        return
    inner = indent + "  "
    opening, gap_sep, closing = "[\n" + inner + "  ", ",\n" + inner + "  ", "\n" + inner + "]"
    head, sep = "[\n" + inner, ",\n" + inner
    n, (*front, last) = witnesses.path_texts(gap_sep)
    bound = n // 2 * (len(gap_sep) + len(str(n))) + len(opening + closing + sep)
    size = _BLOCK_CHARS // bound or 1
    # An earlier piece's text always follows a later one's, so each starts with gap_sep.
    front = [[gap_sep + text for text in texts] for texts in front]
    if any(len(texts) > 1 for texts in front):
        last = list(last)
        while front and len(front[-1]) * len(last) <= size:
            last = [b + a for a in front.pop() for b in last]
    for texts in product(*front):
        tail = "".join(texts[::-1]) + closing
        join, rest = (tail + sep + opening).join, iter(last)
        while left and (run := list(islice(rest, min(size, left)))):
            left -= len(run)
            block = "".join((head, opening, join(run), tail))
            if "" in run:  # a witness with no gaps, only ever from a single piece
                block = block.replace(opening + closing, "[]")
            yield block
            head = sep
        if not left:
            break
    yield "\n" + indent + "]"


def _emit(data: dict) -> None:
    """Write data as _json_text would, plus a newline: one write per top-level entry, and
    one per block of witnesses for a top-level Witnesses, so no whole-report string is built.

    Every entry's text, key included, is built before the first write, so a value
    that cannot be encoded raises TypeError with nothing written.
    """
    entries = [(encode_basestring_ascii(key) + ": ",
                value if isinstance(value, restorability.Witnesses) else _json_text(value, "  "))
               for key, value in data.items()]
    write = sys.stdout.write
    sep = "{\n  "
    for head, value in entries:
        write(sep + head)
        if isinstance(value, str):
            write(value)
        else:
            sys.stdout.writelines(_witness_chunks(value, "  "))
        sep = ",\n  "
    write("\n}\n" if data else "{}\n")


def _cmd_invariants(args: argparse.Namespace) -> int:
    name, delta, runs = _resolve_knot_spec(args)
    _emit(knot_invariants(delta, name=name, _runs=runs))
    return EXIT_OK


def _cmd_restore(args: argparse.Namespace) -> int:
    name, delta, runs = _resolve_knot_spec(args)
    report = restorability.enumerate_gap_functions(
        hull_of(delta, _runs=runs), symmetric_only=not args.all, max_solutions=args.max_solutions
    )
    out = report.to_json()
    if name:
        out = {"name": name, **out}
    _emit(out)
    return EXIT_OK


def _cmd_family_verify(args: argparse.Namespace) -> int:
    results = [family.verify_family_pair(n) for n in _parse_n_range(args.n)]
    if args.which in ("K1", "K2"):
        # Drop the other member's claims; the pair claims are always kept.
        other = "_K2" if args.which == "K1" else "_K1"
        results = [
            family.FamilyVerification(
                r.n, {k: c for k, c in r.checks.items() if not k.endswith(other)}
            )
            for r in results
        ]
    ok = all(r.ok for r in results)
    if args.format == "json":
        _emit({"ok": ok, "results": [r.to_json() for r in results]})
    else:
        for r in results:
            for key, check in r.checks.items():
                mark = "PASS" if check.ok else "FAIL"
                print(f"{mark} n={r.n} {key}: {check.detail}")
        print(f"{'PASS' if ok else 'FAIL'} overall")
    return EXIT_OK if ok else EXIT_ASSERTION


def _cmd_seifert(args: argparse.Namespace) -> int:
    try:
        ratios = tuple(parse_rational(part) for part in args.r.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad --r value {args.r!r}: {exc}") from exc
    if len(ratios) != 3:
        raise _UsageError("--r needs exactly three comma-separated rationals")
    form = seifert.SeifertForm(args.e0, ratios)
    verdict = seifert.decide(form)
    _emit({"input": form.to_json(), **verdict.to_json()})
    return EXIT_OK


def _cmd_braid(args: argparse.Namespace) -> int:
    given = [flag for flag, present in (
        ("--named", args.named is not None),
        ("--json", args.json is not None),
        ("--strands/--word", args.strands is not None or args.word is not None),
    ) if present]
    if len(given) != 1:
        raise _UsageError(
            "give exactly one of --named NAME, --json SPEC or --strands S --word W, "
            f"got {len(given)}: {', '.join(given) or 'none'}"
        )
    if args.n is not None and args.named is None:
        raise _UsageError("--n goes only with --named K1 or K2")
    if args.named is not None:
        word = braids.named_braid(args.named, args.n)
    elif args.json is not None:
        word = _json_braid(args.json, "--json")
    elif args.strands is None or args.word is None:
        raise _UsageError("--strands and --word go together")
    else:
        try:
            letters = [int(x) for x in args.word.split(",")]
        except ValueError as exc:
            raise _UsageError(f"bad --word value {args.word!r}") from exc
        word = _user_braid(args.strands, letters)
    delta = word.alexander_of_closure()
    _emit(
        {
            "braid": word.to_json(),
            "exponent_sum": word.exponent_sum(),
            "alexander": delta.to_pairs(),
        }
    )
    return EXIT_OK


def _cmd_census_scan(args: argparse.Namespace) -> int:
    path = census.sample_census_path() if args.path == "sample" else args.path
    records, warnings = census.load_census(path)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    report = census.scan_census(records)
    report["warnings"] = warnings
    _emit(report)
    return EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    _, delta, runs = _resolve_knot_spec(args)
    whats = set(args.what.split(","))
    unknown = whats - {"gapfn", "hull", "upsilon"}
    if unknown:
        named = [kind or '""' for kind in sorted(unknown)]  # --what "" or "gapfn," has an empty kind
        raise _UsageError(f"unknown plot kinds: {', '.join(named)}")
    hull = hull_of(delta, _runs=runs) if whats & {"hull", "upsilon"} else None
    svgplot.write_svg(
        args.out,
        gapfn=gap_function_of(delta, _runs=runs) if "gapfn" in whats else None,
        hull=hull if "hull" in whats else None,
        upsilon=legendre_fenchel(hull) if "upsilon" in whats else None,
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and reused by every main() call.

    Reuse is safe: each parse returns a fresh Namespace, and no argument has a
    mutable default.  Its _commands maps each subcommand name to its parser,
    for _parse_argv.
    """
    parser = argparse.ArgumentParser(
        prog="upsilon-lab",
        description="Exact L-space knot invariants: Alexander, semigroup, gap function, Upsilon.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser._commands = sub.choices

    p = sub.add_parser("invariants", help="full invariant report for one knot")
    _add_knot_spec_arguments(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("restore", help="restorability of Alexander from Upsilon")
    _add_knot_spec_arguments(p, designed_family=True)
    p.add_argument("--all", action="store_true",
                   help="report every slope-{0,2} witness profile, not only the symmetric ones")
    p.add_argument("--max-solutions", type=_positive_count,
                   default=restorability.DEFAULT_MAX_SOLUTIONS,
                   help="list at most this many witnesses, e.g. 1000 or 1e6; counts stay exact")
    p.set_defaults(func=_cmd_restore)

    p = sub.add_parser("family", help="verify the twist-family claims")
    family_sub = p.add_subparsers(dest="family_command", required=True)
    pv = family_sub.add_parser("verify", help="run all family assertions")
    pv.add_argument("--which", choices=("both", "K1", "K2"), default="both")
    pv.add_argument("--n", default="1..3", help='twist range: "2", "1..5", or "1,3"')
    pv.add_argument("--format", choices=("json", "text"), default="json")
    pv.set_defaults(func=_cmd_family_verify)

    p = sub.add_parser("seifert", help="L-space test for small Seifert forms")
    seifert_sub = p.add_subparsers(dest="seifert_command", required=True)
    pd = seifert_sub.add_parser("decide", help="apply the coprime-pair criterion")
    pd.add_argument("--e0", type=int, required=True)
    pd.add_argument("--r", required=True, help='three ratios, e.g. "-3/7,-1/3,-1/5"')
    pd.set_defaults(func=_cmd_seifert)

    p = sub.add_parser("braid", help="Alexander polynomial of a braid closure")
    p.add_argument("--named", metavar="NAME", help="t09847, v2871, K1, K2 (K1/K2 need --n)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", metavar="SPEC", help='{"strands": S, "word": [...]}')
    p.add_argument("--strands", type=int, default=None)
    p.add_argument("--word", metavar="CSV", default=None, help="letters, e.g. 2,1,3,2,-1")
    p.set_defaults(func=_cmd_braid)

    p = sub.add_parser("census", help="scan a census file for duplicates")
    census_sub = p.add_subparsers(dest="census_command", required=True)
    ps = census_sub.add_parser("scan", help="group records by Alexander and Upsilon")
    ps.add_argument("path", help='JSON-lines file, or "sample" for the bundled fixture')
    ps.set_defaults(func=_cmd_census_scan)

    p = sub.add_parser("plot", help="emit an SVG figure")
    _add_knot_spec_arguments(p)
    p.add_argument("--what", default="gapfn,hull",
                   help="comma list from gapfn, hull, upsilon")
    p.add_argument("--out", "-o", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_plot)

    return parser


def _parse_argv(argv: list[str] | None = None) -> argparse.Namespace:
    """build_parser().parse_args(argv), with argv read once when it starts with a subcommand.

    Given a subcommand's name first, the top-level parser would only hand
    the rest of argv to that subcommand's parser, after a pass of its own;
    so that parser is called directly, with the command already in the
    Namespace.  Any other argv, and one the subcommand's parser leaves
    arguments over from, goes through the top-level parser, which words the
    error.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser._commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_argv(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UpsilonLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
