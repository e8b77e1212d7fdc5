"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage error, 3 resource limit.  All output is deterministic: the
same invocation always produces byte-identical bytes (`elapsed_ms` in a
JSON verify report is 0.0 unless `--timing` asks for wall-clock time).

Start-up is lean: only errors, limits and numbers load with this
module, and each command imports the layers it runs (generate, words,
identities, maps, json) when it runs, so `rascal value` never compiles
the maps.  Output is never built whole: every command streams its lines
through `_write`, the one writer to stdout, 1,024 lines per write.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from itertools import chain, islice
from operator import mul, sub

from .errors import DomainViolation, ResourceLimit, UnknownIdentity
from .limits import check_cells, max_cells, require_sizes, run_capped
from .numbers import METHODS, _table_cells, rascal_gen_value, triangle_rows

FORMATS = ("table", "json", "csv", "bfile")

# the identity parameters `rascal verify` caps, one --X-max option each
VERIFY_AXES = "nkrmj"

# name -> {option: default} for `rascal bijection NAME`, which passes
# each option to maps.verify_NAME as the argument of the same name
BIJECTIONS = {
    "sym": {"n_max": 8},
    "strip": {"n_max": 8},
    "ascseq": {"n_max": 8},
    "subset": {"n_max": 8, "j_max": 2},
    "divider": {"n_max": 8, "j_max": 2},
    "ratio": {"n": 6, "k": 2},
    "altbin": {"r": 2, "n": 6, "k": 2},
    "genalt": {"n": 6, "j": 1},
}


def _write(lines) -> None:
    """Write the str lines to stdout, 1,024 per write; once the reader closes
    it, point it at os.devnull, so the flush at exit cannot fail, and stop."""
    lines = iter(lines)
    try:
        while chunk := list(islice(lines, 1024)):
            sys.stdout.write("\n".join(chunk + [""]))
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _spaced(rows):
    """Each row as one line of space-separated values."""
    return (" ".join(map(str, row)) for row in rows)


# ---------------------------------------------------------------------------
# value


def _cmd_value(args) -> int:
    _write([str(rascal_gen_value(args.n, args.k, args.j, args.method))])
    return 0


# ---------------------------------------------------------------------------
# triangle


def _cmd_triangle(args) -> int:
    require_sizes(n_max=args.n_max)
    rows = triangle_rows(args.n_max, args.j, method=args.method)
    if args.format == "table":
        _write(_spaced(rows))
    elif args.format == "json":
        import json

        _write([json.dumps({"j": args.j, "n_max": args.n_max, "rows": rows})])
    elif args.format == "csv":
        cells = (f"{n},{k},{v}" for n, row in enumerate(rows) for k, v in enumerate(row))
        _write(chain(["n,k,value"], cells))
    else:
        _write(f"{i} {v}" for i, v in enumerate(chain.from_iterable(rows), args.offset or 0))
    return 0


# ---------------------------------------------------------------------------
# enumerate


def _enumerate_items(args):
    """The listed objects, lazily and in order, and the function that
    turns them into lines."""
    from .generate import _check_restricted, avoiders, restricted_subsets, words_with_ascents
    from .words import word_str

    word_lines = partial(map, word_str)
    require_sizes(n=args.n, k=args.k or 0)
    if args.family == "subsets":  # subsets requires --k
        return (s.elements for s in restricted_subsets(args.n, args.k, args.j)), _spaced
    if args.family == "words":  # one k, or every k merged
        require_sizes(j=args.j)
        _check_restricted(args.n, args.k, args.j, "words listing")
        from heapq import merge

        ks = range(args.n + 1) if args.k is None else (args.k,)
        return merge(*(words_with_ascents(args.n, k, args.j) for k in ks)), word_lines
    # ascseq lists the avoiders of no pattern; avoiders checks each pattern before pricing
    text = getattr(args, "patterns", None)
    patterns = [p.strip() for p in (text or "").split(",") if p.strip()]
    if text is not None and not patterns:
        raise DomainViolation(f"--patterns {text!r} names no pattern")
    return avoiders(args.n, patterns, args.k), word_lines


def _cmd_enumerate(args) -> int:
    items, lines = _enumerate_items(args)
    _write([str(sum(1 for _ in items))] if args.count_only else lines(items))
    return 0


# ---------------------------------------------------------------------------
# verify


def _report_lines(report):
    """The table-format lines of one IdentityReport."""
    status = "PASS" if report.passed else "FAIL"
    line = f"{report.identity}: {status} cells={report.cells} grid[{report.grid}]"
    if report.corrected_passed is not None:
        line += f" corrected={'PASS' if report.corrected_passed else 'FAIL'}"
    yield line
    corrected = report.corrected_failures or ()
    for variant, failures in (("stated", report.failures), ("corrected", corrected)):
        for params, lhs, rhs in failures:
            where = ", ".join(f"{p}={v}" for p, v in params)
            yield f"  {variant} fails at {where}: lhs={lhs} rhs={rhs}"


def _cmd_verify(args) -> int:
    from . import identities

    caps = {p: cap for p in VERIFY_AXES if (cap := getattr(args, f"{p}_max")) is not None}
    require_sizes(**{f"{p}_max": cap for p, cap in caps.items()})
    if args.name == "all":  # each cap applies where the identity takes it
        names = identities.identity_names()
    else:
        params = identities.get_identity(args.name).params  # raises UnknownIdentity
        unused = " ".join(f"--{p}-max" for p in caps if p not in params)
        if unused:
            raise DomainViolation(f"{args.name} takes {', '.join(params)}, not {unused}")
        names = [args.name]
    grids = identities.default_grids()
    reports = []
    for name in names:
        grid = {p: (lo, caps.get(p, hi)) for p, (lo, hi) in grids[name].items()}
        reports.append(identities.verify_range(name, grid, oracle=args.oracle))
    failed = [r for r in reports if not r.passed or r.corrected_passed is False]
    if args.format == "json":
        import json

        payload = [r.to_dict(timing=args.timing) for r in reports]
        _write([json.dumps(payload[0] if args.name != "all" else payload)])
    else:
        summary = f"{len(reports) - len(failed)}/{len(reports)} identities pass"
        _write([*(line for r in reports for line in _report_lines(r)), summary])
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# bijection


def _cmd_bijection(args) -> int:
    from . import maps

    options = {option: getattr(args, option) for option in BIJECTIONS[args.name]}
    report = getattr(maps, f"verify_{args.name}")(**options)
    lines = []
    if "missed" in report:
        lines.append(
            f"image {report['image_size']} of {report['target_size']}, "
            f"missed: {', '.join(report['missed'])}"
        )
    if "signed_sum" in report:
        lines.append(f"signed sum {report['signed_sum']}")
    lines += report["details"]
    lines.append(f"{args.name}: {'PASS' if report['ok'] else 'FAIL'} ({report['checked']} checks)")
    _write(lines)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# etable


def _cmd_etable(args) -> int:
    require_sizes(n_max=args.n_max, j_max=args.j_max)
    check_cells(_table_cells(args.n_max, args.j_max + 1), "E table")
    tables, negatives = {}, []
    for j in range(args.j_max + 1):  # e_defect at every cell, with R = 0 outside the rows
        pad = [[0, 0], [0, 0], *([0, *row, 0] for row in triangle_rows(args.n_max, j))]
        above = zip(pad, pad[1:], pad[2:])  # padded rows n - 2, n - 1 and n: R(n, k) at k + 1
        tables[j] = [list(map(sub, map(mul, r[1:], a), map(mul, b[1:], b))) for a, b, r in above]
        negatives += [(n, k, j) for n, row in enumerate(tables[j]) for k, v in enumerate(row) if v < 0]
    if args.format == "table":
        lines = []
        for j, rows in tables.items():
            lines += [f"# j={j}", *_spaced(rows)]
        _write(lines + [f"NEGATIVE: E({n},{k},{j}) = {tables[j][n][k]}" for n, k, j in negatives])
    elif args.format == "json":
        import json

        payload = {
            "n_max": args.n_max,
            "j_max": args.j_max,
            "tables": {str(j): rows for j, rows in tables.items()},
            "negatives": [{"n": n, "k": k, "j": j, "value": tables[j][n][k]} for n, k, j in negatives],
        }
        _write([json.dumps(payload)])
    elif args.format == "csv":
        numbered = ((n, j, row) for j, rows in tables.items() for n, row in enumerate(rows))
        _write(chain(["n,k,j,value"], (f"{n},{k},{j},{v}" for n, j, row in numbered for k, v in enumerate(row))))
    else:
        values = (v for rows in tables.values() for row in rows for v in row)
        _write(f"{i} {v}" for i, v in enumerate(values, args.offset or 0))
    if negatives and args.format != "table":
        print(f"negative entries: {len(negatives)}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rascal",
        description="Rascal triangle toolkit: values, word families, bijections, identities",
    )
    # no abbreviations: `verify row_sum --n 5` must refuse --n, not read it as --n-max
    strict = partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict)

    p = sub.add_parser("value", help="one triangle entry")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--j", type=int, default=1, help="ascent bound (default 1)")
    p.add_argument("--method", choices=METHODS, default="closed")
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("triangle", help="rows 0..n_max")
    p.add_argument("n_max", type=int)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--method", choices=METHODS, default="closed")
    p.add_argument("--format", choices=FORMATS, default="table")
    p.add_argument("--offset", type=int, help="first index in bfile output (default 0)")
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("enumerate", help="list or count a word family")
    families = p.add_subparsers(dest="family", required=True, parser_class=strict)
    for family in ("words", "ascseq", "avoiders", "subsets"):
        q = families.add_parser(family)
        q.add_argument("--n", type=int, required=True)
        q.add_argument("--k", type=int, required=family == "subsets")
        if family in ("words", "subsets"):
            q.add_argument("--j", type=int, default=1)
        if family == "avoiders":
            q.add_argument("--patterns", help="comma-separated patterns, e.g. 001,210")
        q.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="check identities over parameter grids")
    p.add_argument("name", help="identity name or 'all'")
    p.add_argument("--oracle", action="store_true", help="enumeration-backed left sides")
    for axis in VERIFY_AXES:
        p.add_argument(f"--{axis}-max", type=int)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--timing", action="store_true", help="real elapsed_ms in JSON output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bijection", help="exhaustively check one constructive map")
    names = p.add_subparsers(dest="name", required=True, parser_class=strict)
    for name, options in BIJECTIONS.items():
        q = names.add_parser(name)
        for option, default in options.items():
            q.add_argument("--" + option.replace("_", "-"), type=int, default=default)
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("etable", help="tabulate the product-recurrence defect E(n,k,j)")
    p.add_argument("n_max", type=int)
    p.add_argument("j_max", type=int)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.add_argument("--offset", type=int)
    p.set_defaults(func=_cmd_etable)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cap = max_cells()  # read once; a malformed RASCAL_MAX_CELLS is refused on every command
        # an option that one format reads is refused under the others
        if getattr(args, "offset", None) is not None and args.format != "bfile":
            raise DomainViolation("--offset applies to --format bfile only")
        if getattr(args, "timing", False) and args.format != "json":
            raise DomainViolation("--timing applies to --format json only")
        return run_capped(cap, args.func, args)
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (UnknownIdentity, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
