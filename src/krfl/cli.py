"""Command line surface: character computations and verification suites.

Formats: json (machine readable, stable key order), csv, and an aligned
table for terminals.  Character-producing commands consult the on-disk
cache unless --no-cache is given; verification commands always compute
fresh.  Exit status is 0 when nothing failed, 1 when a verification
failed, and 2 on bad input, reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .cache import cached_character
from .demazure import gen_demazure, rect_demazure
from .lweights import LWeight, q_factorize
from .modules import fusion_product, graded_character
from .typea import Partition, char_simple
from .verify import DEFAULT_CAP, suite_ok, verify_main, verify_suite


def _int_tuple(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


def _frac_tuple(text):
    try:
        return tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected comma-separated rationals: {text!r}")


def _print_table(rows, header, out):
    widths = [len(h) for h in header]
    cells = [[str(c) for c in row] for row in rows]
    for row in cells:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header), file=out)
    for row in cells:
        print(fmt.format(*row), file=out)


def _emit_graded(gc, fmt, out):
    data = gc.to_json()
    if fmt == "json":
        json.dump(data, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        w = csv.writer(out)
        w.writerow(["weight", "degree", "mult"])
        for e in data["entries"]:
            w.writerow([" ".join(map(str, e["weight"])), e["degree"], e["mult"]])
    else:
        rows = [
            (tuple(e["weight"]), e["degree"], e["mult"]) for e in data["entries"]
        ]
        _print_table(rows, ("weight", "degree", "mult"), out)


def _emit_plain_character(ch, fmt, out):
    data = ch.to_json()
    if fmt == "json":
        json.dump(data, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        w = csv.writer(out)
        w.writerow(["weight", "mult"])
        for e in data["entries"]:
            w.writerow([" ".join(map(str, e["weight"])), e["mult"]])
    else:
        rows = [(tuple(e["weight"]), e["mult"]) for e in data["entries"]]
        _print_table(rows, ("weight", "mult"), out)


def _emit_reports(reports, fmt, out):
    if fmt == "json":
        json.dump([r.to_json() for r in reports], out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        w = csv.writer(out)
        w.writerow(["name", "status", "params", "details"])
        for r in reports:
            w.writerow(
                [r.name, r.status, json.dumps(r.params), json.dumps(r.details)]
            )
    else:
        rows = []
        for r in reports:
            ps = " ".join(f"{k}={v}" for k, v in r.params.items())
            note = "" if not r.details else r.details[0]["check"]
            rows.append((r.status, r.name, ps, note))
        _print_table(rows, ("status", "name", "params", "note"), out)


def _validated_weight(rank, weight):
    if len(weight) != rank:
        raise ValueError(f"weight has {len(weight)} coordinates, rank is {rank}")
    return weight


def _cmd_char(args, out):
    lam = _validated_weight(args.rank, args.weight)
    _emit_plain_character(char_simple(lam), args.format, out)
    return 0


def _canonical_fusion(parts, points):
    """Parts in descending order with the points permuted alongside, so
    that `--partition 1,2` and `2,1` share a cache entry.  The sort is
    stable: input that is already descending is computed as given.  A
    point list of the wrong length is left for fusion_product to reject."""
    order = sorted(range(len(parts)), key=lambda j: -parts[j])
    if points is not None and len(points) == len(parts):
        points = tuple(points[j] for j in order)
    return tuple(parts[j] for j in order), points


def _cmd_fusion(args, out):
    parts, points = _canonical_fusion(args.partition, args.points)
    Partition(parts)  # rejects a zero or negative part
    desc = {
        "kind": "fusion",
        "rank": args.rank,
        "node": args.node,
        "xi": list(parts),
        "points": None if points is None else [str(z) for z in points],
    }
    gc = cached_character(
        desc,
        lambda: graded_character(
            fusion_product(args.rank, args.node, parts, points)
        ),
        enabled=not args.no_cache,
    )
    _emit_graded(gc, args.format, out)
    return 0


def _cmd_demazure(args, out):
    lam = _validated_weight(args.rank, args.lam)
    desc = {
        "kind": "rectangular-demazure",
        "rank": args.rank,
        "ell": args.ell,
        "lam": list(lam),
    }
    gc = cached_character(
        desc,
        lambda: graded_character(rect_demazure(args.rank, args.ell, lam)),
        enabled=not args.no_cache,
    )
    _emit_graded(gc, args.format, out)
    return 0


def _cmd_gendemazure(args, out):
    # descending, as Partition requires; `1,2` and `2,1` share an entry
    parts = tuple(sorted(args.partition, reverse=True))
    desc = {
        "kind": "generalized-demazure",
        "rank": args.rank,
        "node": args.node,
        "xi": list(parts),
    }
    gc = cached_character(
        desc,
        lambda: graded_character(gen_demazure(args.rank, args.node, parts)),
        enabled=not args.no_cache,
    )
    _emit_graded(gc, args.format, out)
    return 0


def _cmd_qfactor(args, out):
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {args.file}: {exc.strerror}") from exc
    pi = LWeight.from_json(args.rank, json.loads(text))
    factors = q_factorize(pi)
    data = [{"node": f.node, "center": f.center, "len": f.length} for f in factors]
    if args.format == "json":
        json.dump(data, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        w = csv.writer(out)
        w.writerow(["node", "center", "len"])
        for e in data:
            w.writerow([e["node"], e["center"], e["len"]])
    else:
        rows = [(e["node"], e["center"], e["len"]) for e in data]
        _print_table(rows, ("node", "center", "len"), out)
    return 0


def _at_least_one(**options):
    for name, value in options.items():
        if value < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be at least 1, got {value}")


def _cmd_verify_main(args, out):
    _at_least_one(cap=args.cap)
    r = verify_main(args.rank, args.node, args.partition, args.points, cap=args.cap)
    _emit_reports([r], args.format, out)
    return 0 if not r.failed else 1


def _cmd_verify_suite(args, out):
    _at_least_one(max_rank=args.max_rank, max_size=args.max_size, cap=args.cap)
    reports = verify_suite(
        max_rank=args.max_rank, max_size=args.max_size, seed=args.seed, cap=args.cap
    )
    _emit_reports(reports, args.format, out)
    return 0 if suite_ok(reports) else 1


def _add_format(p):
    p.add_argument(
        "--format", choices=("json", "csv", "table"), default="table",
        help="output format",
    )


def _add_cache_flag(p):
    p.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk character cache",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="krfl",
        description="Exact graded characters of current-algebra modules "
        "and verification of the fusion/Demazure comparison suites.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("char", help="character of a simple module")
    c.add_argument("--rank", type=int, required=True)
    c.add_argument("--weight", type=_int_tuple, required=True)
    _add_format(c)
    c.set_defaults(run=_cmd_char)

    c = sub.add_parser("fusion", help="graded character of a fusion product")
    c.add_argument("--rank", type=int, required=True)
    c.add_argument("--node", type=int, required=True)
    c.add_argument("--partition", type=_int_tuple, required=True)
    c.add_argument("--points", type=_frac_tuple, default=None)
    _add_format(c)
    _add_cache_flag(c)
    c.set_defaults(run=_cmd_fusion)

    c = sub.add_parser(
        "demazure", help="graded character of a rectangular Demazure-type module"
    )
    c.add_argument("--rank", type=int, required=True)
    c.add_argument("--ell", type=int, required=True)
    c.add_argument("--lambda", dest="lam", type=_int_tuple, required=True)
    _add_format(c)
    _add_cache_flag(c)
    c.set_defaults(run=_cmd_demazure)

    c = sub.add_parser(
        "gendemazure",
        help="graded character of a generalized Demazure-type module",
    )
    c.add_argument("--rank", type=int, required=True)
    c.add_argument("--node", type=int, required=True)
    c.add_argument("--partition", type=_int_tuple, required=True)
    _add_format(c)
    _add_cache_flag(c)
    c.set_defaults(run=_cmd_gendemazure)

    c = sub.add_parser(
        "qfactor", help="factor a loop-weight monomial into strings"
    )
    c.add_argument("--rank", type=int, required=True)
    c.add_argument(
        "--file", default="-", help="path to the LWeight JSON, or - for stdin"
    )
    _add_format(c)
    c.set_defaults(run=_cmd_qfactor)

    c = sub.add_parser(
        "verify-main",
        help="compare fusion and generalized Demazure characters for one case",
    )
    c.add_argument("--rank", type=int, required=True)
    c.add_argument("--node", type=int, required=True)
    c.add_argument("--partition", type=_int_tuple, required=True)
    c.add_argument("--points", type=_frac_tuple, default=None)
    c.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_format(c)
    c.set_defaults(run=_cmd_verify_main)

    c = sub.add_parser("verify-suite", help="run every check over a range")
    c.add_argument("--max-rank", type=int, default=3)
    c.add_argument("--max-size", type=int, default=4)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_format(c)
    c.set_defaults(run=_cmd_verify_suite)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, sys.stdout)
    except ValueError as exc:
        # bad input such as a node out of range; exit 2 as argparse does,
        # apart from 1 for a failed verification.  InvariantError, an
        # engine fault, is not a ValueError and propagates.
        print(f"krfl: error: {exc}", file=sys.stderr)
        return 2
