"""Command-line front end.

    permsym analyze --group altpairs:7 --char 5 [--format json] [--seed 0] [--oracle]
    permsym analyze --file gens.txt --char 3
    permsym suite [--seed 0] [--verbose] [--only KEY ...] [--negative-control]
    permsym catalog

Exit codes: 0 success, 2 user error (bad spec, unreadable file, intransitive
action, composite characteristic or one not below 2^28, negative seed), 3
internal verification failure.
"""

import argparse
import sys

from .analysis import run_analysis
from .catalog import catalog_entries
from .errors import InputError, VerificationError
from . import suite as suite_mod


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permsym",
        description="centralizer algebras of permutation groups over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="run the full pipeline on one group and characteristic")
    an.add_argument("--group", help="group spec string (see `permsym catalog`)")
    an.add_argument("--file", help="generator file (shorthand for --group file:PATH)")
    an.add_argument("--char", type=int, required=True, help="prime characteristic")
    an.add_argument("--format", choices=("text", "json"), default="text")
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--oracle", action="store_true",
                    help="cross-check the orbitals by union-find, and report the "
                         "Hecke dimension where p does not divide |H|")

    su = sub.add_parser("suite", help="run the verification suite")
    su.add_argument("--seed", type=int, default=0)
    su.add_argument("--verbose", action="store_true", help="print every sub-check")
    su.add_argument("--only", action="append", metavar="KEY",
                    help="run only the named criterion (repeatable)")
    su.add_argument("--negative-control", action="store_true",
                    help="corrupt one catalog entry to demonstrate failure detection")

    sub.add_parser("catalog", help="list the group-spec grammar")
    return parser


def _cmd_analyze(args) -> int:
    if bool(args.group) == bool(args.file):
        print("exactly one of --group or --file is required", file=sys.stderr)
        return 2
    spec = args.group if args.group else f"file:{args.file}"
    report = run_analysis(spec, args.char, seed=args.seed, oracle=args.oracle)
    out = report.to_json() if args.format == "json" else report.to_text()
    sys.stdout.write(out)
    return 0


def _cmd_suite(args) -> int:
    results = suite_mod.run_all(seed=args.seed, corrupt=args.negative_control, only=args.only)
    sys.stdout.write(suite_mod.render(results, verbose=args.verbose))
    return 0 if all(r.passed for r in results) else 1


def _cmd_catalog(_args) -> int:
    rows = [("SPEC", "EXAMPLE", "DEGREE", "DESCRIPTION")] + [
        tuple(map(str, row)) for row in catalog_entries()
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for r in rows:
        sys.stdout.write(
            "  ".join(r[i].ljust(widths[i]) for i in range(4)).rstrip() + "\n"
        )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "suite":
            return _cmd_suite(args)
        return _cmd_catalog(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
