"""Command line front end.

Exit codes: 0 all checks passed, 1 a check failed, 2 bad usage or input.
Rows go to --json as one JSON object per line; --verbose echoes them to
stdout ahead of the summary.  Each subcommand binds its harness.cmd_* call
as run with set_defaults where it is declared, and main calls args.run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import harness


def _read_roster(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        names = [line.split("#", 1)[0].strip() for line in fh]
    return [name for name in names if name]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", metavar="PATH", help="write one JSON row per line to PATH"
    )
    common.add_argument(
        "--verbose", action="store_true", help="echo every row to stdout"
    )

    parser = argparse.ArgumentParser(
        prog="ccakit",
        description="Color-preserving automorphisms of Cayley graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "f21-census",
        parents=[common],
        help="sweep every connected inverse-closed set of F21",
    ).set_defaults(run=lambda args: harness.cmd_f21_census())

    p = sub.add_parser(
        "complete-cca",
        parents=[common],
        help="verdicts for complete graphs against the subgroup criterion",
    )
    p.add_argument(
        "--roster", metavar="FILE", help="group names, one per line"
    )
    p.set_defaults(
        run=lambda args: harness.cmd_complete_cca(
            _read_roster(args.roster) if args.roster else None
        )
    )

    p = sub.add_parser(
        "product-demo",
        parents=[common],
        help="factor an m-cycle product of the order-21 negative instance",
    )
    p.add_argument("--m", type=int, required=True, help="cycle length, 1 or 5")
    p.add_argument(
        "--seed", type=int, default=0, help="seed for the extra random sets"
    )
    p.set_defaults(run=lambda args: harness.cmd_product_demo(args.m, seed=args.seed))

    p = sub.add_parser(
        "oracle-suite",
        parents=[common],
        help="run the independent cross-check suites",
    )
    p.add_argument("--seed", type=int, default=0, help="suite seed")
    p.set_defaults(run=lambda args: harness.cmd_oracle_suite(seed=args.seed))

    p = sub.add_parser(
        "verdict",
        parents=[common],
        help="verdict for one group and connection set",
    )
    p.add_argument("--group", required=True, help="group name, e.g. f21 or z9")
    p.add_argument(
        "--set",
        required=True,
        dest="set_text",
        help='comma-separated elements, e.g. "a,a^-1,ax,(ax)^-1"',
    )
    p.set_defaults(run=lambda args: harness.cmd_verdict(args.group, args.set_text))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rows, summary = args.run(args)
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    if args.verbose:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    for line in summary:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
