"""Command line driver: one verify subcommand over the suite registry."""

from __future__ import annotations

import argparse
import json
import sys

from .padic import PrecisionError
from .suites import SUITES, SuiteConfig, run


def build_parser():
    parser = argparse.ArgumentParser(
        prog="resolvend-lab",
        description=(
            "Exact-arithmetic verification suites for resolvend transforms, "
            "Gauss sums, Stickelberger integrality, wild symbol identities, "
            "and ramification filtrations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    verify.add_argument(
        "--pmax", type=int, default=31, help="largest prime for the gauss sweep"
    )
    verify.add_argument(
        "--precision", type=int, default=6, help="p-adic precision exponent M"
    )
    verify.add_argument(
        "--group",
        action="append",
        metavar="FACTORS",
        help="invariant-factor literal like 3,9; repeatable",
    )
    verify.add_argument(
        "--trials", type=int, default=None, help="randomized cases per group"
    )
    verify.add_argument(
        "--seed", default="resolvend", help="seed for randomized suites"
    )
    verify.add_argument(
        "--p",
        type=int,
        default=None,
        help="restrict the gauss or wild suite to a single prime",
    )
    verify.add_argument(
        "--n",
        type=int,
        default=None,
        help="restrict the gauss or wild suite to one character order",
    )
    verify.add_argument(
        "--product",
        type=int,
        default=None,
        metavar="R",
        help="also check an R-fold product decomposition (needs --p)",
    )
    verify.add_argument(
        "--max-order",
        type=int,
        default=81,
        dest="max_order",
        help="largest g0 for the ramify enumeration",
    )
    verify.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = SuiteConfig(
            suite=args.suite,
            pmax=args.pmax,
            precision=args.precision,
            groups=tuple(args.group) if args.group else (),
            trials=args.trials,
            seed=args.seed,
            p=args.p,
            n=args.n,
            product=args.product,
            max_order=args.max_order,
        )
        report, code = run(config)
    except PrecisionError as exc:
        hint = ""
        if exc.suggested_precision is not None:
            hint = " (try --precision %d)" % exc.suggested_precision
        print("error: %s%s" % (exc, hint), file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
        sys.stdout.write("\n")
    else:
        for rec in report["records"]:
            status = "PASS" if rec["pass"] else "FAIL"
            print(
                "%s %s %s [%s]" % (status, rec["suite"], rec["case"], rec["citation"])
            )
        print("passed=%d failed=%d" % (report["passed"], report["failed"]))
    return code
