"""Command line driver: one verify subcommand over the suite registry."""

from __future__ import annotations

import argparse
import json
import sys

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
    # an absent flag leaves its SuiteConfig field at the field's default
    verify = sub.add_parser(
        "verify", help="run a verification suite", argument_default=argparse.SUPPRESS
    )
    verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    verify.add_argument("--pmax", type=int, help="largest prime for the gauss sweep")
    verify.add_argument("--precision", type=int, help="p-adic precision exponent M")
    verify.add_argument(
        "--group",
        action="append",
        dest="groups",
        metavar="FACTORS",
        help="invariant-factor literal like 3,9; repeatable",
    )
    verify.add_argument("--trials", type=int, help="randomized cases per group")
    verify.add_argument("--seed", help="seed for randomized suites")
    verify.add_argument(
        "--p", type=int, help="restrict the gauss or wild suite to a single prime"
    )
    verify.add_argument(
        "--n", type=int, help="restrict the gauss or wild suite to one character order"
    )
    verify.add_argument(
        "--product",
        type=int,
        metavar="R",
        help="also check an R-fold product decomposition (needs --p)",
    )
    verify.add_argument(
        "--max-order", type=int, help="largest g0 for the ramify enumeration"
    )
    verify.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    return parser


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    del args["command"]
    fmt = args.pop("fmt")
    try:
        report, code = run(SuiteConfig(**args))
    except ValueError as exc:
        precision = getattr(exc, "suggested_precision", None)
        hint = "" if precision is None else " (try --precision %d)" % precision
        print("error: %s%s" % (exc, hint), file=sys.stderr)
        return 2
    if fmt == "json":
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
