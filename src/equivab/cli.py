"""Command-line entry point.

Usage:
    equivab INPUT.json                 compute the abelianization report
    equivab INPUT.json --verify       re-verify every structural claim
"""

from __future__ import annotations

import argparse
import sys

from . import io as eio
from .pipeline import InputError, PipelineError, run_pipeline, verify_models


def _at_least(least: int):
    """An argparse type: a decimal integer >= least, where least >= 0."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(
                "expected an integer >= %d, got %r" % (least, text)
            )
        return int(text)

    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="equivab",
        description=(
            "Compute abelianizations of equivariant vector field algebras "
            "from isolated-orbit data."
        ),
    )
    p.add_argument("input", help="input JSON document (- for stdin)")
    p.add_argument(
        "--verify",
        action="store_true",
        help="run verification mode instead of plain compute",
    )
    p.add_argument(
        "--seed",
        type=_at_least(0),
        default=None,
        help="accepted for older callers and unused: every result is exact",
    )
    p.add_argument(
        "--degree-bound",
        type=_at_least(1),
        default=None,
        help="invariant degree bound for quotient computations",
    )
    p.add_argument(
        "--emit-json",
        metavar="PATH",
        default=None,
        help="also write the machine-readable report to PATH (not with --verify)",
    )
    p.add_argument(
        "--max-group-order",
        dest="group_cap",
        type=_at_least(1),
        default=None,
        help="cap on finite group enumeration",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verify and args.emit_json:
        parser.error("--verify does not write a report; drop --emit-json")
    try:
        if args.input == "-":
            models = eio.parse_input(sys.stdin, vars(args))
        else:
            with open(args.input, encoding="utf-8") as fh:
                models = eio.parse_input(fh, vars(args))
    except (InputError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2

    if args.verify:
        report = verify_models(models)
        for item in report.items:
            status = "pass" if item.passed else "FAIL"
            line = "[%s] %s: %s" % (status, item.orbit, item.check)
            if item.detail:
                line += " (%s)" % item.detail
            print(line)
        print("verification %s" % ("passed" if report.passed else "FAILED"))
        return 0 if report.passed else 1

    try:
        report = run_pipeline(models)
    except (PipelineError, InputError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(eio.format_report(report))
    if args.emit_json:
        try:
            with open(args.emit_json, "w", encoding="utf-8") as fh:
                fh.write(eio.serialize_report(report))
                fh.write("\n")
        except OSError as exc:
            print("error: cannot write %s: %s" % (args.emit_json, exc.strerror or exc),
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
