"""Command-line entry point.

Usage:
    equivab INPUT.json                 compute the abelianization report
    equivab INPUT.json --verify       re-verify every structural claim
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io as eio
from .pipeline import InputError, PipelineError, run_pipeline, verify_models


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
    p.add_argument("--seed", type=int, default=None, help="random seed")
    p.add_argument(
        "--degree-bound",
        type=int,
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
        type=int,
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
            models, options = eio.parse_input(sys.stdin)
        else:
            models, options = eio.parse_file(args.input)
    except (InputError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2

    seed = args.seed
    if seed is None:
        seed = options.get("seed")
    if seed is None:
        seed = int(os.environ.get("EQUIVAB_SEED", "0"))
    degree = args.degree_bound
    if degree is None:
        degree = options.get("degree_bound")
    if args.max_group_order is not None:
        from dataclasses import replace

        from .symmetry import FiniteMatrixAction

        models = [
            replace(
                m,
                slice_action=replace(m.slice_action, cap=args.max_group_order),
            )
            if isinstance(m.slice_action, FiniteMatrixAction)
            else m
            for m in models
        ]

    if args.verify:
        report = verify_models(models, seed=seed, degree_bound=degree)
        for item in report.items:
            status = "pass" if item.passed else "FAIL"
            line = "[%s] %s: %s" % (status, item.orbit, item.check)
            if item.detail:
                line += " (%s)" % item.detail
            print(line)
        print("verification %s" % ("passed" if report.passed else "FAILED"))
        return 0 if report.passed else 1

    try:
        report = run_pipeline(models, seed=seed, degree_bound=degree)
    except (PipelineError, InputError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(eio.format_report(report))
    if args.emit_json:
        with open(args.emit_json, "w", encoding="utf-8") as fh:
            fh.write(eio.serialize_report(report))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
