"""Command-line interface.

Subcommands: endpoints, bounds, certify, decompose, oracle-check, report.
Exit status is 0 exactly when every pass flag in the emitted document is
true.  A refused setting, a resource limit (depth, witness blocks, attempt
budget), a broken invariant or an `--output` file that cannot be written
exits 2 with one ``error:`` line instead of a traceback.
Decimal output is display-only; every decision is exact.
"""

from __future__ import annotations

import argparse
import sys

from . import kernels, report
from .decompose import Stuck
from .surd import DEFAULT_DISC

# Python's default limit on converting an int to a decimal string; a longer
# preview would fail inside the conversion
MAX_PRECISION = 4300
# A witness of b blocks has about 3*b^2 digits (49,909 at 128), and
# `decompose --blocks b` takes 0.11-0.14 s at 64 blocks and 0.34-0.49 s at
# 128 (16 MB peak), then grows faster than b^4: 0.60 s at 160, 1.8 s at 200
# and 5.4 s at 256, interpreter start included, on a 2-vCPU Xeon VM
MAX_BLOCKS = 128


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="f4cantor",
        description="Exact certification of a continued-fraction Cantor set: "
                    "thickness and log-thickness bounds, cylinder oracles, and "
                    "constructive product decompositions.")
    p.add_argument("--precision", type=int, default=12,
                   help=f"decimal digits in previews (10 to {MAX_PRECISION}, default 12)")
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.add_argument("--output", default=None, help="write the report here instead of stdout")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for per-gap checks (>= 1)")
    p.add_argument("--disc", type=int, default=DEFAULT_DISC,
                   help="radicand for parsing surd targets (default 26565)")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("endpoints", help="root and product-interval endpoints")
    sub.add_parser("bounds", help="nine type bounds, lambda, tau, gamma, mu, delta")

    cert = sub.add_parser("certify", help="check every gap to a tree depth")
    cert.add_argument("--depth", type=int, default=12)

    dec = sub.add_parser("decompose", help="factor a target over the set, with witness")
    dec.add_argument("--target", required=True,
                     help="surd '(p + q*sqrt(D))/r', fraction 'a/b', or decimal")
    dec.add_argument("--depth", type=int, default=60, help="refinement steps")
    dec.add_argument("--blocks", type=int, default=12,
                     help=f"witness blocks to build and verify (0 disables, at most {MAX_BLOCKS})")

    orc = sub.add_parser("oracle-check", help="subdivision engine vs brute-force cylinders")
    orc.add_argument("--depth", type=int, default=12,
                     help="largest cylinder word length to cross-check")

    rep = sub.add_parser("report", help="run everything and emit one document")
    rep.add_argument("--depth", type=int, default=12)
    rep.add_argument("--oracle-depth", type=int, default=8)
    return p


def _at_least(flag: str, value: int, floor: int) -> None:
    """Refuse a value below the floor the option needs: one that would let
    the command pass without checking anything (the oracle's first level has
    word length 3), a preview precision below 10 digits, or fewer than one
    worker."""
    if value < floor:
        raise ValueError(f"{flag} must be >= {floor}, got {value}")


def run(args: argparse.Namespace) -> tuple[int, str]:
    _at_least("--precision", args.precision, 10)
    if args.precision > MAX_PRECISION:
        raise ValueError(f"--precision must be <= {MAX_PRECISION}, got {args.precision}")
    _at_least("--jobs", args.jobs, 1)
    precision = args.precision
    params = {"precision": precision, "jobs": args.jobs, "backend": kernels.backend_name()}

    if args.command == "endpoints":
        doc = report.endpoints_doc(precision)
    elif args.command == "bounds":
        doc = report.bounds_doc(precision)
    elif args.command == "certify":
        from .thickness import certify

        params["depth"] = args.depth
        doc = report.certify_doc(certify(args.depth, jobs=args.jobs), precision)
    elif args.command == "decompose":
        _at_least("--depth", args.depth, 0)
        _at_least("--blocks", args.blocks, 0)
        if args.blocks > MAX_BLOCKS:
            raise ValueError(f"--blocks must be <= {MAX_BLOCKS}, got {args.blocks}")
        params.update(depth=args.depth, target=args.target, disc=args.disc)
        doc = report.decompose_doc(args.target, args.depth, precision,
                                   verify_blocks=args.blocks, disc=args.disc)
    elif args.command == "oracle-check":
        _at_least("--depth", args.depth, 3)
        params["depth"] = args.depth
        doc = report.oracle_doc(args.depth)
    elif args.command == "report":
        from . import constants
        from .thickness import certify

        _at_least("--oracle-depth", args.oracle_depth, 3)
        params.update(depth=args.depth, oracle_depth=args.oracle_depth)
        sections = {
            "endpoints": report.endpoints_doc(precision),
            "bounds": report.bounds_doc(precision),
            "certify": report.certify_doc(certify(args.depth, jobs=args.jobs), precision),
            "oracle": report.oracle_doc(args.oracle_depth),
            "decompose": report.decompose_doc(
                constants.MU_BOUND.canonical_text(), 60, precision, verify_blocks=8),
        }
        sections["passed"] = all(s["passed"] for s in sections.values())
        doc = sections
    else:  # pragma: no cover
        raise SystemExit(f"unknown command {args.command}")

    doc = report.stamp(doc, args.command, params)
    text = report.to_json(doc) if args.format == "json" else report.to_markdown(doc)
    return (0 if doc.get("passed", False) else 1), text


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = run(args)
    except (ValueError, KeyError, Stuck, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
