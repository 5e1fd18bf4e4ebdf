"""Command-line front end.

``daff check`` validates a document, ``daff build`` constructs derived
objects and reports their structure, ``daff verify`` runs a named suite of
randomized structural checks.  Exit status: 0 when every check passes, 1 when
some check fails, 2 on parse or validation errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import dsl, suites
from .errors import DaffineError


def _default_format() -> str:
    env = os.environ.get("DAFF_FORMAT", "text")
    return env if env in ("text", "json") else "text"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daff",
        description="Exact checks for double and higher affine bundle structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate a document")
    check.add_argument("file", help="a .daff document")
    check.add_argument("--format", choices=("text", "json"), default=_default_format())

    build = sub.add_parser("build", help="construct derived objects and report them")
    build.add_argument("--op", required=True, choices=suites.BUILD_OPS)
    build.add_argument("file", help="a .daff document")
    build.add_argument("-o", "--out", help="write the report to a file")
    build.add_argument("--format", choices=("text", "json"), default=_default_format())

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True, choices=suites.SUITE_NAMES)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--format", choices=("text", "json"), default=_default_format())
    verify.add_argument("file", help="a .daff document")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "check":
        command, seed, trials = "check", 0, 0
    elif args.command == "build":
        command, seed, trials = f"build:{args.op}", 0, 0
    else:
        command, seed, trials = f"verify:{args.suite}", args.seed, args.trials

    out_path = getattr(args, "out", None)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        report = suites.run(dsl.parse(text), command, seed=seed, trials=trials)
        rendered = report.to_json() if args.format == "json" else report.to_text()
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(rendered)
    except (OSError, UnicodeDecodeError, DaffineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not out_path:
        sys.stdout.write(rendered)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
