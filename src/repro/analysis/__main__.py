"""CLI for the project-invariant checker.

Usage::

    python -m repro.analysis src tests benchmarks examples
    python -m repro.analysis --list-rules
    python -m repro.analysis --select REP002 src/repro/experiments

Exit status: 0 clean, 1 diagnostics found, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.engine import Diagnostic, check_paths
from repro.analysis.rules import ALL_RULES, RULES_BY_CODE


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Check the project's reproducibility invariants (REP001-REP006).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "benchmarks", "examples"],
        help="files or directories to check (default: the four project trees)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        help="run only these rule codes (repeatable, e.g. --select REP002)",
    )
    parser.add_argument(
        "--context",
        choices=["src", "tests", "benchmarks", "examples"],
        help="force the tree context instead of inferring it from each path",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.list_rules:
        for rule in ALL_RULES:
            scope = ",".join(sorted(rule.contexts))
            print(f"{rule.code}  {rule.title}  [{scope}]")
            print(f"       {rule.rationale}")
        return 0

    rules = None
    if args.select:
        unknown = [code for code in args.select if code not in RULES_BY_CODE]
        if unknown:
            print(f"unknown rule code(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        rules = [RULES_BY_CODE[code] for code in args.select]

    diagnostics: List[Diagnostic] = check_paths(
        args.paths, context=args.context, rules=rules
    )
    for diag in diagnostics:
        print(diag.render())
    if diagnostics:
        print(
            f"\n{len(diagnostics)} invariant violation(s). Suppress only with "
            "`# repro: noqa-REPxxx <justification>` (see docs/static-analysis.md).",
            file=sys.stderr,
        )
        return 1
    print("repro.analysis: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
