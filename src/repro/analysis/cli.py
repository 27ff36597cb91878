"""The ``repro check`` subcommand.

Runs the repo-invariant static analysis pass over a source tree and
reports findings in ``path:line:col: RULE message`` form.  Exit codes
follow lint-tool convention: ``0`` clean, ``1`` findings, ``2`` usage
error — CI gates on it next to ``ruff check`` and ``mypy --strict``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import run_check
from .registry import all_rules

__all__ = ["add_check_arguments", "cmd_check"]

#: trees scanned when the command is given no paths
DEFAULT_PATHS = ("src/repro",)


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``check`` subcommand's arguments to ``parser``."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to check (default: src/repro, else "
             "the installed repro package)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids or names to run "
             "(default: every rule)",
    )
    parser.add_argument(
        "--tests", default="tests", metavar="DIR|none",
        help="test tree the engine-parity rule searches for the "
             "oracle and differential coverage (default: ./tests; "
             "'none' skips those checks)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def _default_paths() -> list[str]:
    """``src/repro`` when run from a checkout, else the package itself."""
    for candidate in DEFAULT_PATHS:
        if Path(candidate).is_dir():
            return [candidate]
    return [str(Path(__file__).resolve().parent.parent)]


def _print_rule_catalogue() -> None:
    print("registered analysis rules:")
    for cls in all_rules():
        print(f"  {cls.id}  {cls.name}")
        print(f"         {cls.summary}")
        if cls.hint:
            print(f"         fix: {cls.hint}")
    print(
        'suppress one site with an inline "# repro: ignore[RULE]" '
        "comment on the reported line."
    )


def cmd_check(args: argparse.Namespace) -> int:
    """Entry point wired into ``repro.__main__``."""
    if args.list_rules:
        _print_rule_catalogue()
        return 0
    select = (
        [r for r in args.select.split(",") if r.strip()]
        if args.select
        else None
    )
    tests = None if args.tests == "none" else args.tests
    try:
        result = run_check(
            args.paths or _default_paths(), select=select, tests=tests
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for finding in result.findings:
        print(finding.render())
    tail = f"{result.files_checked} file(s) checked"
    if result.suppressed:
        tail += f", {result.suppressed} finding(s) suppressed inline"
    if result.findings:
        print(f"{len(result.findings)} finding(s), {tail}", file=sys.stderr)
        return 1
    print(f"clean: {tail}")
    return 0
