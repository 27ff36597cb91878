"""Check engine: walk files, run rules, filter suppressions.

:func:`run_check` is the programmatic entry point (the ``repro
check`` subcommand is a thin shell around it): it loads every ``.py``
file under the given paths into a :class:`~repro.analysis.project.
Project`, indexes the cross-module context rules need (dataclasses,
enums, the differential test suite), runs every selected rule over
every module, and drops findings whose line carries a matching
``# repro: ignore[RULE]`` marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .findings import Finding
from .project import Project, index_module, load_module
from .registry import Rule, resolve_rules

__all__ = ["CheckResult", "collect_files", "load_project", "run_check"]

#: rule id attached to files the parser rejects outright
PARSE_ERROR_RULE = "PARSE"

#: directory names never descended into
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}


@dataclass
class CheckResult:
    """Outcome of one :func:`run_check` call."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: findings dropped by inline ``# repro: ignore[...]`` markers
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        """Whether the checked tree is clean."""
        return not self.findings


def collect_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                parts = set(candidate.parts)
                if parts & _SKIP_DIRS:
                    continue
                out.add(candidate)
        elif path.suffix == ".py":
            out.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(out)


def _display_path(path: Path) -> str:
    """Repo-relative display form when possible, else the path as-is."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return str(path)


def _load_tests(
    tests: str | Path | None,
) -> tuple[str | None, tuple[str, ...], str | None]:
    """The text PAR001 searches: the differential test modules (and
    their file names) and the oracle module, ``oracles.py``."""
    if tests is None:
        return None, (), None
    root = Path(tests)
    if not root.is_dir():
        return None, (), None
    files = sorted(root.glob("test_*equivalence*.py"))
    if not files:
        # Fall back to the whole test tree: parity can be pinned in a
        # subsystem suite (e.g. test_array_lru.py's differential tests).
        files = sorted(root.glob("test_*.py"))
    text = "\n".join(f.read_text() for f in files)
    oracle = root / "oracles.py"
    oracle_text = oracle.read_text() if oracle.is_file() else ""
    return text, tuple(f.name for f in files), oracle_text


def load_project(
    paths: Iterable[str | Path],
    tests: str | Path | None = None,
) -> tuple[Project, list[Finding]]:
    """Parse and index every file; unparsable files become findings."""
    project = Project()
    parse_errors: list[Finding] = []
    for path in collect_files(paths):
        display = _display_path(path)
        try:
            module = load_module(path, display)
        except SyntaxError as exc:
            parse_errors.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        project.modules.append(module)
        index_module(project, module)
    project.test_text, project.test_files, project.oracle_text = _load_tests(tests)
    return project, parse_errors


def run_check(
    paths: Iterable[str | Path],
    select: Sequence[str] | None = None,
    tests: str | Path | None = None,
) -> CheckResult:
    """Run the selected rules over ``paths``.

    ``select`` narrows the rule set (ids or kebab-case names);
    ``tests`` points the engine at the test tree the engine-parity
    rule searches (None: structural checks only).  Findings come back
    sorted by file and position; suppressed findings are counted but
    not returned.
    """
    rule_classes = resolve_rules(select)
    project, parse_errors = load_project(paths, tests=tests)
    result = CheckResult(files_checked=len(project.modules) + len(parse_errors))
    result.findings.extend(parse_errors)
    rules: list[Rule] = [cls() for cls in rule_classes]
    for module in project.modules:
        for rule in rules:
            for finding in rule.check(module, project):
                if module.suppressed(finding.rule, finding.line):
                    result.suppressed += 1
                else:
                    result.findings.append(finding)
    result.findings.sort(key=Finding.sort_key)
    return result
