"""Repo-invariant static analysis: the ``repro check`` pass.

The correctness story of this reproduction rests on conventions no
general-purpose linter knows about: seeded-RNG discipline (content
hashes and differential tests assume determinism), explicit dtypes in
the kernel sub-packages (bit-identity across platforms), cache-key
completeness of the spec dataclasses, picklable job units, and
retained reference paths for every batched replay
implementation.  This package encodes those invariants as AST-level
rules with stable ids, a registry (:mod:`repro.analysis.registry`),
inline ``# repro: ignore[RULE]`` suppressions, and a CLI/CI gate
(``repro check``).

Programmatic use::

    from repro.analysis import run_check
    result = run_check(["src/repro"], tests="tests")
    assert result.ok, [f.render() for f in result.findings]

Adding a rule is one registered class — see
:class:`repro.analysis.registry.Rule` and the shipped rules under
``repro/analysis/rules/``.
"""

from __future__ import annotations

from . import rules as _rules  # noqa: F401  (registers the shipped rules)
from .engine import CheckResult, collect_files, load_project, run_check
from .findings import Finding
from .registry import Rule, all_rules, get_rule, register_rule, resolve_rules

__all__ = [
    "CheckResult",
    "Finding",
    "Rule",
    "all_rules",
    "collect_files",
    "get_rule",
    "load_project",
    "register_rule",
    "resolve_rules",
    "run_check",
]
