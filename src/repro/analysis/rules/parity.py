"""PAR001 — engine parity for batched replay paths.

Every vectorized fast path in this repository is licensed by a
reference implementation and a differential test pinning the two
bit-identical (the timing engine, the AVR replay and the trace
generator all ship that way).  The package keeps only the batched
paths; their per-event references live in the test oracle
(``tests/oracles.py``).  The convention is easy to erode: a new
``replay_batch`` without a reference, or without a differential test,
compiles and runs — it just stops being *verifiable*.

This rule checks every class that defines a ``replay_batch`` method:

* the class name must appear in the test oracle module
  (``tests/oracles.py``), where its per-event reference lives,
* the class name must appear in at least one differential test module
  (a ``tests/test_*equivalence*.py`` file), so the parity is actually
  exercised.

Both checks need the test tree; when the checker runs without one
(``repro check --tests none``), the rule reports nothing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..project import Project, SourceModule
from ..registry import Rule, register_rule

__all__ = ["EngineParity"]


@register_rule
class EngineParity(Rule):
    """Flag batched replay paths without an oracle twin or a diff test."""

    id = "PAR001"
    name = "engine-parity"
    summary = (
        "every class defining replay_batch must be named in the test "
        "oracle module and in a differential (equivalence) test module"
    )
    hint = (
        "give the class a per-event reference in tests/oracles.py and "
        "pin bit-identity in tests/test_*equivalence*.py"
    )

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if project.test_text is None or project.oracle_text is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == "replay_batch"
                for stmt in node.body
            ):
                continue
            if node.name not in project.oracle_text:
                yield Finding(
                    rule=self.id,
                    path=module.display,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"class {node.name} defines replay_batch but the "
                        "test oracle module names no per-event reference "
                        "for it"
                    ),
                    hint=self.hint,
                )
            if node.name not in project.test_text:
                tests = ", ".join(project.test_files) or "<none found>"
                yield Finding(
                    rule=self.id,
                    path=module.display,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"class {node.name} defines replay_batch but "
                        "appears in no differential test module "
                        f"(searched: {tests})"
                    ),
                    hint=self.hint,
                )
