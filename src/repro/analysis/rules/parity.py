"""PAR001 — engine parity for batched fast paths.

Every vectorized fast path in this repository is licensed by a
reference implementation and a differential test pinning the two
bit-identical (the timing engine, the AVR replay, the trace generator
and the compressor all ship that way).  The package keeps only the
batched paths; their references live in the test oracle
(``tests/oracles.py``).  The convention is easy to erode: a new
``replay_batch`` or ``compress_blocks`` without a reference, or without
a differential test, compiles and runs — it just stops being
*verifiable*.

This rule checks every class that defines one of :data:`FAST_PATHS`:

* the class name must appear in the test oracle module
  (``tests/oracles.py``), where its reference lives,
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

__all__ = ["FAST_PATHS", "EngineParity"]

#: methods whose classes need an oracle twin and a differential test:
#: the batched timing replays and the stacked compressor pass
FAST_PATHS = ("replay_batch", "compress_blocks")


@register_rule
class EngineParity(Rule):
    """Flag batched replay paths without an oracle twin or a diff test."""

    id = "PAR001"
    name = "engine-parity"
    summary = (
        "every class defining replay_batch or compress_blocks must be "
        "named in the test oracle module and in a differential "
        "(equivalence) test module"
    )
    hint = (
        "give the class a reference in tests/oracles.py and "
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
            method = next(
                (
                    stmt.name
                    for stmt in node.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name in FAST_PATHS
                ),
                None,
            )
            if method is None:
                continue
            if node.name not in project.oracle_text:
                yield Finding(
                    rule=self.id,
                    path=module.display,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"class {node.name} defines {method} but the "
                        "test oracle module names no reference for it"
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
                        f"class {node.name} defines {method} but "
                        "appears in no differential test module "
                        f"(searched: {tests})"
                    ),
                    hint=self.hint,
                )
