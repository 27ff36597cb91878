"""PKL001 — job units must pickle.

The sweep engine fans job units out over a
``ProcessPoolExecutor``; everything submitted to the pool — job
functions and their arguments — crosses a process boundary by
pickling.  Lambdas do not pickle, and the failure surfaces only when a
sweep first runs with ``jobs>1`` (often in CI, long after the code
merged).  This rule catches a lambda submitted directly to an executor
(``pool.submit(lambda: ...)``, ``pool.map(lambda ...)``) or wrapped in
``functools.partial``.

Module-level functions (and ``functools.partial`` over them) pickle
fine and never fire.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..project import Project, SourceModule, dotted_name
from ..registry import Rule, register_rule

__all__ = ["PicklableHooks"]


@register_rule
class PicklableHooks(Rule):
    """Flag lambdas submitted to executors or wrapped in ``partial``."""

    id = "PKL001"
    name = "picklable-hooks"
    summary = (
        "no lambdas as executor submissions or functools.partial "
        "targets — job units must pickle into pool workers"
    )
    hint = "define the callable at module level so it pickles"

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_submissions(node, module)

    def _check_submissions(
        self, node: ast.Call, module: SourceModule
    ) -> Iterator[Finding]:
        func = node.func
        is_submit = isinstance(func, ast.Attribute) and func.attr in (
            "submit",
            "map",
        )
        is_partial = dotted_name(func, module.imports) == "functools.partial"
        if not (is_submit or is_partial) or not node.args:
            return
        first = node.args[0]
        if isinstance(first, ast.Lambda):
            seam = "functools.partial" if is_partial else "executor submission"
            yield Finding(
                rule=self.id,
                path=module.display,
                line=first.lineno,
                col=first.col_offset,
                message=(
                    f"lambda passed to {seam}: it cannot pickle into "
                    "sweep worker processes"
                ),
                hint=self.hint,
            )
