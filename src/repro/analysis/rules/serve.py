"""SRV001 — async discipline for the evaluation service.

The ``repro.serve`` daemon multiplexes every client onto one event
loop, so a single blocking call inside a coroutine stalls *all*
sessions at once — and a wall-clock read inside the service layer
reintroduces exactly the time-dependence RNG001 banishes from results.
This rule extends that discipline to the async layer.  Inside
``serve/`` modules it flags:

* **blocking calls inside coroutines** — ``time.sleep`` (use
  ``asyncio.sleep``) and the synchronous ``socket`` API
  (``socket.socket`` / ``create_connection`` / ...; coroutines must
  use asyncio streams — the synchronous :class:`ServeClient` lives in
  plain functions, which this rule deliberately does not touch);
* **wall-clock reads inside coroutines** — ``time.time`` and friends;
  daemon-side timing (uptime, latency) must come from the event
  loop's monotonic ``loop.time()``;
* **unthreaded RNG state anywhere in a serve module** — module-level
  generators (shared across every session) or literal-constant seeds
  (which ignore the spec's seed): any randomness a service path needs
  must be threaded from the submission's spec seed, never minted by
  the daemon, or two clients submitting the same spec would receive
  different results.

A deliberate exception takes an inline ``# repro: ignore[SRV001]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..project import Project, SourceModule, dotted_name
from ..registry import Rule, register_rule
from .rng import _WALL_CLOCK

__all__ = ["ServeAsyncDiscipline"]

#: synchronous calls that stall the event loop when awaited around
_BLOCKING_CALLS = {
    "time.sleep",
    "socket.socket",
    "socket.create_connection",
    "socket.create_server",
    "socket.getaddrinfo",
    "socket.gethostbyname",
    "socket.socketpair",
}

#: RNG entry points whose construction this rule audits
_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
}


def _function_scoped_nodes(tree: ast.Module) -> set[int]:
    """Ids of every AST node enclosed in a function body."""
    scoped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in ast.walk(node):
                scoped.add(id(child))
    return scoped


def _seed_arguments(node: ast.Call) -> Iterator[ast.expr]:
    """The expressions a RNG constructor call derives its state from."""
    yield from node.args
    for keyword in node.keywords:
        if keyword.arg in (None, "seed", "entropy"):
            yield keyword.value


def _coroutine_nodes(tree: ast.Module) -> set[int]:
    """Ids of every AST node enclosed in an ``async def`` body.

    Nested synchronous helpers defined *inside* a coroutine still run
    on the loop thread when called from it, so they stay included.
    """
    scoped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            for child in ast.walk(node):
                scoped.add(id(child))
    return scoped


@register_rule
class ServeAsyncDiscipline(Rule):
    """Flag blocking/wall-clock calls in serve coroutines and daemon RNG."""

    id = "SRV001"
    name = "serve-async-discipline"
    summary = (
        "serve coroutines must not block (time.sleep, sync socket "
        "ops) or read the wall clock; serve RNG must be threaded "
        "from the spec seed"
    )
    hint = (
        "use asyncio.sleep / asyncio streams / loop.time() inside "
        "coroutines, and thread any RNG from the submitted spec's seed"
    )

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        sub = module.package_path
        if sub is None or sub.split("/", 1)[0] != "serve":
            return
        in_coroutine = _coroutine_nodes(module.tree)
        in_function = _function_scoped_nodes(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = dotted_name(node.func, module.imports)
            if resolved is None:
                continue
            if id(node) in in_coroutine:
                message = self._coroutine_violation(resolved)
                if message is not None:
                    yield Finding(
                        rule=self.id,
                        path=module.display,
                        line=node.lineno,
                        col=node.col_offset,
                        message=message,
                        hint=self.hint,
                    )
                    continue
            message = self._rng_violation(resolved, node, id(node) in in_function)
            if message is not None:
                yield Finding(
                    rule=self.id,
                    path=module.display,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                    hint=self.hint,
                )

    def _coroutine_violation(self, resolved: str) -> str | None:
        if resolved == "time.sleep":
            return (
                "time.sleep() inside a coroutine stalls every session "
                "on the event loop; use asyncio.sleep()"
            )
        if resolved in _BLOCKING_CALLS or resolved.startswith("socket."):
            return (
                f"blocking socket call {resolved}() inside a coroutine; "
                "use asyncio streams (open_connection / start_server)"
            )
        if resolved in _WALL_CLOCK:
            return (
                f"wall-clock call {resolved}() inside a serve coroutine; "
                "daemon timing must use the loop's monotonic loop.time()"
            )
        return None

    def _rng_violation(
        self, resolved: str, node: ast.Call, scoped: bool
    ) -> str | None:
        if resolved not in _RNG_CONSTRUCTORS:
            return None
        tail = resolved.rsplit(".", 1)[-1]
        if not scoped:
            return (
                f"module-level np.random.{tail}(...) creates RNG state "
                "shared across every session; thread it from the "
                "submitted spec's seed"
            )
        for argument in _seed_arguments(node):
            if isinstance(argument, ast.Constant) and isinstance(
                argument.value, (int, float)
            ):
                return (
                    f"np.random.{tail}({argument.value!r}) hard-codes a "
                    "seed inside the service layer, bypassing the "
                    "submitted spec's seed"
                )
        return None
