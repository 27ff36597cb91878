"""CCH001 — cache storage stays behind :class:`ResultCache`.

Every on-disk cache access in the package goes through
:class:`repro.harness.cache.ResultCache`.  That boundary keeps entries
inside the ``m<MODEL_VERSION>/`` model directory, written atomically
and counted in :class:`~repro.harness.cache.CacheStats`, and lets
``repro cache gc``/``verify`` reason about the store as a whole.  A
direct ``pickle.load`` on a ``*.pkl`` path — or a hand-built
``<shard>/<key>.pkl`` string — outside ``harness/cache.py`` reads
entries the traffic counters never see and can write them outside the
model directory or torn, so this rule flags, everywhere else in the
package:

* calls to ``pickle.load`` / ``loads`` / ``dump`` / ``dumps`` (the
  cache's payload codec; module code pickles only via the cache or
  implicitly via multiprocessing),
* ``".pkl"`` string literals (building cache payload paths by hand).

``harness/cache.py`` is the single sanctioned implementation site.
Tests, benchmarks and CI scripts live outside ``src/repro`` and may
poke the layout directly; a deliberate in-package exception takes an
inline ``# repro: ignore[CCH001]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..project import Project, SourceModule, dotted_name
from ..registry import Rule, register_rule

__all__ = ["CacheFileDiscipline"]

#: the one module allowed to touch payload files directly
_IMPLEMENTATION = "harness/cache.py"

#: the payload codec's entry points
_PICKLE_CALLS = {
    "pickle.load",
    "pickle.loads",
    "pickle.dump",
    "pickle.dumps",
}


@register_rule
class CacheFileDiscipline(Rule):
    """Flag direct cache-payload I/O outside the cache implementation."""

    id = "CCH001"
    name = "cache-file-discipline"
    summary = (
        "cache payloads are read and written only through ResultCache "
        "— no pickle.* calls or '.pkl' paths outside harness/cache.py"
    )
    hint = "go through ResultCache (repro.harness.cache)"

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.package_path == _IMPLEMENTATION:
            return
        for node in ast.walk(module.tree):
            message: str | None = None
            if isinstance(node, ast.Call):
                resolved = dotted_name(node.func, module.imports)
                if resolved in _PICKLE_CALLS:
                    message = (
                        f"direct {resolved}() call: cache payloads are "
                        "(un)pickled only by the ResultCache "
                        "implementation, which keeps writes atomic "
                        "and traffic stats honest"
                    )
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.endswith(".pkl")  # repro: ignore[CCH001]
            ):
                message = (
                    f"hand-built cache payload path {node.value!r}: "
                    "entries addressed outside ResultCache escape the "
                    "model directory that gc/verify maintain"
                )
            if message is not None:
                yield Finding(
                    rule=self.id,
                    path=module.display,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                    hint=self.hint,
                )
