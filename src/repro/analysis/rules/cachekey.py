"""KEY001/KEY002 — cache-key completeness of the spec dataclasses.

Sweep results are memoized under a content hash built by
:func:`repro.harness.cache._canonical`, which canonicalizes exactly:
dataclasses (by identity-participating fields), enums, dicts, tuples,
lists and scalars.  A spec field outside that closure either crashes
key construction at runtime or — worse, if it slips through ``repr``
— hashes by object identity and silently splits or aliases cache
entries.  Two rules keep the spec surface honest statically:

* **KEY001** walks the spec roots (``SweepPoint``, ``SweepSpec``,
  ``ScenarioPoint``, ``ExperimentSpec``, ``DesignSpec``,
  ``SystemConfig``) and every dataclass reachable from their field
  annotations, and flags any identity-participating field whose
  annotation is not statically canonicalizable.  ``compare=False``
  fields are outside a value's identity and are skipped.  Bare ``Any`` is flagged; ``Any`` nested inside a
  container is tolerated (the runtime canonicalizer still guards it).
* **KEY002** flags mutable defaults (``default_factory=list/dict/set``
  or a lambda returning a literal) on *frozen* dataclasses: a frozen
  spec with mutable state is hashable by accident and a latent
  cache-key aliasing bug.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..project import DataclassInfo, Project, SourceModule
from ..registry import Rule, register_rule

__all__ = ["CacheKeyCompleteness", "FrozenSpecMutableDefault"]

#: the dataclasses whose values reach ``content_key``; the rule chases
#: every dataclass referenced from their annotations too
SPEC_ROOTS = (
    "SweepPoint",
    "SweepSpec",
    "ScenarioPoint",
    "ExperimentSpec",
    "DesignSpec",
    "SystemConfig",
)

#: scalar annotations ``_canonical`` handles directly
_SCALARS = {"int", "float", "str", "bool", "bytes", "None"}

#: container heads ``_canonical`` recurses into
_CONTAINERS = {"tuple", "Tuple", "list", "List", "dict", "Dict"}


def _last_part(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _annotation_ok(
    node: ast.expr, project: Project, nested: bool = False
) -> tuple[bool, str]:
    """Whether an annotation stays inside the canonicalizable closure.

    Returns ``(ok, culprit)`` where ``culprit`` names the offending
    sub-expression of a failed check.
    """
    if isinstance(node, ast.Constant):
        if node.value is None:
            return True, ""
        if isinstance(node.value, str):  # string annotation: parse it
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return False, node.value
            return _annotation_ok(parsed, project, nested)
        return False, repr(node.value)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            ok, culprit = _annotation_ok(side, project, nested)
            if not ok:
                return False, culprit
        return True, ""
    if isinstance(node, ast.Subscript):
        head = _last_part(node.value)
        elts = (
            list(node.slice.elts)
            if isinstance(node.slice, ast.Tuple)
            else [node.slice]
        )
        if head in _CONTAINERS:
            for elt in elts:
                if isinstance(elt, ast.Constant) and elt.value is Ellipsis:
                    continue
                ok, culprit = _annotation_ok(elt, project, nested=True)
                if not ok:
                    return False, culprit
            return True, ""
        if head in ("Optional", "Union"):
            for elt in elts:
                ok, culprit = _annotation_ok(elt, project, nested)
                if not ok:
                    return False, culprit
            return True, ""
        return False, ast.unparse(node)
    name = _last_part(node)
    if name is None:
        return False, ast.unparse(node)
    if name in _SCALARS:
        return True, ""
    if name == "Any":
        # Nested Any is runtime-guarded by _canonical's TypeError;
        # a field that is *entirely* Any escapes all static checking.
        return (True, "") if nested else (False, "Any")
    if name in project.enums or name in project.dataclasses:
        return True, ""
    return False, name


def _reachable_specs(project: Project) -> dict[str, DataclassInfo]:
    """Spec roots plus every dataclass their annotations reference."""
    queue = [name for name in SPEC_ROOTS if name in project.dataclasses]
    seen: dict[str, DataclassInfo] = {}
    while queue:
        name = queue.pop()
        if name in seen:
            continue
        info = project.dataclasses[name]
        seen[name] = info
        for field in info.fields:
            if not field.compare:
                continue  # outside identity: never canonicalized
            for node in ast.walk(field.annotation):
                ref = _last_part(node)
                if ref in project.dataclasses and ref not in seen:
                    queue.append(ref)
    return seen


@register_rule
class CacheKeyCompleteness(Rule):
    """Flag spec fields the cache canonicalizer cannot cover."""

    id = "KEY001"
    name = "cache-key-completeness"
    summary = (
        "every identity field of the spec dataclasses (SweepPoint, "
        "ExperimentSpec, DesignSpec, SystemConfig, ...) must be a type "
        "harness/cache._canonical can canonicalize"
    )
    hint = (
        "use scalars/tuples/enums/spec dataclasses, or mark the field "
        "field(compare=False) to exclude it from identity"
    )

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        for info in _reachable_specs(project).values():
            if info.module is not module:
                continue
            for field in info.fields:
                if not field.compare:
                    continue
                ok, culprit = _annotation_ok(field.annotation, project)
                if ok:
                    continue
                yield Finding(
                    rule=self.id,
                    path=module.display,
                    line=field.line,
                    col=field.col,
                    message=(
                        f"spec field {info.name}.{field.name} has "
                        f"annotation {ast.unparse(field.annotation)!r} "
                        f"whose component {culprit!r} is not statically "
                        "canonicalizable into a cache key"
                    ),
                    hint=self.hint,
                )


_MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray"}


def _mutable_factory(node: ast.expr) -> str | None:
    """Name of a known-mutable default factory, if ``node`` is one."""
    name = _last_part(node)
    if name in _MUTABLE_FACTORIES:
        return name
    if isinstance(node, ast.Lambda) and isinstance(
        node.body, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp)
    ):
        return "lambda"
    return None


@register_rule
class FrozenSpecMutableDefault(Rule):
    """Flag mutable default factories on frozen dataclasses."""

    id = "KEY002"
    name = "frozen-spec-mutable-default"
    summary = (
        "frozen spec dataclasses must not carry mutable defaults "
        "(default_factory=list/dict/set): hashable-by-accident state "
        "aliases cache keys"
    )
    hint = "use a tuple default (or drop frozen=True if state is intended)"

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        for info in project.dataclasses.values():
            if info.module is not module or not info.frozen:
                continue
            for field in info.fields:
                if field.default_factory is None:
                    continue
                factory = _mutable_factory(field.default_factory)
                if factory is None:
                    continue
                yield Finding(
                    rule=self.id,
                    path=module.display,
                    line=field.line,
                    col=field.col,
                    message=(
                        f"frozen dataclass field {info.name}."
                        f"{field.name} defaults to mutable "
                        f"{factory!r} via default_factory"
                    ),
                    hint=self.hint,
                )
