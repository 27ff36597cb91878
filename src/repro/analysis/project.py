"""Project model the analysis rules run against.

A :class:`SourceModule` is one parsed file: its AST, raw source lines,
the ``# repro: ignore[...]`` suppressions found in it, and an import
map that resolves local names back to the dotted modules they came
from (so a rule can recognize ``np.random.default_rng`` however numpy
was imported).  A :class:`Project` is the whole scanned tree plus the
cross-module indexes some rules need: every dataclass and enum
definition (cache-key completeness) and the concatenated text of the
test suite and its oracle module (engine parity).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "DataclassField",
    "DataclassInfo",
    "Project",
    "SourceModule",
    "dotted_name",
    "load_module",
]

#: kernel sub-packages where explicit dtypes are mandatory (DTY001)
KERNEL_SUBPACKAGES = ("trace", "cache", "system")

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?"
)


@dataclass(frozen=True)
class DataclassField:
    """One field of a scanned dataclass definition."""

    name: str
    #: the annotation expression (never None for AnnAssign fields)
    annotation: ast.expr
    #: ``field(compare=False)`` fields are outside the value's identity
    compare: bool
    #: the ``default_factory=...`` expression, if any
    default_factory: ast.expr | None
    line: int
    col: int


@dataclass(frozen=True)
class DataclassInfo:
    """One ``@dataclass``-decorated class definition."""

    name: str
    module: "SourceModule"
    frozen: bool
    fields: tuple[DataclassField, ...]
    line: int


@dataclass
class SourceModule:
    """One parsed source file plus per-file rule context."""

    path: Path
    #: path as displayed in findings (relative where possible)
    display: str
    tree: ast.Module
    lines: tuple[str, ...]
    #: ``{line: frozenset of rule ids}``; ``None`` suppresses all rules
    suppressions: dict[int, frozenset[str] | None]
    #: ``{local name: dotted module/attribute it aliases}``
    imports: dict[str, str]

    @property
    def package_path(self) -> str | None:
        """Posix sub-path inside the ``repro`` package, if any.

        ``.../src/repro/trace/store.py`` maps to ``trace/store.py``;
        files outside a ``repro`` package (e.g. test fixtures) map to
        ``None``, which rules treat as "apply everywhere".
        """
        parts = self.path.parts
        for i in range(len(parts) - 1, -1, -1):
            if parts[i] == "repro":
                return "/".join(parts[i + 1:])
        return None

    @property
    def in_kernel_subpackage(self) -> bool:
        """Whether explicit-dtype discipline (DTY001) applies here."""
        sub = self.package_path
        if sub is None:
            return True  # fixture files: always apply
        return sub.split("/", 1)[0] in KERNEL_SUBPACKAGES

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is suppressed on ``line``."""
        if line not in self.suppressions:
            return False
        rules = self.suppressions[line]
        return rules is None or rule_id in rules


@dataclass
class Project:
    """Every scanned module plus the cross-module rule indexes."""

    modules: list[SourceModule] = field(default_factory=list)
    #: dataclass definitions by class name (last definition wins)
    dataclasses: dict[str, DataclassInfo] = field(default_factory=dict)
    #: names of ``enum.Enum``-family classes defined in the tree
    enums: set[str] = field(default_factory=set)
    #: concatenated text of the test suite (None: no tests located)
    test_text: str | None = None
    #: file names of the test modules folded into ``test_text``
    test_files: tuple[str, ...] = ()
    #: text of the test oracle module(s) (None: no tests located)
    oracle_text: str | None = None


def _parse_suppressions(lines: tuple[str, ...]) -> dict[int, frozenset[str] | None]:
    """Extract ``# repro: ignore[RULE,...]`` markers per source line."""
    out: dict[int, frozenset[str] | None] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None or not rules.strip():
            out[lineno] = None  # bare "repro: ignore": every rule
        else:
            out[lineno] = frozenset(
                r.strip() for r in rules.split(",") if r.strip()
            )
    return out


def _parse_imports(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted modules/attributes they alias."""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    # "import a.b" binds "a"
                    head = alias.name.split(".", 1)[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports resolve inside the package
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def dotted_name(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Resolve an attribute chain to its dotted form, through imports.

    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    under ``import numpy as np``; chains not rooted in a plain name
    (calls, subscripts) resolve to ``None``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    head = imports.get(node.id, node.id)
    parts.append(head)
    return ".".join(reversed(parts))


def _dataclass_decorator(node: ast.ClassDef) -> ast.Call | ast.expr | None:
    """The ``@dataclass`` decorator of a class, if present."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "dataclass":
            return dec
    return None


def _is_classvar(annotation: ast.expr) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    return (
        isinstance(target, ast.Name) and target.id == "ClassVar"
    ) or (
        isinstance(target, ast.Attribute) and target.attr == "ClassVar"
    )


def _field_flags(value: ast.expr | None) -> tuple[bool, ast.expr | None]:
    """``(compare, default_factory)`` from a field's default expression."""
    compare = True
    factory: ast.expr | None = None
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name == "field":
            for kw in value.keywords:
                if kw.arg == "compare" and isinstance(kw.value, ast.Constant):
                    compare = bool(kw.value.value)
                elif kw.arg == "default_factory":
                    factory = kw.value
    return compare, factory


def _scan_dataclass(node: ast.ClassDef, module: SourceModule) -> DataclassInfo | None:
    dec = _dataclass_decorator(node)
    if dec is None:
        return None
    frozen = False
    if isinstance(dec, ast.Call):
        for kw in dec.keywords:
            if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                frozen = bool(kw.value.value)
    fields: list[DataclassField] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(
            stmt.target, ast.Name
        ):
            continue
        if _is_classvar(stmt.annotation):
            continue
        compare, factory = _field_flags(stmt.value)
        fields.append(
            DataclassField(
                name=stmt.target.id,
                annotation=stmt.annotation,
                compare=compare,
                default_factory=factory,
                line=stmt.lineno,
                col=stmt.col_offset,
            )
        )
    return DataclassInfo(
        name=node.name,
        module=module,
        frozen=frozen,
        fields=tuple(fields),
        line=node.lineno,
    )


_ENUM_BASES = {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"}


def _is_enum_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = None
        if isinstance(base, ast.Name):
            name = base.id
        elif isinstance(base, ast.Attribute):
            name = base.attr
        if name in _ENUM_BASES:
            return True
    return False


def load_module(path: Path, display: str | None = None) -> SourceModule:
    """Parse one file into a :class:`SourceModule`.

    Raises ``SyntaxError`` on unparsable source — the engine converts
    that into a synthetic finding rather than crashing the whole run.
    """
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = tuple(source.splitlines())
    return SourceModule(
        path=path,
        display=display if display is not None else str(path),
        tree=tree,
        lines=lines,
        suppressions=_parse_suppressions(lines),
        imports=_parse_imports(tree),
    )


def index_module(project: Project, module: SourceModule) -> None:
    """Fold one module's dataclass/enum definitions into the indexes."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_enum_class(node):
            project.enums.add(node.name)
            continue
        info = _scan_dataclass(node, module)
        if info is not None:
            project.dataclasses[info.name] = info
