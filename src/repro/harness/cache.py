"""Content-addressed, sharded on-disk result cache.

Every sweep job (a functional round-trip or a timing replay) is a pure
function of its spec: the :class:`~repro.harness.sweep.SweepPoint`, the
design, the :class:`~repro.common.config.SystemConfig` and
:data:`repro.MODEL_VERSION`.  :func:`content_key` folds those inputs
into a stable SHA-256 digest, and :class:`ResultCache` maps digests to
pickled results, so re-runs and ablation sweeps skip already-computed
points.

Keys are built from a *canonical text form* of the inputs (dataclasses
by field, enums by name, dicts sorted) rather than from ``pickle``
bytes, so the digest is stable across interpreter runs and does not
depend on pickle protocol details.  Results themselves are stored with
``pickle`` — numpy arrays round-trip exactly, which the sweep engine's
bit-identical guarantee relies on.

On disk a cache directory holds one *model directory* per model
version, ``<cache-dir>/m<MODEL_VERSION>/``: the result shards
``<key[:2]>/<key>.pkl`` and, by default, the trace store ``traces/``.
The payload files are the whole store; there is no index.  A
model-version bump starts a fresh directory, and everything else under
the cache dir is stale.

Maintenance — orphaned ``*.tmp`` sweeps, stale-directory removal and
LRU-by-mtime eviction under a byte budget — lives in
:meth:`ResultCache.gc` / :meth:`ResultCache.verify` and is exposed as
the ``repro cache`` CLI.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping

from .. import MODEL_VERSION

__all__ = [
    "CacheStats",
    "DiskUsage",
    "GCReport",
    "ResultCache",
    "VerifyReport",
    "content_key",
    "resolve_result_cache",
]


def _canonical(obj: Any) -> str:
    """Deterministic text form of a job-spec value.

    Supports the types that appear in sweep specs: dataclasses, enums,
    containers, and scalars.  Unknown objects raise ``TypeError`` so a
    new un-canonicalizable spec field fails loudly instead of silently
    hashing by ``repr`` identity.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # Fields marked compare=False are outside a value's identity
        # (e.g. a DesignSpec's builder callable) and stay out of keys.
        fields = ",".join(
            f"{f.name}={_canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
            if f.compare
        )
        return f"{type(obj).__qualname__}({fields})"
    if isinstance(obj, Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if isinstance(obj, dict):
        items = ",".join(
            f"{_canonical(k)}:{_canonical(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(_canonical(v) for v in obj) + ")"
    if isinstance(obj, float):
        return obj.hex()  # exact: no decimal rounding ambiguity
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    raise TypeError(f"cannot build a cache key from {type(obj).__name__}: {obj!r}")


def content_key(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical form of ``parts``."""
    text = "|".join(_canonical(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class CacheStats:
    """Traffic counters for one cache instance.

    ``hits`` / ``misses`` / ``stores`` count the cache's externally
    visible traffic; ``file_opens`` counts payload ``open()`` attempts,
    including failed probes of absent keys.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    file_opens: int = 0


@dataclass
class GCReport:
    """What one :meth:`ResultCache.gc` pass removed and kept."""

    tmp_removed: int = 0
    #: stale directories removed (see :attr:`DiskUsage.stale`)
    stale_removed: int = 0
    evicted: int = 0
    bytes_removed: int = 0
    entries_kept: int = 0
    bytes_kept: int = 0
    dry_run: bool = False


@dataclass
class VerifyReport:
    """Read-only consistency report: ``corrupt`` lists unreadable payloads."""

    entries: int = 0
    total_bytes: int = 0
    corrupt: list[str] = field(default_factory=list)
    tmp_files: int = 0

    @property
    def ok(self) -> bool:
        """True when every payload on disk unpickles."""
        return not self.corrupt


@dataclass
class DiskUsage:
    """Light-weight (no unpickling) usage summary of an on-disk cache."""

    entries: int = 0
    total_bytes: int = 0
    shards: int = 0
    #: orphaned ``*.tmp`` files anywhere in the model directory
    tmp_files: int = 0
    #: bytes per stale directory of the cache dir, by name: other
    #: ``m*/`` model directories and the pre-model-directory layout
    #: (top-level shards and ``traces/``), which ``gc --stale`` removes
    stale: dict[str, int] = field(default_factory=dict)


#: pickle failure modes treated as cache misses (torn writes, version
#: skew of pickled classes, foreign entries)
_READ_ERRORS = (
    OSError,
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
)

#: sentinel distinguishing "absent" from a cached ``None``-ish default
_MISS = object()

#: a shard directory's name: the first two hex digits of its keys
_SHARD = "[0-9a-f][0-9a-f]"


def _tree_bytes(root: Path) -> int:
    """Bytes of every file under ``root`` (vanishing files count 0)."""
    total = 0
    for path in root.rglob("*"):
        try:
            if path.is_file():
                total += path.stat().st_size
        except OSError:
            continue
    return total


class ResultCache:
    """Pickle-per-key store under ``<cache_dir>/m<MODEL_VERSION>/``.

    :attr:`root` names that model directory; entries sit at
    ``<root>/<key[:2]>/<key>.pkl``.  Writes go to a temp file and
    ``os.replace``, so concurrent sweeps sharing a directory never
    observe torn entries; unreadable or truncated entries read as
    misses.  ``read_only=True`` (what ``repro cache stats/ls/verify``
    open) never creates a directory and refuses ``put``/``gc``.
    """

    def __init__(self, cache_dir: str | Path, read_only: bool = False) -> None:
        self.root = Path(cache_dir) / f"m{MODEL_VERSION}"
        self.read_only = read_only
        if not read_only:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError) as exc:
                raise NotADirectoryError(
                    f"cache dir {cache_dir} exists but is not a directory"
                ) from exc
        #: traffic counters of this instance
        self.stats = CacheStats()

    # -- paths ---------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _shards(self) -> list[Path]:
        return sorted(d for d in self.root.glob(_SHARD) if d.is_dir())

    def _stale_dirs(self) -> list[Path]:
        """Directories of the cache dir that no current key reads.

        Other ``m<version>/`` model directories, and the flat layout
        of releases before model directories: two-hex-digit shards
        and ``traces/`` at the top level.
        """
        cache_dir = self.root.parent
        if not cache_dir.is_dir():
            return []
        return sorted(
            d for d in cache_dir.iterdir()
            if d.is_dir() and d != self.root and (
                (d.name[:1] == "m" and d.name[1:2].isdigit())
                or d.match(_SHARD)
                or d.name == "traces"
            )
        )

    # -- payload I/O ---------------------------------------------------
    def _load(self, key: str) -> Any:
        """Read one payload, returning the ``_MISS`` sentinel on failure."""
        self.stats.file_opens += 1
        try:
            with self._path(key).open("rb") as fh:
                data = fh.read()
            value = pickle.loads(data)
        except _READ_ERRORS:
            return _MISS
        self.stats.bytes_read += len(data)
        return value

    def get(self, key: str, default: Any = None) -> Any:
        """Return the cached value for ``key`` (counted), or ``default``."""
        value = self._load(key)
        if value is _MISS:
            self.stats.misses += 1
            return default
        self.stats.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (temp file, then atomic replace)."""
        if self.read_only:
            raise RuntimeError(f"cache at {self.root} is read-only")
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        self.stats.bytes_written += len(data)

    def get_many(self, keys: Iterable[str]) -> dict[str, Any]:
        """Batched :meth:`get`: the keys found, mapped to their values.

        Misses are left out of the result; every key counts one hit or
        one miss.
        """
        found = {key: self.get(key, _MISS) for key in keys}
        return {key: value for key, value in found.items() if value is not _MISS}

    def put_many(self, items: Mapping[str, Any]) -> None:
        """Store many entries (each individually atomic)."""
        for key, value in items.items():
            self.put(key, value)

    def keys(self) -> list[str]:
        """Every committed key, sorted."""
        return sorted(path.stem for path in self.root.glob(f"{_SHARD}/*.pkl"))

    def __len__(self) -> int:
        """Number of committed entries (``*.tmp`` orphans excluded)."""
        return len(self.keys())

    # -- maintenance ---------------------------------------------------
    def _scan(self) -> list[tuple[Path, int, float]]:
        """Committed payloads: (path, bytes, mtime), in key order."""
        entries: list[tuple[Path, int, float]] = []
        for path in sorted(self.root.glob(f"{_SHARD}/*.pkl")):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((path, stat.st_size, stat.st_mtime))
        return entries

    def disk_usage(self) -> DiskUsage:
        """Summarize the store without unpickling anything."""
        entries = self._scan()
        return DiskUsage(
            entries=len(entries),
            total_bytes=sum(size for _, size, _ in entries),
            shards=len(self._shards()),
            tmp_files=sum(1 for _ in self.root.rglob("*.tmp")),
            stale={d.name: _tree_bytes(d) for d in self._stale_dirs()},
        )

    def gc(
        self,
        max_bytes: int | None = None,
        stale: bool = False,
        tmp_max_age_s: float = 3600.0,
        dry_run: bool = False,
    ) -> GCReport:
        """Sweep orphans, remove stale directories, evict to a byte budget.

        Three independent passes:

        1. orphaned ``*.tmp`` files anywhere in the model directory,
           trace store included, are removed once older than
           ``tmp_max_age_s`` (the age guard keeps a live writer's
           in-flight temp file safe from a concurrent ``gc``);
        2. with ``stale=True``, every stale directory (see
           :attr:`DiskUsage.stale`) is removed, result entries and
           trace stores alike: no key of this model version reads them;
        3. with ``max_bytes``, the oldest result entries by mtime are
           evicted until the survivors fit the budget (LRU: a hit does
           not bump mtime, a re-``put`` does).

        ``dry_run`` reports what *would* go without touching anything.
        """
        if self.read_only:
            raise RuntimeError(f"cache at {self.root} is read-only")
        report = GCReport(dry_run=dry_run)
        now = time.time()  # repro: ignore[RNG001] - GC ages files, not results
        for tmp in self.root.rglob("*.tmp"):
            try:
                age = now - tmp.stat().st_mtime
            except OSError:
                continue
            if age >= tmp_max_age_s:
                report.tmp_removed += 1
                if not dry_run:
                    tmp.unlink(missing_ok=True)

        if stale:
            for stale_dir in self._stale_dirs():
                report.stale_removed += 1
                report.bytes_removed += _tree_bytes(stale_dir)
                if not dry_run:
                    shutil.rmtree(stale_dir, ignore_errors=True)

        entries = self._scan()
        report.entries_kept = len(entries)
        report.bytes_kept = sum(size for _, size, _ in entries)
        if max_bytes is not None:
            for path, size, _ in sorted(entries, key=lambda e: (e[2], e[0].name)):
                if report.bytes_kept <= max_bytes:
                    break
                report.evicted += 1
                report.entries_kept -= 1
                report.bytes_kept -= size
                report.bytes_removed += size
                if not dry_run:
                    path.unlink(missing_ok=True)
        return report

    def verify(self) -> VerifyReport:
        """Unpickle every payload; count the model directory's ``*.tmp``."""
        report = VerifyReport(tmp_files=sum(1 for _ in self.root.rglob("*.tmp")))
        for path, _, _ in self._scan():
            try:
                with path.open("rb") as fh:
                    data = fh.read()
                pickle.loads(data)
            except _READ_ERRORS:
                report.corrupt.append(path.stem)
                continue
            report.entries += 1
            report.total_bytes += len(data)
        return report


def resolve_result_cache(
    cache_dir: str | Path | ResultCache | None,
) -> ResultCache | None:
    """Normalize a ``cache_dir`` argument into a :class:`ResultCache`.

    Callers (``run_sweep``, the ablation runners) accept either a
    directory or an already-built cache; passing an instance through
    lets one cache's counters span many sweep calls, as the daemon's
    shared cache does.  ``None`` stays ``None`` (caching disabled).
    """
    if cache_dir is None:
        return None
    if isinstance(cache_dir, ResultCache):
        return cache_dir
    return ResultCache(cache_dir)
