"""Content-addressed, sharded on-disk result cache.

Every sweep job (a functional round-trip or a timing replay) is a pure
function of its spec: the :class:`~repro.harness.sweep.SweepPoint`, the
design, the :class:`~repro.common.config.SystemConfig` and the package
version.  :func:`content_key` folds those inputs into a stable SHA-256
digest, and :class:`ResultCache` maps digests to pickled results, so
re-runs and ablation sweeps skip already-computed points.

Keys are built from a *canonical text form* of the inputs (dataclasses
by field, enums by name, dicts sorted) rather than from ``pickle``
bytes, so the digest is stable across interpreter runs and does not
depend on pickle protocol details.  Results themselves are stored with
``pickle`` — numpy arrays round-trip exactly, which the sweep engine's
bit-identical guarantee relies on.

Storage is one on-disk layout: 256-way sharded pickle files plus a
per-shard append-only ``index.jsonl``, so key enumeration, ``contains``
and bulk probes are index scans instead of per-key ``open()``
attempts.  The index is a pure accelerator: payloads commit first,
corrupt or missing indexes are rebuilt from the shard, and old
(pre-index) cache directories stay valid.  Besides single-key
``get``/``put``/``contains``, :class:`ResultCache` serves the batched
``get_many`` / ``put_many`` the warm paths use.

Maintenance — orphaned ``*.tmp`` sweeps, stale-``__version__`` purges
and LRU-by-mtime eviction under a byte budget — lives in
:meth:`ResultCache.gc` / :meth:`ResultCache.verify` and is exposed as
the ``repro cache`` CLI.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping

from .. import __version__

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
    visible traffic; ``index_hits`` were answered from shard indexes.
    ``file_opens`` counts payload ``open()`` *attempts*, including
    failed probes of absent keys — the syscall traffic the shard
    indexes exist to eliminate.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    file_opens: int = 0
    index_hits: int = 0


@dataclass
class GCReport:
    """What one :meth:`ResultCache.gc` pass removed and kept."""

    tmp_removed: int = 0
    stale_removed: int = 0
    evicted: int = 0
    bytes_removed: int = 0
    entries_kept: int = 0
    bytes_kept: int = 0
    dry_run: bool = False

    @property
    def entries_removed(self) -> int:
        """Payload entries removed (stale purge + byte-budget eviction)."""
        return self.stale_removed + self.evicted


@dataclass
class VerifyReport:
    """Read-only consistency report of an on-disk cache.

    ``corrupt`` entries (unreadable payloads) are the only hard
    failures; ``phantom`` (indexed but payload gone) and ``unindexed``
    (payload present but not indexed — e.g. written by a pre-index
    version, or a writer that died between payload commit and index
    append) are advisory and self-heal on the next ``put``/``gc``.
    """

    entries: int = 0
    total_bytes: int = 0
    corrupt: list[str] = field(default_factory=list)
    phantom: list[str] = field(default_factory=list)
    unindexed: list[str] = field(default_factory=list)
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
    indexed: int = 0
    tmp_files: int = 0
    #: entry count per recorded package version ("?" = unrecorded,
    #: i.e. indexed by a rebuild or written before indexes existed)
    versions: dict[str, int] = field(default_factory=dict)


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


class ResultCache:
    """Pickle-per-key store under ``cache_dir``, sharded 256 ways.

    The layout is ``<root>/<key[:2]>/<key>.pkl`` — unchanged since the
    first cache, so existing cache directories remain valid.  Entries
    are written atomically (temp file + rename), so concurrent sweeps
    sharing a cache directory never observe torn entries; unreadable or
    truncated entries are treated as misses.  Beside the payloads sits
    ``<root>/<shard>/index.jsonl``: one JSON line per committed entry
    (key, payload bytes, recording package version), appended
    atomically *after* the payload's ``os.replace``.  The index is an
    accelerator, never an authority:

    * a missing or corrupt index is rebuilt from the shard's ``*.pkl``
      files (version recorded as unknown);
    * a payload whose index append was lost (writer died in between)
      reads as absent from batch probes until the next ``put`` of the
      same key heals it — the job just re-executes, bit-identically;
    * concurrent writers may append duplicate lines; readers keep the
      last occurrence.

    ``read_only=True`` (what ``repro cache stats/ls/verify`` open)
    never creates the directory, never rewrites indexes and refuses
    ``put``/``gc``.
    """

    INDEX_NAME = "index.jsonl"

    def __init__(self, cache_dir: str | Path, read_only: bool = False) -> None:
        self.root = Path(cache_dir)
        self.read_only = read_only
        if not read_only:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError) as exc:
                raise NotADirectoryError(
                    f"cache dir {self.root} exists but is not a directory"
                ) from exc
        #: traffic counters of this instance
        self.stats = CacheStats()
        #: in-process view of shard indexes: shard -> {key: (bytes, version)}
        self._index: dict[str, dict[str, tuple[int, str | None]]] = {}

    # -- paths ---------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _index_path(self, shard: str) -> Path:
        return self.root / shard / self.INDEX_NAME

    def _shards(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            d for d in self.root.iterdir() if d.is_dir() and len(d.name) == 2
        )

    # -- index ---------------------------------------------------------
    def _rebuild_index(self, shard: str) -> dict[str, tuple[int, str | None]]:
        """Reconstruct one shard's index from its payload files."""
        shard_dir = self.root / shard
        entries: dict[str, tuple[int, str | None]] = {}
        for path in sorted(shard_dir.glob("*.pkl")):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            entries[path.stem] = (size, None)
        if not self.read_only:
            self._write_index(shard, entries)
        return entries

    def _write_index(
        self, shard: str, entries: Mapping[str, tuple[int, str | None]]
    ) -> None:
        """Atomically rewrite one shard's index file."""
        shard_dir = self.root / shard
        if not shard_dir.is_dir():
            return
        lines = "".join(
            json.dumps({"k": key, "n": size, "v": version}) + "\n"
            for key, (size, version) in sorted(entries.items())
        )
        fd, tmp = tempfile.mkstemp(dir=shard_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(lines)
            os.replace(tmp, self._index_path(shard))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _shard_index(self, shard: str) -> dict[str, tuple[int, str | None]]:
        """This shard's key index, loading (or rebuilding) on first use."""
        cached = self._index.get(shard)
        if cached is not None:
            return cached
        path = self._index_path(shard)
        entries: dict[str, tuple[int, str | None]] = {}
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            # No index yet: a pre-index cache dir (rebuild) or an
            # untouched shard (empty).
            if (self.root / shard).is_dir():
                entries = self._rebuild_index(shard)
            self._index[shard] = entries
            return entries
        try:
            for line in text.splitlines():
                if not line.strip():
                    continue
                record = json.loads(line)
                entries[record["k"]] = (record["n"], record.get("v"))
        except (json.JSONDecodeError, KeyError, TypeError):
            entries = self._rebuild_index(shard)
        self._index[shard] = entries
        return entries

    def _index_append(self, key: str, size: int) -> None:
        """Record one committed payload (atomic O_APPEND write)."""
        shard = key[:2]
        line = json.dumps({"k": key, "n": size, "v": __version__}) + "\n"
        with self._index_path(shard).open("a", encoding="utf-8") as fh:
            fh.write(line)
        if shard in self._index:
            self._index[shard][key] = (size, __version__)

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

    def contains(self, key: str) -> bool:
        """Index-first presence check, falling back to the filesystem.

        The fallback covers entries another process committed after
        this process loaded the shard's index.
        """
        if key in self._shard_index(key[:2]):
            self.stats.index_hits += 1
            return True
        return self._path(key).exists()

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``: atomic replace, then index."""
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
        self._index_append(key, len(data))
        self.stats.stores += 1
        self.stats.bytes_written += len(data)

    def get_many(self, keys: Iterable[str]) -> dict[str, Any]:
        """Batched :meth:`get` via per-shard index scans.

        One index load per touched shard decides which keys exist; only
        those payloads are opened.  Probes of absent keys therefore
        cost zero ``open()`` attempts — the warm-path win
        ``bench_cache.py`` measures.  Absent keys are omitted from the
        result; counts one hit per returned key and one miss per
        omitted key.
        """
        by_shard: dict[str, list[str]] = {}
        for key in keys:
            by_shard.setdefault(key[:2], []).append(key)
        results: dict[str, Any] = {}
        for shard, shard_keys in by_shard.items():
            index = self._shard_index(shard)
            for key in shard_keys:
                if key not in index:
                    self.stats.misses += 1
                    continue
                self.stats.index_hits += 1
                value = self._load(key)
                if value is _MISS:
                    self.stats.misses += 1
                    continue
                self.stats.hits += 1
                results[key] = value
        return results

    def put_many(self, items: Mapping[str, Any]) -> None:
        """Store many entries (each individually atomic)."""
        for key, value in items.items():
            self.put(key, value)

    def keys(self) -> list[str]:
        """Every committed key across all shards, sorted."""
        found: set[str] = set()
        for shard_dir in self._shards():
            found.update(self._shard_index(shard_dir.name))
        return sorted(found)

    def __len__(self) -> int:
        """Number of committed entries (``*.tmp`` orphans excluded)."""
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    # -- maintenance ---------------------------------------------------
    def _scan(self) -> list[tuple[str, Path, int, float, str | None]]:
        """Enumerate committed payloads: (key, path, bytes, mtime, version).

        Driven by the payload files (the authority), with versions
        looked up from the shard indexes where recorded.
        """
        entries: list[tuple[str, Path, int, float, str | None]] = []
        for shard_dir in self._shards():
            index = self._shard_index(shard_dir.name)
            for path in sorted(shard_dir.glob("*.pkl")):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                _, version = index.get(path.stem, (0, None))
                entries.append(
                    (path.stem, path, stat.st_size, stat.st_mtime, version)
                )
        return entries

    def disk_usage(self) -> DiskUsage:
        """Summarize the store without unpickling anything."""
        usage = DiskUsage(shards=len(self._shards()))
        for shard_dir in self._shards():
            index = self._shard_index(shard_dir.name)
            usage.tmp_files += sum(1 for _ in shard_dir.glob("*.tmp"))
            for path in shard_dir.glob("*.pkl"):
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                usage.entries += 1
                usage.total_bytes += size
                record = index.get(path.stem)
                if record is not None:
                    usage.indexed += 1
                label = record[1] if record and record[1] else "?"
                usage.versions[label] = usage.versions.get(label, 0) + 1
        return usage

    def gc(
        self,
        max_bytes: int | None = None,
        stale: bool = False,
        tmp_max_age_s: float = 3600.0,
        dry_run: bool = False,
    ) -> GCReport:
        """Sweep orphans, purge stale versions, evict to a byte budget.

        Three independent passes, each optional:

        1. orphaned ``*.tmp`` files older than ``tmp_max_age_s`` are
           removed (the age guard keeps a live writer's in-flight temp
           file safe from a concurrent ``gc``);
        2. with ``stale=True``, entries recorded under a different
           package ``__version__`` are purged — version is part of
           every key, so they can never be read again (entries with no
           recorded version are conservatively kept);
        3. with ``max_bytes``, the oldest entries by mtime are evicted
           until the survivors fit the budget (LRU: a hit's ``open``
           does not bump mtime, but re-``put`` does, and eviction
           order among a run's entries is deterministic enough for a
           maintenance pass).

        Surviving entries get their shard indexes compacted (duplicate
        append lines dropped, removed keys forgotten).  ``dry_run``
        reports what *would* go without touching anything.
        """
        if self.read_only:
            raise RuntimeError(f"cache at {self.root} is read-only")
        report = GCReport(dry_run=dry_run)
        now = time.time()  # repro: ignore[RNG001] - GC ages files, not results
        for shard_dir in self._shards():
            for tmp in shard_dir.glob("*.tmp"):
                try:
                    age = now - tmp.stat().st_mtime
                except OSError:
                    continue
                if age >= tmp_max_age_s:
                    report.tmp_removed += 1
                    if not dry_run:
                        tmp.unlink(missing_ok=True)

        entries = self._scan()
        doomed: dict[str, tuple[Path, int]] = {}
        if stale:
            for key, path, size, _, version in entries:
                if version is not None and version != __version__:
                    doomed[key] = (path, size)
                    report.stale_removed += 1
        if max_bytes is not None:
            survivors = [e for e in entries if e[0] not in doomed]
            total = sum(size for _, _, size, _, _ in survivors)
            for key, path, size, _, _ in sorted(
                survivors, key=lambda e: (e[3], e[0])
            ):
                if total <= max_bytes:
                    break
                doomed[key] = (path, size)
                report.evicted += 1
                total -= size

        for path, size in doomed.values():
            report.bytes_removed += size
            if not dry_run:
                path.unlink(missing_ok=True)
        for key, _, size, _, _ in entries:
            if key not in doomed:
                report.entries_kept += 1
                report.bytes_kept += size

        if not dry_run:
            # Compact: rewrite each touched shard's index from the
            # surviving payloads, preserving recorded versions.
            for shard_dir in self._shards():
                shard = shard_dir.name
                index = self._shard_index(shard)
                fresh = {
                    key: index.get(key, (size, None))
                    for key, path, size, _, _ in entries
                    if key[:2] == shard and key not in doomed
                }
                self._write_index(shard, fresh)
                self._index[shard] = dict(fresh)
        return report

    def verify(self) -> VerifyReport:
        """Unpickle every payload and cross-check it against the indexes."""
        report = VerifyReport()
        for shard_dir in self._shards():
            shard = shard_dir.name
            index = self._shard_index(shard)
            report.tmp_files += sum(1 for _ in shard_dir.glob("*.tmp"))
            on_disk: set[str] = set()
            for path in sorted(shard_dir.glob("*.pkl")):
                key = path.stem
                on_disk.add(key)
                try:
                    with path.open("rb") as fh:
                        data = fh.read()
                    pickle.loads(data)
                except _READ_ERRORS:
                    report.corrupt.append(key)
                    continue
                report.entries += 1
                report.total_bytes += len(data)
                if key not in index:
                    report.unindexed.append(key)
            report.phantom.extend(
                sorted(key for key in index if key not in on_disk)
            )
        return report


def resolve_result_cache(
    cache_dir: str | Path | ResultCache | None,
) -> ResultCache | None:
    """Normalize a ``cache_dir`` argument into a :class:`ResultCache`.

    Callers (``run_sweep``, the ablation runners) accept either a
    directory or an already-built cache; passing an instance through
    lets one cache's loaded shard indexes and counters span many sweep
    calls, as the daemon's shared cache does.  ``None`` stays ``None``
    (caching disabled).
    """
    if cache_dir is None:
        return None
    if isinstance(cache_dir, ResultCache):
        return cache_dir
    return ResultCache(cache_dir)
