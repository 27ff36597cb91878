"""Content-keyed, memory-mapped columnar trace store.

Composed traces are pure functions of their spec — workload trace
specs, region layouts, core placement, access budget and seed — so the
sweep engine persists them under content keys (the same
canonical-form SHA-256 scheme as :mod:`repro.harness.cache`) and warm
runs ``np.memmap`` the stored stream instead of regenerating it.

On disk an entry is a pair of files, sharded by digest prefix:

* ``<root>/<key[:2]>/<key>.npy`` — the columnar payload: every core's
  stream concatenated into one flat :data:`~repro.trace.events.TRACE_DTYPE`
  array (core-major, the layout the batched timing engine consumes).
* ``<root>/<key[:2]>/<key>.json`` — the index record: per-core slice
  offsets, iteration bookkeeping and the expected payload length.

Beside each trace the store keeps its timing front end under
:func:`front_end_key` (see :mod:`repro.system.frontend`): the private
filter's per-access outcome and the ordered LLC event stream, which every
design replaying the trace shares.  A front-end entry is the same kind of
pair, ``<key>.frontend.npy`` and ``<key>.frontend.json``: the payload is
one flat byte array holding every column at an 8-byte-aligned offset, and
the record lists each column's dtype, length and offset.

Both files are written via temp-file + ``os.replace``, payload first,
index record last — the record is the commit marker.  A reader that
finds a record whose payload is missing, truncated or mis-shaped
treats the entry as absent (it will be regenerated and atomically
rewritten), so crashed writers and concurrent sweeps sharing a store
directory never surface torn entries.  Concurrent writers of one key
race benignly: content addressing means they replace identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .events import TRACE_DTYPE
from .generator import GeneratedTrace

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..common.config import SystemConfig
    from ..system.frontend import TimingFrontEnd

__all__ = [
    "FrontEndHandle",
    "TraceHandle",
    "TraceStore",
    "TraceStoreStats",
    "TraceStoreUsage",
    "front_end_key",
    "resolve_trace_store",
    "trace_key",
    "trace_store_usage",
]

#: file-name suffix that sets front-end entries apart from trace entries
_FRONT_END = ".frontend"


def trace_key(
    spec: Any,
    mem: Any,
    num_cores: int,
    max_accesses_per_core: int,
    seed: int,
    per_core_streams: bool = False,
) -> str:
    """Content key of one :func:`~repro.trace.generator.generate_trace` call.

    Folds everything the generated stream depends on — the
    :class:`~repro.workloads.base.TraceSpec`, the concrete region
    layout the spec references (name, base address, size), core count,
    access budget, seed, stream mode — plus :data:`repro.MODEL_VERSION`,
    so a model-version bump invalidates every stored trace along with
    the result cache.
    """
    from .. import MODEL_VERSION
    from ..harness.cache import content_key

    regions = []
    seen = set()
    for phase in spec.phases:
        if phase.region in seen:
            continue
        seen.add(phase.region)
        region = mem.region(phase.region)
        regions.append((region.name, region.base_addr, region.nbytes))
    return content_key(
        "trace", MODEL_VERSION, spec, tuple(regions), num_cores,
        max_accesses_per_core, seed, per_core_streams,
    )


def front_end_key(trace: str, config: SystemConfig) -> str:
    """Content key of the timing front end of the trace stored as ``trace``.

    The front end depends on the trace and the private caches alone, so
    the key folds the trace's key, the L1 and L2 configs, the core count
    and the model version.  The LLC, DRAM and core parameters, the
    design and its AVR options stay out: every design replaying the
    trace shares one entry.
    """
    from .. import MODEL_VERSION
    from ..harness.cache import content_key

    return content_key(
        "front-end", MODEL_VERSION, trace, config.l1, config.l2,
        config.num_cores,
    )


@dataclass
class TraceStoreStats:
    """Hit/miss/store counters for one store instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    front_end_hits: int = 0
    front_end_misses: int = 0
    front_end_stores: int = 0


class TraceStore:
    """Memory-mapped trace entries under ``root``, keyed by content."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise NotADirectoryError(
                f"trace store dir {self.root} exists but is not a directory"
            ) from exc
        self.stats = TraceStoreStats()

    def _data_path(self, key: str, kind: str = "") -> Path:
        return self.root / key[:2] / f"{key}{kind}.npy"

    def _meta_path(self, key: str, kind: str = "") -> Path:
        return self.root / key[:2] / f"{key}{kind}.json"

    def contains(self, key: str) -> bool:
        """Whether ``key`` has a committed (indexed) entry."""
        return self._meta_path(key).exists()

    def get(self, key: str) -> GeneratedTrace | None:
        """The stored trace for ``key``, memory-mapped, or ``None``.

        The returned per-core arrays are read-only views into one
        ``np.memmap`` of the payload file — no trace data is copied or
        regenerated.  Unreadable, truncated or mis-shaped entries
        (e.g. a writer that crashed between payload and index record)
        count as misses.
        """
        try:
            meta = json.loads(self._meta_path(key).read_text())
            offsets = [int(o) for o in meta["offsets"]]
            data = np.load(self._data_path(key), mmap_mode="r")
            if data.dtype != TRACE_DTYPE or data.shape != (offsets[-1],):
                raise ValueError("trace payload does not match its index record")
            trace = GeneratedTrace(
                cores=[
                    data[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])
                ],
                iterations_simulated=int(meta["iterations_simulated"]),
                iterations_total=int(meta["iterations_total"]),
            )
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return trace

    def put(self, key: str, trace: GeneratedTrace) -> None:
        """Store ``trace`` under ``key`` (atomic: payload, then record)."""
        data_path = self._data_path(key)
        data_path.parent.mkdir(parents=True, exist_ok=True)
        offsets = [0]
        for core in trace.cores:
            offsets.append(offsets[-1] + len(core))
        flat = (
            np.concatenate([np.ascontiguousarray(c) for c in trace.cores])
            if offsets[-1]
            else np.empty(0, dtype=TRACE_DTYPE)
        )
        self._atomic_write(
            data_path, lambda fh: np.save(fh, flat, allow_pickle=False)
        )
        meta = {
            "offsets": offsets,
            "iterations_simulated": trace.iterations_simulated,
            "iterations_total": trace.iterations_total,
        }
        self._atomic_write(
            self._meta_path(key),
            lambda fh: fh.write(json.dumps(meta).encode()),
        )
        self.stats.stores += 1

    @staticmethod
    def _atomic_write(path: Path, write: Callable) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get_or_generate(
        self, key: str, generate: Callable[[], GeneratedTrace]
    ) -> GeneratedTrace:
        """The stored trace for ``key``, else ``generate()``, stored.

        The cold path returns the freshly generated in-memory trace
        (not a re-mapped copy): the caller keeps working with the
        arrays it just built, and the next run maps them.
        """
        trace = self.get(key)
        if trace is not None:
            return trace
        trace = generate()
        self.put(key, trace)
        return trace

    def get_front_end(self, key: str) -> TimingFrontEnd | None:
        """The stored front end for ``key``, memory-mapped, or ``None``.

        Every column is a read-only view into one ``np.memmap`` of the
        payload file.  An entry whose payload is missing, truncated or
        does not match its record counts as a miss, like a torn trace.
        """
        from ..system.frontend import TimingFrontEnd

        try:
            meta = json.loads(self._meta_path(key, _FRONT_END).read_text())
            data = np.load(self._data_path(key, _FRONT_END), mmap_mode="r")
            if data.dtype != np.uint8 or data.shape != (int(meta["nbytes"]),):
                raise ValueError("front-end payload does not match its record")
            columns: dict[str, np.ndarray] = {}
            for name, dtype, size, start in meta["columns"]:
                dt = np.dtype(dtype)
                columns[name] = data[start:start + size * dt.itemsize].view(dt)
            front_end = TimingFrontEnd(**columns)
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            self.stats.front_end_misses += 1
            return None
        self.stats.front_end_hits += 1
        return front_end

    def put_front_end(self, key: str, front_end: TimingFrontEnd) -> None:
        """Store ``front_end`` under ``key`` (atomic: payload, then record)."""
        columns: list[list[Any]] = []
        parts: list[np.ndarray] = []
        start = 0
        for name, array in front_end.columns().items():
            raw = np.ascontiguousarray(array).view(np.uint8)
            pad = -raw.size % 8
            columns.append([name, array.dtype.str, int(array.size), start])
            parts += [raw, np.zeros(pad, dtype=np.uint8)]
            start += raw.size + pad
        payload = np.concatenate(parts)
        data_path = self._data_path(key, _FRONT_END)
        data_path.parent.mkdir(parents=True, exist_ok=True)
        self._atomic_write(
            data_path, lambda fh: np.save(fh, payload, allow_pickle=False)
        )
        meta = {"columns": columns, "nbytes": start}
        self._atomic_write(
            self._meta_path(key, _FRONT_END),
            lambda fh: fh.write(json.dumps(meta).encode()),
        )
        self.stats.front_end_stores += 1

    def __len__(self) -> int:
        """Committed traces (front-end entries are not counted)."""
        return trace_store_usage(self.root).traces


@dataclass(frozen=True)
class TraceHandle:
    """Picklable reference to a committed store entry.

    The sweep engine ships these to worker processes instead of the
    trace arrays themselves: a handle pickles to two short strings, and
    the worker memory-maps the shared payload file on arrival.
    """

    root: str
    key: str

    def load(self) -> GeneratedTrace:
        trace = TraceStore(self.root).get(self.key)
        if trace is None:
            raise FileNotFoundError(
                f"trace store entry {self.key[:12]}... disappeared from "
                f"{self.root} between submission and execution"
            )
        return trace


@dataclass(frozen=True)
class FrontEndHandle:
    """Picklable reference to a committed front-end entry.

    The front-end twin of :class:`TraceHandle`: every timing job of a
    trace carries one, and the worker maps the shared payload file.
    """

    root: str
    key: str

    def load(self) -> TimingFrontEnd:
        front_end = TraceStore(self.root).get_front_end(self.key)
        if front_end is None:
            raise FileNotFoundError(
                f"front-end entry {self.key[:12]}... disappeared from "
                f"{self.root} between submission and execution"
            )
        return front_end


@dataclass
class TraceStoreUsage:
    """What a trace store directory holds."""

    traces: int = 0
    front_ends: int = 0
    #: every file in the store: payloads, records and temp files
    total_bytes: int = 0


def trace_store_usage(root: str | Path) -> TraceStoreUsage:
    """Count the committed entries and bytes of the store under ``root``.

    Read-only: unlike :class:`TraceStore` it creates nothing, and a
    missing directory is an empty store.
    """
    usage = TraceStoreUsage()
    for path in Path(root).glob("*/*"):
        try:
            usage.total_bytes += path.stat().st_size
        except OSError:  # removed since the glob: a concurrent writer's tmp
            continue
        if path.name.endswith(f"{_FRONT_END}.json"):
            usage.front_ends += 1
        elif path.suffix == ".json":
            usage.traces += 1
    return usage


def resolve_trace_store(
    trace_store: Any, cache_dir: str | Path | None
) -> TraceStore | None:
    """Resolve a user-facing trace-store setting to a store (or None).

    ``None`` means "default": a ``traces/`` directory under
    ``cache_dir`` when one is set, else no store (``run_sweep`` passes
    the result cache's model directory, ``<cache-dir>/m<MODEL_VERSION>``).
    ``False`` or the string ``"off"`` disables the store explicitly; a
    path selects a directory; a :class:`TraceStore` passes through.
    """
    if trace_store is False or trace_store == "off":
        return None
    if isinstance(trace_store, TraceStore):
        return trace_store
    if trace_store is not None:
        return TraceStore(trace_store)
    if cache_dir is not None:
        return TraceStore(Path(cache_dir) / "traces")
    return None
