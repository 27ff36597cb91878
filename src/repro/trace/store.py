"""Content-keyed, memory-mapped store of timing front ends.

A composed trace is a pure function of its spec — workload trace specs,
region layouts, core placement, access budget and seed — and its timing
front end (see :mod:`repro.system.frontend`) a pure function of the
trace and the private caches.  The sweep engine persists front ends
under content keys (the same canonical-form SHA-256 scheme as
:mod:`repro.harness.cache`), and warm runs ``np.memmap`` the stored
columns instead of regenerating the trace and filtering it again.  A
front end carries everything a timing replay reads of its trace — each
access's gap, the per-core stream lengths and the iteration counts — so
no trace is stored.

On disk an entry is a pair of files, sharded by digest prefix:

* ``<root>/<key[:2]>/<key>.frontend.npy`` — the payload: one flat byte
  array holding every column at an 8-byte-aligned offset.
* ``<root>/<key[:2]>/<key>.frontend.json`` — the record: each column's
  name, dtype, length and offset, the payload length, and the trace's
  iteration counts.

Both files are written via temp-file + ``os.replace``, payload first,
record last — the record is the commit marker.  A reader that finds a
record whose payload is missing, truncated or mis-shaped treats the
entry as absent (it will be recomputed and atomically rewritten), so
crashed writers and concurrent sweeps sharing a store directory never
surface torn entries.  A record in an older form, without the ``gap``
column or the iteration counts, reads as absent the same way and is
rewritten in the current form under its unchanged key.  Concurrent
writers of one key race benignly: content addressing means they
replace identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..common.config import SystemConfig
    from ..system.frontend import TimingFrontEnd

__all__ = [
    "FrontEndHandle",
    "TraceStore",
    "TraceStoreStats",
    "TraceStoreUsage",
    "front_end_key",
    "trace_store_usage",
]

#: file-name suffix of an entry; it sets front ends apart from the trace
#: entries that stores written before 1.16.0 hold beside them
_FRONT_END = ".frontend"


def front_end_key(trace: str, config: SystemConfig) -> str:
    """Content key of the timing front end of the trace keyed ``trace``.

    ``trace`` is the composed trace's content key
    (:func:`~repro.harness.scenario.scenario_trace_key`).  The front end
    depends on the trace and the private caches alone, so the key folds
    the trace's key, the L1 and L2 configs, the core count and the model
    version.  The LLC, DRAM and core parameters, the
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
    """Hit/miss/store counters of one store instance's front-end entries."""

    front_end_hits: int = 0
    front_end_misses: int = 0
    front_end_stores: int = 0


class TraceStore:
    """Memory-mapped front-end entries under ``root``, keyed by content."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise NotADirectoryError(
                f"trace store dir {self.root} exists but is not a directory"
            ) from exc
        self.stats = TraceStoreStats()

    def _data_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{_FRONT_END}.npy"

    def _meta_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{_FRONT_END}.json"

    def get(self, key: str) -> TimingFrontEnd | None:
        """The stored front end for ``key``, memory-mapped, or ``None``.

        Every column is a read-only view into one ``np.memmap`` of the
        payload file.  An entry whose payload is missing, truncated or
        does not match its record (e.g. a writer that crashed between
        payload and record), or whose record is in an older form, counts
        as a miss.
        """
        from ..system.frontend import TimingFrontEnd

        try:
            meta = json.loads(self._meta_path(key).read_text())
            data = np.load(self._data_path(key), mmap_mode="r")
            if data.dtype != np.uint8 or data.shape != (int(meta["nbytes"]),):
                raise ValueError("front-end payload does not match its record")
            columns: dict[str, np.ndarray] = {}
            for name, dtype, size, start in meta["columns"]:
                dt = np.dtype(dtype)
                columns[name] = data[start:start + size * dt.itemsize].view(dt)
            front_end = TimingFrontEnd(
                **columns,
                iterations_simulated=int(meta["iterations_simulated"]),
                iterations_total=int(meta["iterations_total"]),
            )
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            self.stats.front_end_misses += 1
            return None
        self.stats.front_end_hits += 1
        return front_end

    def put(self, key: str, front_end: TimingFrontEnd) -> None:
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
        data_path = self._data_path(key)
        data_path.parent.mkdir(parents=True, exist_ok=True)
        self._atomic_write(
            data_path, lambda fh: np.save(fh, payload, allow_pickle=False)
        )
        meta = {
            "columns": columns,
            "nbytes": start,
            "iterations_simulated": front_end.iterations_simulated,
            "iterations_total": front_end.iterations_total,
        }
        self._atomic_write(
            self._meta_path(key),
            lambda fh: fh.write(json.dumps(meta).encode()),
        )
        self.stats.front_end_stores += 1

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


@dataclass(frozen=True)
class FrontEndHandle:
    """Picklable reference to a committed front-end entry.

    The sweep engine ships these to worker processes instead of the
    front-end arrays themselves: a handle pickles to two short strings,
    and the worker memory-maps the shared payload file on arrival.
    """

    root: str
    key: str

    def load(self) -> TimingFrontEnd:
        front_end = TraceStore(self.root).get(self.key)
        if front_end is None:
            raise FileNotFoundError(
                f"front-end entry {self.key[:12]}... disappeared from "
                f"{self.root} between submission and execution"
            )
        return front_end


@dataclass
class TraceStoreUsage:
    """What a trace store directory holds."""

    front_ends: int = 0
    #: every file in the store: payloads, records, temp files and the
    #: trace entries of stores written before 1.16.0
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
    return usage
