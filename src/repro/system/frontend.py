"""The design-independent front end of a timing replay.

A timing run splits in two halves.  The **front end** depends only on
the trace, the private-cache geometry and the core count: every core's
private L1+L2 filter (:class:`~repro.cache.array_lru.BatchedPrivateFilter`)
and the LLC-bound event stream it leaves behind, placed by counting into
the chunk-interleaved order in which cores take turns at the shared
levels.  It also carries what else the replay reads of the trace: each
access's compute gap, the per-core stream lengths and the iteration
counts behind the full-run scale factor.
The **back end** (:meth:`repro.system.simulator.TimingSystem.run`)
replays that stream through one design's LLC and DRAM and folds the
per-core cycle counts from the front end alone.  Every design of a grid
point, and every instance subset of a scenario mix, shares one front
end: the sweep computes it once per trace and keeps it, not the trace,
in the :class:`~repro.trace.store.TraceStore`.

A subset replay keeps every core slot and empties the inactive ones.
Private state never crosses cores and the interleave key of an access
depends only on its core and its position in that core's stream, so the
subset's front end is the full one restricted to the active cores
(:meth:`TimingFrontEnd.restrict`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..cache.array_lru import BatchedPrivateFilter
from ..common.config import SystemConfig
from ..trace.events import TRACE_DTYPE

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..trace.generator import GeneratedTrace

__all__ = ["INTERLEAVE_CHUNK", "TimingFrontEnd", "compute_front_end"]

#: accesses each core executes before yielding to the next.  Fine
#: granularity matters: the AVR module's single DBUF is shared, so
#: concurrently-streaming cores contend for it (turning would-be DBUF
#: hits into compressed-block hits), as in the paper's 8-core CMP.
INTERLEAVE_CHUNK = 12

#: column -> dtype, in storage order
_DTYPES = {
    "offsets": np.dtype(np.int64),
    "gap": TRACE_DTYPE["gap"],
    "l1_hit": np.dtype(bool),
    "needs_llc": np.dtype(bool),
    "event_addr": np.dtype(np.int64),
    "event_is_read": np.dtype(bool),
    "event_access": np.dtype(np.int64),
}


@dataclass(frozen=True)
class TimingFrontEnd:
    """Private-filter outcome and LLC event stream of one trace.

    Access arrays are parallel to the trace's concatenated stream (all
    cores, core-major); event arrays are in LLC replay order.  Within one
    access the events are its demand read, then the writeback of the L2
    victim the L1-victim install displaced, then that of the demand
    fill's victim.
    """

    #: (cores + 1,) per-core slice bounds of the access arrays
    offsets: np.ndarray
    #: (n,) instructions the core executes before the access (the
    #: trace's ``gap``, in the trace's own dtype)
    gap: np.ndarray
    #: (n,) the access hit in L1
    l1_hit: np.ndarray
    #: (n,) the access missed both private levels
    needs_llc: np.ndarray
    #: (m,) LLC-bound event addresses
    event_addr: np.ndarray
    #: (m,) demand read (True) or dirty L2 victim writeback (False)
    event_is_read: np.ndarray
    #: (m,) index of the access that issued the event
    event_access: np.ndarray
    #: the trace's iteration bookkeeping (see
    #: :attr:`~repro.trace.generator.GeneratedTrace.scale_factor`)
    iterations_simulated: int
    iterations_total: int

    def __post_init__(self) -> None:
        for name, dtype in _DTYPES.items():
            array = getattr(self, name)
            if array.dtype != dtype or array.ndim != 1:
                raise ValueError(f"front-end column {name!r} is mis-typed")
        n = int(self.offsets[-1]) if self.offsets.size else -1
        if n < 0 or int(self.offsets[0]) != 0:
            raise ValueError("front-end offsets must run from 0 to n")
        if any(
            column.shape != (n,)
            for column in (self.gap, self.l1_hit, self.needs_llc)
        ):
            raise ValueError("front-end access columns do not match the offsets")
        m = self.event_addr.shape
        if self.event_is_read.shape != m or self.event_access.shape != m:
            raise ValueError("front-end event columns differ in length")

    def columns(self) -> dict[str, np.ndarray]:
        """Every array by field name, in storage order."""
        return {name: getattr(self, name) for name in _DTYPES}

    @property
    def num_cores(self) -> int:
        """Core slots of the trace, populated or not."""
        return int(self.offsets.size) - 1

    @property
    def scale_factor(self) -> float:
        """Multiply simulated totals by this to estimate the full run."""
        if self.iterations_simulated == 0:
            return 1.0
        return self.iterations_total / self.iterations_simulated

    @property
    def l1_accesses(self) -> int:
        """Accesses the private L1s saw (every access of the covered cores)."""
        return int(self.l1_hit.size)

    @property
    def l2_accesses(self) -> int:
        """Demand accesses that reached the private L2s (the L1 misses)."""
        return self.l1_accesses - int(np.count_nonzero(self.l1_hit))

    def restrict(self, cores: Iterable[int]) -> TimingFrontEnd:
        """The front end of this trace with only ``cores`` populated.

        Every other core keeps its slot with an empty stream, so core
        ids, the machine width and the iteration bookkeeping are those
        of the full trace: a scenario's solo and leave-one-out replays
        run the full mix this way.  Kept events stay in order and their
        access indices are renumbered into the restricted stream.
        """
        lengths = np.diff(self.offsets)
        active = np.zeros(lengths.size, dtype=bool)
        active[list(cores)] = True
        kept_lengths = np.where(active, lengths, 0)
        keep = np.repeat(active, lengths)
        renumber = np.cumsum(keep) - 1
        kept_events = keep[self.event_access]
        return TimingFrontEnd(
            offsets=np.concatenate(([0], np.cumsum(kept_lengths))),
            gap=self.gap[keep],
            l1_hit=self.l1_hit[keep],
            needs_llc=self.needs_llc[keep],
            event_addr=self.event_addr[kept_events],
            event_is_read=self.event_is_read[kept_events],
            event_access=renumber[self.event_access[kept_events]],
            iterations_simulated=self.iterations_simulated,
            iterations_total=self.iterations_total,
        )


def compute_front_end(
    trace: GeneratedTrace, config: SystemConfig
) -> TimingFrontEnd:
    """Filter ``trace`` through the private caches and order its LLC events.

    Uses ``config``'s L1 and L2 geometry only; the LLC, DRAM and core
    parameters, and the design, belong to the back end.
    """
    # A machine without cores filters nothing, but its filter needs a set.
    num_cores = max(len(trace.cores), 1)
    core_ids, addrs, writes, gap, offsets = trace.concatenated()
    filt = BatchedPrivateFilter(config, num_cores).filter(core_ids, addrs, writes)
    del core_ids, addrs, writes
    slot = _interleave_slots(filt.event_access, offsets)
    columns: dict[str, np.ndarray] = {}
    for name in ("event_addr", "event_is_read", "event_access"):
        core_major = getattr(filt, name)
        columns[name] = np.empty_like(core_major)
        columns[name][slot] = core_major
    return TimingFrontEnd(
        offsets=offsets,
        gap=gap,
        l1_hit=filt.l1_hit,
        needs_llc=filt.needs_llc,
        **columns,
        iterations_simulated=trace.iterations_simulated,
        iterations_total=trace.iterations_total,
    )


def _interleave_slots(event_access: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each core-major event's slot in the chunk-interleaved order.

    Bin ``(c, j)`` holds the events of core ``c``'s accesses
    ``[12j, 12j + 12)``.  Chunk pass ``j`` replays bins ``(0, j)``,
    ``(1, j)``, ...; a bin keeps its core-major order, so an event's
    slot is its bin's first slot plus its offset within the bin.
    ``event_access`` is non-decreasing (core-major), so the events before
    each bin bound are one binary search away.
    """
    lengths = np.diff(offsets)
    chunks = -(-int(lengths.max(initial=0)) // INTERLEAVE_CHUNK)
    # (cores, chunks + 1) access bounds of every bin
    bounds = np.minimum(
        np.arange(chunks + 1, dtype=np.int64) * INTERLEAVE_CHUNK, lengths[:, None]
    )
    bounds += offsets[:-1, None]
    before = np.searchsorted(event_access, bounds)
    counts = np.diff(before, axis=1)
    # Exclusive prefix sum in (chunk, core) order: each bin's first slot.
    by_pass = counts.T.ravel()
    first = np.cumsum(by_pass) - by_pass
    shift = first.reshape(chunks, lengths.size).T - before[:, :-1]
    slot = np.repeat(shift.ravel(), counts.ravel())
    slot += np.arange(slot.size, dtype=np.int64)
    return slot
