"""Baseline shared LLC (also models Truncate's and Doppelgänger's LLCs).

A conventional set-associative cache in front of DRAM.  The comparison
designs reuse it with modifiers:

* **Truncate** stores approximate lines at half width, effectively
  doubling capacity for approximate data, and moves 32 bytes per
  approximate line on the memory link.
* **Doppelgänger** shares data entries between similar lines; its
  effective capacity gain is the measured dedup factor, capped by its
  4x tag-array reach.

:meth:`BaselineLLC.replay_batch` replays a whole event stream at once;
the per-event model it is pinned against is the test oracle's
``BaselineReference`` (``tests/oracles.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

import numpy as np

from ..common.config import CacheConfig
from ..common.stats import StatCounter
from ..memory.dram import DRAM
from .array_lru import BatchedLRUMatrix

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..system.layout import AddressLayout


class BaselineLLC:
    """Shared last-level cache over DRAM."""

    #: no compressor: the energy model charges no compressor power
    has_compressor: ClassVar[bool] = False

    def __init__(
        self,
        config: CacheConfig,
        dram: DRAM,
        layout: AddressLayout,
        capacity_multiplier: float = 1.0,
        approx_line_bytes: int = 64,
    ) -> None:
        """``layout`` splits memory traffic into approximate and exact
        (empty: all exact); ``capacity_multiplier`` scales the ways;
        approximate lines move ``approx_line_bytes`` on the link."""
        self.config = config
        self.layout = layout
        self.capacity_multiplier = capacity_multiplier
        self.num_sets = config.num_sets
        self.ways = max(1, round(config.ways * capacity_multiplier))
        self.line_shift = config.line_bytes.bit_length() - 1
        self.latency = config.latency_cycles
        self.dram = dram
        self.approx_line_bytes = approx_line_bytes
        self.stats = StatCounter()
        self._replayed = False

    def replay_batch(self, addrs: np.ndarray, is_read: np.ndarray) -> np.ndarray:
        """Replay a whole LLC event stream; returns per-event latencies.

        ``addrs``/``is_read`` describe the filtered, chunk-interleaved
        event stream: demand reads where ``is_read``, dirty L2 victim
        writebacks elsewhere.  A read looks the line up (allocating on
        a miss, evicting the set's LRU line), a writeback installs the
        line dirty; a dirty victim goes to memory before the demand
        fetch of the event that evicted it.  The data array is replayed
        through a :class:`~repro.cache.array_lru.BatchedLRUMatrix`, the
        resulting miss/victim transfer stream through
        :meth:`~repro.memory.dram.DRAM.access_batch`.  Latencies are
        reported for read events (writeback slots hold 0; the caller
        discards them).

        The batch is the whole traffic this LLC ever sees (the timing
        engine runs exactly one trace per system); a second call
        raises rather than replaying against the wrong state.
        """
        if self._replayed:
            raise ValueError(
                "replay_batch runs once per LLC: it replays the whole "
                "event stream against fresh state (one batch per cache)"
            )
        self._replayed = True
        n = int(addrs.size)
        matrix = BatchedLRUMatrix(self.num_sets, self.ways)
        lines = addrs >> self.line_shift
        present, victim_line, victim_dirty = matrix.replay(
            lines % self.num_sets, lines, ~is_read, is_access=is_read
        )
        hits = int(present[is_read].sum())
        misses = int(is_read.sum()) - hits
        if hits:
            self.stats.add("llc_hits", hits)
        if misses:
            self.stats.add("llc_misses", misses)
        dirty_victims = int(victim_dirty.sum())
        if dirty_victims:
            self.stats.add("writebacks", dirty_victims)

        # Memory-link transfer stream, in event order: each event first
        # writes back its dirty victim, then (read misses) fetches the
        # demand line.
        demand = is_read & ~present
        t_addr = np.empty((n, 2), dtype=np.int64)
        t_addr[:, 0] = victim_line << self.line_shift
        t_addr[:, 1] = addrs
        t_write = np.zeros((n, 2), dtype=bool)
        t_write[:, 0] = True
        t_valid = np.empty((n, 2), dtype=bool)
        t_valid[:, 0] = victim_dirty
        t_valid[:, 1] = demand
        mask = t_valid.ravel()
        dram_addr = t_addr.ravel()[mask]
        dram_write = t_write.ravel()[mask]
        event_of = np.repeat(np.arange(n, dtype=np.int64), 2)[mask]
        m = int(dram_addr.size)

        # Approx/exact traffic split, plus Truncate's half-width lines.
        approx = self.layout.is_approx_batch(dram_addr)
        half = approx & (self.approx_line_bytes != 64)
        nbytes = np.where(half, self.approx_line_bytes, 64)
        n_approx = int(approx.sum())
        if n_approx:
            self.stats.add("bytes_approx", int(nbytes[approx].sum()))
        if m - n_approx:
            self.stats.add("bytes_exact", int(nbytes[~approx].sum()))

        dram_latency = self.dram.access_batch(dram_addr, dram_write)

        if half.any():
            # Credit back the saved half-line of traffic and occupancy.
            delta = self.approx_line_bytes - 64
            half_writes = int((half & dram_write).sum())
            half_reads = int((half & ~dram_write).sum())
            if half_writes:
                self.dram.stats.add("bytes_written", half_writes * delta)
            if half_reads:
                self.dram.stats.add("bytes_read", half_reads * delta)
            channels = (dram_addr[half] // 64) % self.dram.config.channels
            credit = np.bincount(
                channels, minlength=self.dram.config.channels
            ) * (self.dram.config.burst_cycles // 2)
            for c in range(self.dram.config.channels):
                self.dram.channel_busy[c] -= int(credit[c])

        latencies = np.zeros(n, dtype=np.int64)
        latencies[is_read] = self.latency
        demand_events = event_of[~dram_write]
        latencies[demand_events] += dram_latency[~dram_write]
        return latencies

    @property
    def mpki_misses(self) -> int:
        return int(self.stats["llc_misses"])
