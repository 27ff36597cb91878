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
``BaselineLLCReference`` (``tests/oracles.py``).  A stream that repeats
(:class:`~repro.cache.array_lru.StreamRepeat`, found by the caller)
replays one copy at a time until every set's LRU state repeats, and the
remaining copies take the last replayed copy's outcomes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, ClassVar

import numpy as np

from ..common.config import CacheConfig
from ..common.stats import StatCounter
from ..memory.dram import DRAM
from .array_lru import LLC_SETTLE_COPIES, BatchedLRUMatrix, StreamRepeat

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

    def replay_batch(
        self,
        addrs: np.ndarray,
        is_read: np.ndarray,
        repeat: StreamRepeat | None = None,
    ) -> np.ndarray:
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

        ``repeat`` says where the stream repeats (checked by the
        caller).  The matrix then replays the events up to the end of
        the first copy in one batch and the next copies one at a time,
        until a copy leaves every set in the LRU state it found
        (:meth:`~repro.cache.array_lru.BatchedLRUMatrix.matches`).
        Every later copy would repeat that copy's outcomes, so they are
        copied in instead, and the events after the copies replay from
        that state.  A state that has not repeated by the end of copy
        :data:`~repro.cache.array_lru.LLC_SETTLE_COPIES` replays the
        rest in one batch.  Either way the outcomes, and the DRAM
        transfer stream built from them, equal a one-batch replay's.

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

        def replay(a: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            lines = addrs[a:b] >> self.line_shift
            return matrix.replay(
                lines % self.num_sets, lines, ~is_read[a:b], is_access=is_read[a:b]
            )

        if repeat is None:
            present, victim_line, victim_dirty = replay(0, n)
        else:
            present, victim_line, victim_dirty = _replay_tiled(
                matrix, replay, n, repeat
            )
        victim_events = np.flatnonzero(victim_dirty)
        demand_events = np.flatnonzero(is_read & ~present)
        misses = int(demand_events.size)
        hits = int(np.count_nonzero(is_read)) - misses
        if hits:
            self.stats.add("llc_hits", hits)
        if misses:
            self.stats.add("llc_misses", misses)
        if victim_events.size:
            self.stats.add("writebacks", int(victim_events.size))

        # Memory-link transfer stream, in event order: each event first
        # writes back its dirty victim, then (read misses) fetches the
        # demand line.
        event_of = np.concatenate((victim_events, demand_events))
        dram_write = np.zeros(event_of.size, dtype=bool)
        dram_write[:victim_events.size] = True
        order = np.argsort(2 * event_of + ~dram_write)  # keys are distinct
        event_of = event_of[order]
        dram_write = dram_write[order]
        dram_addr = np.where(
            dram_write, victim_line[event_of] << self.line_shift, addrs[event_of]
        )
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

        latencies = is_read * np.int64(self.latency)
        latencies[demand_events] += dram_latency[~dram_write]
        return latencies

    @property
    def mpki_misses(self) -> int:
        return int(self.stats["llc_misses"])


def _replay_tiled(
    matrix: BatchedLRUMatrix,
    replay: Callable[[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]],
    n: int,
    repeat: StreamRepeat,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``replay(0, n)``'s outcomes for ops that repeat as ``repeat``
    says, where ``replay(a, b)`` replays ops ``[a, b)`` through
    ``matrix``: the copies replay one at a time until the state
    repeats, and the rest of them copy the last one replayed."""
    outcomes = (
        np.empty(n, dtype=bool),
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=bool),
    )

    def replay_into(a: int, b: int) -> None:
        for out, part in zip(outcomes, replay(a, b)):
            out[a:b] = part

    start, width, copies = repeat
    replay_into(0, start + width)
    done = 1
    settled = False
    while not settled and done < min(copies, LLC_SETTLE_COPIES):
        mark = matrix.mark()
        replay_into(start + done * width, start + (done + 1) * width)
        done += 1
        settled = matrix.matches(mark)
    rest = start + done * width
    if settled and done < copies:
        tiles = copies - done
        for out in outcomes:
            out[rest:start + copies * width].reshape(tiles, width)[:] = (
                out[rest - width:rest]
            )
        matrix.skip(mark, tiles)
        rest += tiles * width
    replay_into(rest, n)
    return outcomes
