"""Test oracles: the reference implementations the fast paths replaced.

The package keeps one production path per layer: the batched timing
replay (:meth:`repro.system.TimingSystem.run`) and the columnar trace
synthesis (:func:`repro.trace.generate_trace`).  The slow, obviously
correct implementations those paths were derived from live here, where
the differential suites (``test_engine_equivalence.py``,
``test_array_lru.py``, ``test_trace_equivalence.py``,
``test_scenario.py``, the per-component unit tests) and the ``--check``
modes of ``benchmarks/bench_timing.py`` and
``benchmarks/bench_trace_synthesis.py`` diff the fast paths against
them bit for bit.

The per-event timing model, one twin per component:

* :class:`SetAssocCache` / :class:`PrivateCaches` — the dict-based
  true-LRU cache level and the private L1+L2 stack, the oracles of
  :class:`~repro.cache.array_lru.BatchedLRUMatrix` and
  :class:`~repro.cache.array_lru.BatchedPrivateFilter`;
* :class:`BaselineLLCReference` — ``read``/``writeback`` of the
  baseline / Truncate / Doppelgänger LLC, the oracle of
  :meth:`~repro.cache.llc_baseline.BaselineLLC.replay_batch`;
* :class:`AVRLLCReference` with :class:`CMT`, :class:`CMTEntryReference`
  and :class:`DBUF` — the Fig. 7 request and Fig. 8 eviction flows
  over packed-key state, the oracle of
  :meth:`~repro.cache.llc_avr.AVRLLC.replay_batch`;
* :class:`DRAMReference` — one transfer at a time, the oracle of
  :meth:`~repro.memory.dram.DRAM.access_batch` and
  :meth:`~repro.memory.dram.DRAM.replay_transfers`;
* :class:`IntervalCoreReference` — ``advance``/``memory_event``, the
  oracle of :meth:`~repro.cpu.interval.IntervalCore.replay_batch`;
* :func:`is_approx` / :func:`block_size_of` — scalar
  :class:`~repro.system.layout.AddressLayout` lookups.

On top of the twins:

* :func:`run_reference` — the interleaved access-at-a-time timing
  replay, the oracle of :meth:`repro.system.TimingSystem.run`;
* :func:`replay_llc` — one LLC event list through a fresh package LLC
  and through its twin, asserting they agree (the LLC unit tests'
  driver);
* :func:`generate_trace_reference` — the per-(iteration, phase)
  fragment loop, the oracle of :func:`repro.trace.generate_trace`.

The benchmarks import this module by putting ``tests/`` on
``sys.path``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.approx.memory import ApproxMemory
from repro.cache.array_lru import EMPTY, BatchedLRUMatrix
from repro.cache.cmt import CACHE_PAGES, CMTEntry
from repro.cache.llc_avr import (
    AVRLLC,
    FULL_BLOCK_MASK,
    PFE_DEFAULT,
    PFE_THRESHOLD,
)
from repro.cache.llc_baseline import BaselineLLC
from repro.common.config import CacheConfig, DRAMConfig, SystemConfig
from repro.common.constants import (
    BLOCK_BYTES,
    BLOCK_CACHELINES,
    BLOCKS_PER_PAGE,
    CACHELINE_BYTES,
    CMT_ENTRY_BITS,
    DECOMPRESS_LATENCY_CYCLES,
    MAX_FAILED_COUNT,
    MAX_SKIP_COUNT,
    PAGE_BYTES,
)
from repro.common.stats import StatCounter
from repro.cpu.interval import IntervalCore
from repro.memory.dram import DRAM
from repro.system.layout import AddressLayout
from repro.system.simulator import INTERLEAVE_CHUNK, SimResult, TimingSystem
from repro.trace.events import TRACE_DTYPE, concat_traces, make_trace
from repro.trace.generator import (
    _JITTER_BOUND,
    GeneratedTrace,
    _phase_addresses,
    budget_iterations,
)
from repro.workloads.base import TraceSpec

__all__ = [
    "AVRLLCReference",
    "BaselineLLCReference",
    "CMT",
    "CMTEntryReference",
    "DBUF",
    "DRAMReference",
    "IntervalCoreReference",
    "PrivateCaches",
    "ReplayOutcome",
    "SetAssocCache",
    "block_size_of",
    "cms_key",
    "decode_cms_key",
    "generate_trace_reference",
    "is_approx",
    "matrix_lru_state",
    "reference_system",
    "replay_llc",
    "run_reference",
]


# ======================================================================
# address layout lookups
# ======================================================================
def is_approx(layout: AddressLayout, addr: int) -> bool:
    """Whether ``addr`` lies in one of ``layout``'s approximable ranges."""
    for r in layout.ranges:
        if r.start <= addr < r.end:
            return True
    return False


def block_size_of(layout: AddressLayout, block_addr: int) -> int:
    """Compressed size (cachelines) of the block at ``block_addr``."""
    for r in layout.ranges:
        if r.start <= block_addr < r.end:
            if isinstance(r.sizes, np.ndarray):
                return int(r.sizes[(block_addr - r.start) // BLOCK_BYTES])
            return int(r.sizes)
    return BLOCK_CACHELINES


# ======================================================================
# private caches: the dict-based LRU cache level and the L1+L2 stack
# ======================================================================
class SetAssocCache:
    """One cache level at cacheline granularity, true-LRU replacement.

    Sets are Python dicts whose insertion order encodes recency —
    touching a line pops and reinserts it, evicting takes the first
    key — giving O(1) operations without per-line timestamp
    bookkeeping.  Used for the private L1/L2 levels and (with a
    capacity multiplier) the baseline-family LLC twin.
    """

    def __init__(
        self,
        config: CacheConfig,
        capacity_multiplier: float = 1.0,
    ) -> None:
        self.line_bytes = config.line_bytes
        self.line_shift = config.line_bytes.bit_length() - 1
        self.num_sets = config.num_sets
        self.ways = max(1, round(config.ways * capacity_multiplier))
        self.latency = config.latency_cycles
        # tag -> dirty flag; dict order is LRU order (front = oldest)
        self._sets: list[dict[int, bool]] = [dict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def _index(self, addr: int) -> tuple[int, int]:
        line = addr >> self.line_shift
        return line % self.num_sets, line

    def access(
        self, addr: int, write: bool
    ) -> tuple[bool, tuple[int, bool] | None]:
        """Look up (and on miss, allocate) the line holding ``addr``.

        Returns ``(hit, victim)`` where ``victim`` is
        ``(victim_addr, victim_dirty)`` if a line was evicted to make
        room, else None.
        """
        index, line = self._index(addr)
        cset = self._sets[index]
        if line in cset:
            dirty = cset.pop(line)
            cset[line] = dirty or write
            self.hits += 1
            return True, None
        self.misses += 1
        victim = None
        if len(cset) >= self.ways:
            vline = next(iter(cset))
            vdirty = cset.pop(vline)
            victim = (vline << self.line_shift, vdirty)
        cset[line] = write
        return False, victim

    def probe(self, addr: int) -> bool:
        """Check presence without changing state."""
        index, line = self._index(addr)
        return line in self._sets[index]

    def invalidate(self, addr: int) -> bool | None:
        """Drop the line if present; returns its dirty flag (None if absent)."""
        index, line = self._index(addr)
        return self._sets[index].pop(line, None)

    def insert(self, addr: int, dirty: bool) -> tuple[int, bool] | None:
        """Insert a line (e.g. a writeback from an inner level).

        Returns the victim ``(addr, dirty)`` if one was evicted.
        """
        index, line = self._index(addr)
        cset = self._sets[index]
        if line in cset:
            prev = cset.pop(line)
            cset[line] = prev or dirty
            return None
        victim = None
        if len(cset) >= self.ways:
            vline = next(iter(cset))
            vdirty = cset.pop(vline)
            victim = (vline << self.line_shift, vdirty)
        cset[line] = dirty
        return victim

    def lru_state(self) -> list[list[tuple[int, bool]]]:
        """Per-set ``[(line, dirty)]`` in LRU→MRU order.

        The contract the batched matrix model must reproduce (compare
        :func:`matrix_lru_state`).
        """
        return [list(cset.items()) for cset in self._sets]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0


def matrix_lru_state(matrix: BatchedLRUMatrix) -> list[list[tuple[int, bool]]]:
    """:meth:`SetAssocCache.lru_state` read off a batched matrix cache."""
    out: list[list[tuple[int, bool]]] = []
    for s in range(matrix.num_sets):
        occupied = np.flatnonzero(matrix.tags[s] != EMPTY)
        by_age = occupied[np.argsort(matrix.ages[s][occupied], kind="stable")]
        out.append(
            [(int(matrix.tags[s][w]), bool(matrix.dirty[s][w])) for w in by_age]
        )
    return out


class PrivateCaches:
    """L1 + L2 for one core.

    Filters the core's access stream before it reaches the shared LLC.
    Victims cascade outward: every L1 victim — clean or dirty — is
    installed in L2 (an exclusive-style victim fill that preserves the
    dirty flag), and a dirty L2 victim is handed to the LLC layer by
    the caller.  Clean L2 victims are simply dropped: the LLC already
    holds (or can refetch) their data.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.l1 = SetAssocCache(config.l1)
        self.l2 = SetAssocCache(config.l2)

    def access(self, addr: int, write: bool) -> tuple[int, bool, list[tuple[int, bool]]]:
        """Run one access through L1 and L2.

        Returns ``(latency_cycles, needs_llc, l2_writebacks)`` where
        ``l2_writebacks`` lists dirty lines evicted from L2 that must
        be handled by the LLC level.
        """
        writebacks: list[tuple[int, bool]] = []
        hit, victim = self.l1.access(addr, write)
        latency = self.l1.latency
        if hit:
            return latency, False, writebacks
        if victim is not None:
            # Every L1 victim falls into L2, keeping its dirty flag.
            # (Installing only dirty victims would make clean lines
            # vanish from the private stack entirely, so re-reads would
            # escalate straight to the LLC.)
            l2_victim = self.l2.insert(victim[0], dirty=victim[1])
            if l2_victim is not None and l2_victim[1]:
                writebacks.append(l2_victim)

        hit2, victim2 = self.l2.access(addr, False)
        latency += self.l2.latency
        if victim2 is not None and victim2[1]:
            writebacks.append(victim2)
        return latency, not hit2, writebacks


# ======================================================================
# DRAM and core: one transfer / one access at a time
# ======================================================================
class DRAMReference(DRAM):
    """:class:`~repro.memory.dram.DRAM` plus its per-transfer calls."""

    def _map(self, line_addr: int) -> tuple[int, int, int]:
        """line address -> (channel, bank, row)."""
        channel = line_addr % self.config.channels
        within = line_addr // self.config.channels
        row = within // self._row_lines
        bank = row % self.config.banks_per_channel
        return channel, bank, row

    def access(self, addr: int, lines: int = 1, write: bool = False) -> int:
        """Transfer ``lines`` consecutive cachelines starting at ``addr``.

        Returns the latency in core cycles of the critical (first)
        line; subsequent lines of a block stream behind it pipelined at
        burst rate.  Busy time and traffic are fully accounted.
        """
        if lines < 1:
            raise ValueError("lines must be >= 1")
        cfg = self.config
        first_line = addr >> self._line_shift
        latency = 0
        for i in range(lines):
            channel, bank, row = self._map(first_line + i)
            key = (channel, bank)
            if self._open_rows.get(key) == row:
                line_latency = cfg.row_hit_cycles
                self.stats.add("row_hits")
            else:
                line_latency = cfg.row_miss_cycles
                self._open_rows[key] = row
                self.stats.add("row_misses")
            if i == 0:
                latency = line_latency
            self.channel_busy[channel] += cfg.burst_cycles
        nbytes = lines * self.line_bytes
        self.stats.add("bytes_written" if write else "bytes_read", nbytes)
        self.stats.add("accesses")
        if not write:
            latency += cfg.burst_cycles  # critical-line transfer time
        return latency + (lines - 1) * cfg.burst_cycles // 2

    def transfer_partial(self, nbytes: int, write: bool) -> None:
        """Account sub-line traffic (e.g. CMT metadata updates)."""
        self.stats.add("bytes_written" if write else "bytes_read", nbytes)
        channel = self.stats.get("accesses", 0) % self.config.channels
        self.channel_busy[int(channel)] += max(
            1, self.config.burst_cycles * nbytes // self.line_bytes
        )


class IntervalCoreReference(IntervalCore):
    """:class:`~repro.cpu.interval.IntervalCore` plus its per-access calls."""

    def advance(self, gap_instructions: int) -> None:
        """Execute non-memory instructions at the base dispatch rate."""
        self.instructions += int(gap_instructions) + 1  # + the memory op
        self.cycles += (int(gap_instructions) + 1) / self.config.base_ipc

    def memory_event(self, latency_cycles: float, l1_hit: bool) -> None:
        """Account one memory access' latency.

        L1 hits are hidden by the pipeline; deeper accesses expose
        ``latency / MLP`` cycles of stall.
        """
        self.mem_accesses += 1
        self.mem_latency_total += latency_cycles
        if not l1_hit:
            self.cycles += latency_cycles / self.config.mlp


# ======================================================================
# baseline-family LLC
# ======================================================================
class BaselineLLCReference:
    """Per-event twin of :class:`~repro.cache.llc_baseline.BaselineLLC`."""

    has_compressor = False

    def __init__(
        self,
        config: CacheConfig,
        dram: DRAMReference,
        layout: AddressLayout,
        capacity_multiplier: float = 1.0,
        approx_line_bytes: int = 64,
    ) -> None:
        self.cache = SetAssocCache(config, capacity_multiplier)
        self.latency = config.latency_cycles
        self.dram = dram
        self.layout = layout
        self.approx_line_bytes = approx_line_bytes
        self.stats = StatCounter()

    def is_approx(self, addr: int) -> bool:
        return is_approx(self.layout, addr)

    def _dram_lines_bytes(self, addr: int) -> int:
        """Bytes a line transfer costs on the memory link."""
        if self.approx_line_bytes != 64 and self.is_approx(addr):
            return self.approx_line_bytes
        return 64

    def _transfer(self, addr: int, write: bool) -> int:
        nbytes = self._dram_lines_bytes(addr)
        self.stats.add(
            "bytes_approx" if self.is_approx(addr) else "bytes_exact", nbytes
        )
        if nbytes == 64:
            return self.dram.access(addr, 1, write=write)
        latency = self.dram.access(addr, 1, write=write)
        # Credit back the saved half-line of traffic and occupancy.
        self.dram.stats.add("bytes_written" if write else "bytes_read", nbytes - 64)
        channel = (addr // 64) % self.dram.config.channels
        self.dram.channel_busy[channel] -= self.dram.config.burst_cycles // 2
        return latency

    def _handle_victim(self, victim: tuple[int, bool] | None) -> None:
        if victim is not None and victim[1]:
            self._transfer(victim[0], write=True)
            self.stats.add("writebacks")

    def read(self, addr: int) -> int:
        hit, victim = self.cache.access(addr, write=False)
        if hit:
            self.stats.add("llc_hits")
            return self.latency
        self.stats.add("llc_misses")
        self._handle_victim(victim)
        return self.latency + self._transfer(addr, write=False)

    def writeback(self, addr: int) -> int:
        victim = self.cache.insert(addr, dirty=True)
        self._handle_victim(victim)
        return self.latency

    @property
    def mpki_misses(self) -> int:
        return int(self.stats["llc_misses"])


# ======================================================================
# AVR: CMT, DBUF and the LLC's request/eviction flows
# ======================================================================
class CMTEntryReference(CMTEntry):
    """A :class:`~repro.cache.cmt.CMTEntry` plus its policy methods."""

    __slots__ = ()

    @property
    def compressed(self) -> bool:
        return self.size_cachelines < BLOCK_CACHELINES

    @property
    def lazy_capacity(self) -> int:
        """Free cachelines in the block's 1 KB slot for lazy evictions."""
        if not self.compressed:
            return 0
        return BLOCK_CACHELINES - self.size_cachelines

    def lazy_possible(self) -> bool:
        return self.compressed and self.lazy_count < self.lazy_capacity

    def should_skip_recompression(self) -> bool:
        """The badly-compressed-block policy: after ``failed`` consecutive
        failures, skip up to ``min(failed, MAX_SKIP)`` recompression
        attempts before trying again."""
        return self.skipped < min(self.failed, MAX_SKIP_COUNT)

    def record_skip(self) -> None:
        self.skipped = min(self.skipped + 1, MAX_SKIP_COUNT)

    def record_failure(self) -> None:
        self.failed = min(self.failed + 1, MAX_FAILED_COUNT)
        self.skipped = 0

    def record_success(self, size_cachelines: int) -> None:
        self.size_cachelines = size_cachelines
        self.failed = 0
        self.skipped = 0


class CMT:
    """The metadata table plus its on-chip cache."""

    #: pages of CMT entries cached on chip (tracks the TLB)
    CACHE_PAGES = CACHE_PAGES

    def __init__(self) -> None:
        self._entries: dict[int, CMTEntryReference] = {}
        self._cache: dict[int, None] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @staticmethod
    def block_addr(addr: int) -> int:
        return addr & ~(BLOCK_BYTES - 1)

    def lookup(
        self, addr: int, default_size: int | None = None
    ) -> tuple[CMTEntryReference, bool]:
        """Entry for the block containing ``addr``; returns (entry, cached).

        ``default_size`` seeds the entry's compressed size on first
        touch (the timing layer's static per-block size).
        """
        return self.lookup_block(self.block_addr(addr), default_size)

    def lookup_block(
        self, block_addr: int, default_size: int | None = None
    ) -> tuple[CMTEntryReference, bool]:
        """:meth:`lookup` for a caller that already has the block base."""
        entry = self._entries.get(block_addr)
        if entry is None:
            entry = CMTEntryReference()
            if default_size is not None:
                entry.size_cachelines = default_size
            self._entries[block_addr] = entry

        page = block_addr // PAGE_BYTES
        cache = self._cache
        if page in cache:
            del cache[page]
            cache[page] = None
            self.cache_hits += 1
            cached = True
        else:
            if len(cache) >= self.CACHE_PAGES:
                del cache[next(iter(cache))]
            cache[page] = None
            self.cache_misses += 1
            cached = False
        return entry, cached

    @staticmethod
    def miss_traffic_bytes() -> int:
        """Metadata bytes fetched on a CMT-cache miss (one page's worth)."""
        return (CMT_ENTRY_BITS * BLOCKS_PER_PAGE + 7) // 8


class DBUF:
    """Holds the most recently decompressed memory block.

    ``pfe_threshold`` tunes the prefetch engine's requested-lines
    threshold (ablation); ``None`` disables PFE prefetching entirely.
    Line tracking is two bit masks (one bit per line offset);
    ``requested`` / ``in_llc`` are set-valued views of them.
    """

    def __init__(self, pfe_threshold: int | None = PFE_THRESHOLD) -> None:
        self.pfe_threshold = pfe_threshold
        self.block_addr: int | None = None
        #: bit ``i`` set <=> line offset ``i`` was explicitly requested
        self.requested_mask: int = 0
        #: bit ``i`` set <=> line offset ``i`` was written into the LLC
        self.in_llc_mask: int = 0
        self.hits = 0
        self.loads = 0

    @staticmethod
    def _split(addr: int) -> tuple[int, int]:
        return addr & ~(BLOCK_BYTES - 1), (addr % BLOCK_BYTES) // CACHELINE_BYTES

    @property
    def requested(self) -> set[int]:
        """Requested line offsets as a set (view over the bit mask)."""
        return {i for i in range(BLOCK_CACHELINES) if self.requested_mask >> i & 1}

    @property
    def in_llc(self) -> set[int]:
        """LLC-inserted line offsets as a set (view over the bit mask)."""
        return {i for i in range(BLOCK_CACHELINES) if self.in_llc_mask >> i & 1}

    def holds(self, addr: int) -> bool:
        block, _ = self._split(addr)
        return self.block_addr == block

    def serve(self, addr: int) -> bool:
        """Serve a request from the buffer if possible."""
        block, line = self._split(addr)
        if self.block_addr != block:
            return False
        self.hits += 1
        bit = 1 << line
        self.requested_mask |= bit
        self.in_llc_mask |= bit  # the served UCL is also written to the LLC
        return True

    def note_requested(self, addr: int) -> None:
        """Record that a line of the buffered block went to the LLC."""
        block, line = self._split(addr)
        if self.block_addr == block:
            bit = 1 << line
            self.requested_mask |= bit
            self.in_llc_mask |= bit

    def pfe_fires(self) -> bool:
        """Whether replacing the buffer now would trigger a prefetch."""
        return (
            self.pfe_threshold is not None
            and self.block_addr is not None
            and self.requested_mask.bit_count() >= self.pfe_threshold
        )

    def load(self, block_addr: int, requested_line: int) -> list[int]:
        """Replace the buffered block; returns lines the PFE prefetches.

        The returned line offsets belong to the *outgoing* block and
        should be inserted into the LLC by the caller (they are the
        not-yet-inserted lines of a block that proved useful).
        """
        prefetch: list[int] = []
        if self.pfe_fires():
            missing = ~self.in_llc_mask & FULL_BLOCK_MASK
            while missing:
                low = missing & -missing
                prefetch.append(low.bit_length() - 1)
                missing ^= low
        bit = 1 << requested_line
        self.block_addr = block_addr
        self.requested_mask = bit
        self.in_llc_mask = bit
        self.loads += 1
        return prefetch

    def invalidate(self) -> None:
        self.block_addr = None
        self.requested_mask = 0
        self.in_llc_mask = 0


#: bias of the packed CMS keys: key ``-2`` is ``(block 0, off 0)``.
_CMS_BIAS = 2


def cms_key(block_no: int, off: int) -> int:
    """Packed data-array key of the ``off``-th CMS of ``block_no``."""
    return -(block_no * BLOCK_CACHELINES + off) - _CMS_BIAS


def decode_cms_key(key: int) -> tuple[int, int]:
    """Inverse of :func:`cms_key`: ``(block_no, off)``."""
    packed = -key - _CMS_BIAS
    return packed // BLOCK_CACHELINES, packed % BLOCK_CACHELINES


class AVRLLCReference:
    """Per-event twin of :class:`~repro.cache.llc_avr.AVRLLC`.

    Entry keys are packed int64s: a UCL is its line number (``>= 0``),
    a CMS of ``(block, off)`` is :func:`cms_key` (strictly below the
    :data:`~repro.cache.array_lru.EMPTY` sentinel ``-1``, so the three
    key classes never collide).  State lives in flat row-major
    ``(num_sets, ways)`` tag/dirty/age planes plus a key→slot index;
    the LRU victim of a set is its occupied way with the smallest age.
    """

    has_compressor = True

    def __init__(
        self,
        config: CacheConfig,
        dram: DRAMReference,
        layout: AddressLayout,
        enable_dbuf: bool = True,
        enable_lazy_eviction: bool = True,
        enable_skip_counters: bool = True,
        enable_cms_lru_refresh: bool = True,
        pfe_threshold: Any = PFE_DEFAULT,
    ) -> None:
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.latency = config.latency_cycles
        self.dram = dram
        self.layout = layout
        self.enable_dbuf = enable_dbuf
        self.enable_lazy_eviction = enable_lazy_eviction
        self.enable_skip_counters = enable_skip_counters
        self.enable_cms_lru_refresh = enable_cms_lru_refresh
        # flat row-major (num_sets, ways) planes + key -> slot index
        n_slots = self.num_sets * self.ways
        self.tags: list[int] = [EMPTY] * n_slots
        self.dirty: list[bool] = [False] * n_slots
        self.ages: list[int] = [EMPTY] * n_slots
        self._slot_of: dict[int, int] = {}
        self._clock = 0
        self.dbuf = DBUF(
            PFE_THRESHOLD if pfe_threshold is PFE_DEFAULT else pfe_threshold
        )
        self.cmt = CMT()
        self.stats = StatCounter()

    def is_approx(self, addr: int) -> bool:
        return is_approx(self.layout, addr)

    def block_size_of(self, block_addr: int) -> int:
        return block_size_of(self.layout, block_addr)

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _line_no(addr: int) -> int:
        return addr // CACHELINE_BYTES

    @staticmethod
    def _block_no(addr: int) -> int:
        return addr // BLOCK_BYTES

    def _ucl_set(self, line_no: int) -> int:
        return line_no % self.num_sets

    def _cms_set(self, block_no: int, off: int) -> int:
        return (block_no + off) % self.num_sets

    # ------------------------------------------------------------------
    # data-array plumbing
    # ------------------------------------------------------------------
    def _touch(self, key: int, dirty: bool = False) -> bool:
        """Refresh LRU of an existing entry; returns True if present."""
        slot = self._slot_of.get(key)
        if slot is None:
            return False
        self.ages[slot] = self._clock
        self._clock += 1
        if dirty:
            self.dirty[slot] = True
        return True

    def _insert(self, set_idx: int, key: int, dirty: bool) -> None:
        """Insert an entry, running the eviction flow on the victim."""
        slot = self._slot_of.get(key)
        if slot is not None:
            self.ages[slot] = self._clock
            self._clock += 1
            if dirty:
                self.dirty[slot] = True
            return
        self._allocate(set_idx, key, dirty)

    def _allocate(self, set_idx: int, key: int, dirty: bool) -> None:
        """Fill ``key`` into ``set_idx``, evicting the LRU way if full.

        Empty ways carry age :data:`EMPTY`, which sorts below every
        real clock value, so the min-age way is an empty one whenever
        the set is not full — fill-then-evict without a separate
        occupancy count.  Victim flows never insert (only clear or
        refresh entries), so the freed way stays free for ``key``.
        """
        ways = self.ways
        base = set_idx * ways
        ages = self.ages
        row = ages[base:base + ways]
        slot = base + row.index(min(row))
        victim = self.tags[slot]
        if victim != EMPTY:
            victim_dirty = self.dirty[slot]
            del self._slot_of[victim]
            self.tags[slot] = EMPTY
            self.dirty[slot] = False
            ages[slot] = EMPTY
            self._handle_victim(victim, victim_dirty)
        self.tags[slot] = key
        self.dirty[slot] = dirty
        ages[slot] = self._clock
        self._clock += 1
        self._slot_of[key] = slot

    def _block_cms_present(self, block_no: int) -> int:
        """Number of CMS entries of this block present (0 if none).

        CMS0 presence implies the block's compressed image is resident
        (the paper allocates/evicts a block's CMSs as a unit).
        """
        if cms_key(block_no, 0) in self._slot_of:
            size, _ = self._block_static_size(block_no)
            return size
        return 0

    def _block_static_size(self, block_no: int) -> tuple[int, int]:
        block_addr = block_no * BLOCK_BYTES
        size = self.block_size_of(block_addr)
        return size, block_addr

    def _touch_block_cms(self, block_no: int) -> None:
        """Refresh the block's CMS recency when one of its UCLs is
        accessed (paper §3.4: "the CMS LRU bits are updated when any
        UCL of the block is accessed")."""
        if not self.enable_cms_lru_refresh:
            return
        if cms_key(block_no, 0) not in self._slot_of:
            return
        size, _ = self._block_static_size(block_no)
        for off in range(size):
            self._touch(cms_key(block_no, off))

    def _dram(self, addr: int, lines: int, write: bool, approx: bool) -> int:
        """DRAM access tagged with the approx/exact traffic split."""
        self.stats.add("bytes_approx" if approx else "bytes_exact", lines * 64)
        return self.dram.access(addr, lines, write=write)

    # ------------------------------------------------------------------
    # victim (eviction) flows — paper Figure 8
    # ------------------------------------------------------------------
    def _handle_victim(self, key: int, dirty: bool) -> None:
        if key < EMPTY:  # CMS victim: evict the whole block
            block_no, _off = decode_cms_key(key)
            self._evict_compressed_block(block_no, dirty)
            return
        if not dirty:
            return
        addr = key * CACHELINE_BYTES
        if not self.is_approx(addr):
            self._dram(addr, 1, write=True, approx=False)
            self.stats.add("exact_writebacks")
            return
        self._evict_dirty_approx_ucl(addr)

    def _evict_compressed_block(self, block_no: int, first_dirty: bool) -> None:
        """Evicting any CMS evicts all CMSs of the block (paper §3.4).

        The sweep is bounded by the block's static size: CMS groups are
        allocated and evicted as a unit with exactly ``size`` members,
        so no entry can exist at an offset ``>= size`` (pinned by
        :meth:`check_invariants` and its test).
        """
        size, block_addr = self._block_static_size(block_no)
        dirty = first_dirty
        slot_of = self._slot_of
        for off in range(size):
            slot = slot_of.pop(cms_key(block_no, off), None)
            if slot is not None:
                if self.dirty[slot]:
                    dirty = True
                self.tags[slot] = EMPTY
                self.dirty[slot] = False
                self.ages[slot] = EMPTY
        if dirty:
            # Decompress, overlay dirty UCLs, recompress, write to memory.
            self.stats.add("decompressions")
            self.stats.add("compressions")
            self._dram(block_addr, size, write=True, approx=True)
            entry, cached = self.cmt.lookup_block(block_addr, size)
            if not cached:
                self.dram.transfer_partial(self.cmt.miss_traffic_bytes(), write=False)
            entry.record_success(size)
            entry.lazy_count = 0
        self.stats.add("cms_block_evictions")

    def _evict_dirty_approx_ucl(self, addr: int) -> None:
        block_no = self._block_no(addr)
        size, block_addr = self._block_static_size(block_no)

        if self._block_cms_present(block_no):
            # Recompress in place: block read from LLC, updated, stored back.
            self.stats.add("evict_recompress")
            self.stats.add("decompressions")
            self.stats.add("compressions")
            for off in range(size):
                self._touch(cms_key(block_no, off), dirty=True)
            return

        entry, cached = self.cmt.lookup_block(block_addr, size)
        if not cached:
            self.dram.transfer_partial(self.cmt.miss_traffic_bytes(), write=False)

        if entry.compressed:
            if self.enable_lazy_eviction and entry.lazy_possible():
                self.stats.add("evict_lazy_writeback")
                entry.lazy_count += 1
                self._dram(addr, 1, write=True, approx=True)
                return
            # Space exhausted: fetch block + lazy lines, merge, recompress.
            self.stats.add("evict_fetch_recompress")
            self.stats.add("decompressions")
            self.stats.add("compressions")
            self._dram(block_addr, entry.size_cachelines + entry.lazy_count, False, True)
            self._dram(block_addr, size, write=True, approx=True)
            entry.record_success(size)
            entry.lazy_count = 0
            return

        # Block is uncompressed in memory: consult the skip counters.
        skip = self.enable_skip_counters and entry.should_skip_recompression()
        if size < BLOCK_CACHELINES and not skip:
            # Attempt compression (succeeds: the data is compressible).
            self.stats.add("evict_fetch_recompress")
            self.stats.add("compressions")
            self._dram(block_addr, BLOCK_CACHELINES, False, True)
            self._dram(block_addr, size, write=True, approx=True)
            entry.record_success(size)
            return
        # Attempt fails or is skipped: plain uncompressed writeback.
        self.stats.add("evict_uncompressed_writeback")
        if size >= BLOCK_CACHELINES:
            if skip:
                entry.record_skip()
            else:
                self.stats.add("compressions")  # the failed attempt
                entry.record_failure()
        self._dram(addr, 1, write=True, approx=True)

    # ------------------------------------------------------------------
    # request flow — paper Figure 7
    # ------------------------------------------------------------------
    def read(self, addr: int, count_breakdown: bool = True) -> int:
        """Handle an LLC read request; returns its latency in cycles."""
        approx = self.is_approx(addr)
        line_no = self._line_no(addr)

        if approx and self.enable_dbuf and self.dbuf.serve(addr):
            if count_breakdown:
                self.stats.add("req_hit_dbuf")
            self.stats.add("llc_hits")
            # A block access: refresh the block's CMS recency too.
            self._touch_block_cms(self._block_no(addr))
            # The served line is also written into the LLC.
            self._insert(self._ucl_set(line_no), line_no, dirty=False)
            return self.latency

        if self._touch(line_no):
            if approx:
                if count_breakdown:
                    self.stats.add("req_hit_uncompressed")
                self._touch_block_cms(self._block_no(addr))
            self.stats.add("llc_hits")
            return self.latency

        if approx:
            block_no = self._block_no(addr)
            cms_size = self._block_cms_present(block_no)
            if cms_size:
                # Compressed hit: read the CMSs, decompress, fill DBUF.
                if count_breakdown:
                    self.stats.add("req_hit_compressed")
                self.stats.add("llc_hits")
                self.stats.add("decompressions")
                for off in range(cms_size):
                    self._touch(cms_key(block_no, off))
                self._load_dbuf(block_no, addr)
                self._insert(self._ucl_set(line_no), line_no, dirty=False)
                return self.latency + cms_size + DECOMPRESS_LATENCY_CYCLES

            # Full miss on approximate data.
            if count_breakdown:
                self.stats.add("req_miss")
            self.stats.add("llc_misses")
            return self._miss_approx(addr, block_no, line_no)

        # Exact data miss: conventional line fetch.
        self.stats.add("llc_misses")
        latency = self._dram(addr, 1, write=False, approx=False)
        self._insert(self._ucl_set(line_no), line_no, dirty=False)
        return self.latency + latency

    def _miss_approx(self, addr: int, block_no: int, line_no: int) -> int:
        size, block_addr = self._block_static_size(block_no)
        entry, cached = self.cmt.lookup_block(block_addr, size)
        if not cached:
            self.dram.transfer_partial(self.cmt.miss_traffic_bytes(), write=False)

        if not entry.compressed:
            # Uncompressed block: fetch just the requested line.
            latency = self._dram(addr, 1, write=False, approx=True)
            self._insert(self._ucl_set(line_no), line_no, dirty=False)
            return self.latency + latency

        # Fetch compressed block (+ any lazily evicted lines) from memory.
        lines = entry.size_cachelines + entry.lazy_count
        latency = self._dram(block_addr, lines, write=False, approx=True)
        self.stats.add("decompressions")
        dirty = False
        if entry.lazy_count:
            # Merged lazy lines: block recompressed on chip, marked dirty.
            self.stats.add("compressions")
            entry.lazy_count = 0
            entry.record_success(size)
            dirty = True
        for off in range(entry.size_cachelines):
            self._insert(
                self._cms_set(block_no, off), cms_key(block_no, off), dirty
            )
        self._load_dbuf(block_no, addr)
        self._insert(self._ucl_set(line_no), line_no, dirty=False)
        return self.latency + latency + DECOMPRESS_LATENCY_CYCLES

    def _load_dbuf(self, block_no: int, addr: int) -> None:
        line_off = (addr % BLOCK_BYTES) // CACHELINE_BYTES
        old_block = self.dbuf.block_addr
        prefetch = self.dbuf.load(block_no * BLOCK_BYTES, line_off)
        if prefetch and old_block is not None:
            self.stats.add("pfe_prefetches", len(prefetch))
            for off in prefetch:
                line = self._line_no(old_block + off * CACHELINE_BYTES)
                self._insert(self._ucl_set(line), line, dirty=False)

    def writeback(self, addr: int) -> int:
        """Accept a dirty line falling out of a core's L2."""
        line_no = self._line_no(addr)
        self.dbuf.note_requested(addr)
        if self.is_approx(addr):
            self._touch_block_cms(self._block_no(addr))
        self._insert(self._ucl_set(line_no), line_no, dirty=True)
        return self.latency

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> list[str]:
        """Structural invariants of the packed data array; [] if clean.

        * the key→slot index and the tag plane agree both ways;
        * no CMS entry exists at an offset at or beyond its block's
          static size (what licenses the size-bounded eviction sweep);
        * a resident CMS implies its block's CMS0 is resident (groups
          allocate and evict as a unit).
        """
        problems: list[str] = []
        for key, slot in self._slot_of.items():
            if self.tags[slot] != key:
                problems.append(f"index maps {key} to slot {slot} holding "
                                f"{self.tags[slot]}")
        occupied = sum(tag != EMPTY for tag in self.tags)
        if occupied != len(self._slot_of):
            problems.append(
                f"{occupied} occupied slots vs {len(self._slot_of)} index entries"
            )
        for key in self._slot_of:
            if key < EMPTY:
                block_no, off = decode_cms_key(key)
                size, _ = self._block_static_size(block_no)
                if off >= size:
                    problems.append(
                        f"CMS (block {block_no}, off {off}) resident beyond "
                        f"static size {size}"
                    )
                if cms_key(block_no, 0) not in self._slot_of:
                    problems.append(
                        f"CMS (block {block_no}, off {off}) resident "
                        "without CMS0"
                    )
        return problems

    @property
    def mpki_misses(self) -> int:
        return int(self.stats["llc_misses"])


# ======================================================================
# drivers
# ======================================================================
def reference_system(system: TimingSystem) -> TimingSystem:
    """A fresh machine of per-event twins of ``system``'s LLC and DRAM.

    Built from the system's design and config and from the LLC's
    construction inputs; ``system`` itself is left untouched.
    """
    dram = DRAMReference(system.dram.config, line_bytes=system.dram.line_bytes)
    llc = system.llc
    twin: AVRLLCReference | BaselineLLCReference
    if isinstance(llc, AVRLLC):
        twin = AVRLLCReference(
            llc.config,
            dram,
            llc.layout,
            enable_dbuf=llc.enable_dbuf,
            enable_lazy_eviction=llc.enable_lazy_eviction,
            enable_skip_counters=llc.enable_skip_counters,
            enable_cms_lru_refresh=llc.enable_cms_lru_refresh,
            pfe_threshold=llc.pfe_threshold,
        )
    elif isinstance(llc, BaselineLLC):
        twin = BaselineLLCReference(
            llc.config,
            dram,
            llc.layout,
            capacity_multiplier=llc.capacity_multiplier,
            approx_line_bytes=llc.approx_line_bytes,
        )
    else:
        raise TypeError(f"no per-event reference for {type(llc).__name__}")
    return TimingSystem(system.design, system.config, twin, dram)


def run_reference(system: TimingSystem, trace: GeneratedTrace) -> SimResult:
    """The original interleaved per-access replay loop.

    Replays ``trace`` access by access through per-event twins of every
    component (:func:`reference_system`) and finalizes through a
    :class:`~repro.system.simulator.TimingSystem` holding them, so the
    result is comparable field for field with ``system.run(trace)``.
    ``system`` is left untouched.
    """
    ref = reference_system(system)
    config = ref.config
    num_cores = len(trace.cores)
    cores = [IntervalCoreReference(config.core) for _ in range(num_cores)]
    privates = [PrivateCaches(config) for _ in range(num_cores)]

    positions = [0] * num_cores
    lengths = [len(t) for t in trace.cores]
    llc = ref.llc
    active = True
    while active:
        active = False
        for cid in range(num_cores):
            pos = positions[cid]
            end = min(pos + INTERLEAVE_CHUNK, lengths[cid])
            if pos >= end:
                continue
            active = True
            core = cores[cid]
            priv = privates[cid]
            records = trace.cores[cid][pos:end]
            for rec in records:
                addr = int(rec["addr"])
                write = bool(rec["write"])
                core.advance(int(rec["gap"]))
                latency, needs_llc, writebacks = priv.access(addr, write)
                if needs_llc:
                    latency += llc.read(addr)
                for wb_addr, _dirty in writebacks:
                    llc.writeback(wb_addr)
                core.memory_event(latency, l1_hit=not needs_llc and latency <= priv.l1.latency)
            positions[cid] = end

    return ref._finalize(
        trace,
        cores,
        l1_accesses=sum(p.l1.accesses for p in privates),
        l2_accesses=sum(p.l2.accesses for p in privates),
    )


@dataclass
class ReplayOutcome:
    """What :func:`replay_llc` observed (identical on both sides)."""

    #: per-event latency (reads; writeback slots hold 0)
    latencies: np.ndarray
    stats: dict[str, float]
    dram_stats: dict[str, float]
    #: the per-event twin after the replay, for checks on its state
    reference: Any


_TWINS: dict[type, type] = {
    AVRLLC: AVRLLCReference,
    BaselineLLC: BaselineLLCReference,
}


def replay_llc(
    llc_class: type,
    events: list[tuple[str, int]],
    config: CacheConfig,
    layout: AddressLayout,
    **options: Any,
) -> ReplayOutcome:
    """Replay ``events`` through a fresh LLC and through its twin.

    ``events`` is a list of ``("r", addr)`` demand reads and
    ``("w", addr)`` dirty writebacks.  A fresh ``llc_class`` (AVRLLC or
    BaselineLLC) built from ``config``, ``layout`` and ``options``
    replays the whole list in one ``replay_batch``; its per-event twin,
    built from the same inputs, replays it one ``read`` / ``writeback``
    at a time.  Asserts that the per-event read latencies, the LLC
    stats and the DRAM stats are equal, and returns them.
    """
    addrs = np.array([addr for _, addr in events], dtype=np.int64)
    is_read = np.array([kind == "r" for kind, _ in events], dtype=bool)
    llc = llc_class(config, DRAM(DRAMConfig()), layout, **options)
    twin = _TWINS[llc_class](config, DRAMReference(DRAMConfig()), layout, **options)
    latencies = llc.replay_batch(addrs, is_read)
    expected = np.zeros(len(events), dtype=np.int64)
    for i, (kind, addr) in enumerate(events):
        if kind == "r":
            expected[i] = twin.read(addr)
        else:
            twin.writeback(addr)
    assert latencies[is_read].tolist() == expected[is_read].tolist()
    assert llc.stats.as_dict() == twin.stats.as_dict()
    assert llc.dram.stats.as_dict() == twin.dram.stats.as_dict()
    assert llc.dram.channel_busy == twin.dram.channel_busy
    return ReplayOutcome(
        latencies=latencies,
        stats=dict(llc.stats.as_dict()),
        dram_stats=dict(llc.dram.stats.as_dict()),
        reference=twin,
    )


# ======================================================================
# trace synthesis
# ======================================================================
def _generate_core_reference(
    spec: TraceSpec,
    mem: ApproxMemory,
    core: int,
    num_cores: int,
    iterations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The historical per-(iteration, phase) fragment loop."""
    fragments: list[np.ndarray] = []
    for iteration in range(iterations):
        for phase in spec.phases:
            region = mem.region(phase.region)
            addrs = _phase_addresses(
                phase, region.base_addr, region.nbytes,
                iteration, spec.iterations, core, num_cores,
            )
            if addrs.size == 0:
                continue
            gaps = np.full(addrs.size, phase.gap, dtype=np.uint32)
            # Jitter gaps slightly so cores drift out of lockstep.
            gaps += rng.integers(0, _JITTER_BOUND, addrs.size, dtype=np.uint32)
            if phase.reads and phase.writes:
                # Read-modify-write sweep: emit a read and a write
                # per line (interleaved in program order).
                n = addrs.size
                both = np.empty(2 * n, dtype=TRACE_DTYPE)
                both["addr"][0::2] = addrs
                both["addr"][1::2] = addrs
                both["write"][0::2] = False
                both["write"][1::2] = True
                both["gap"][0::2] = gaps
                both["gap"][1::2] = 0
                fragments.append(both)
            else:
                fragments.append(
                    make_trace(
                        addrs,
                        np.full(addrs.size, phase.writes, dtype=np.bool_),
                        gaps,
                    )
                )
    return concat_traces(fragments)


def generate_trace_reference(
    spec: TraceSpec,
    mem: ApproxMemory,
    num_cores: int = 1,
    max_accesses_per_core: int = 300_000,
    seed: int = 0,
    per_core_streams: bool = False,
) -> GeneratedTrace:
    """:func:`repro.trace.generate_trace` built on the fragment loop.

    Same signature, same iteration budget and the same jitter-stream
    plumbing (one shared RNG, or one ``SeedSequence`` child per core);
    only the per-core synthesis differs.
    """
    iters_sim = budget_iterations(spec, mem, num_cores, max_accesses_per_core)
    if per_core_streams:
        rngs = [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(max(num_cores, 1))
        ]
    else:
        rngs = [np.random.default_rng(seed)] * num_cores
    return GeneratedTrace(
        cores=[
            _generate_core_reference(spec, mem, core, num_cores, iters_sim, rng)
            for core, rng in zip(range(num_cores), rngs)
        ],
        iterations_simulated=iters_sim,
        iterations_total=spec.iterations,
    )
