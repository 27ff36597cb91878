"""Test oracles: the reference implementations the fast paths replaced.

The package keeps one production path per layer: the batched timing
replay (:meth:`repro.system.TimingSystem.run`), the columnar trace
synthesis (:func:`repro.trace.generate_trace`) and the stacked
compressor pass (:meth:`repro.compression.AVRCompressor.compress_blocks`).
The slow, obviously correct implementations those paths were derived
from live here, where the differential suites
(``test_engine_equivalence.py``, ``test_array_lru.py``,
``test_trace_equivalence.py``, ``test_compressor_equivalence.py``,
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
  replay, the oracle of :meth:`repro.system.TimingSystem.run` on the
  trace's front end (:func:`replay`);
* :func:`compute_front_end_reference` — the private filter's masked
  two-slot L2 op stream and the sorted ``(n, 3)`` event staging, the
  oracle of :func:`repro.system.frontend.compute_front_end`
  (``test_frontend_equivalence.py``);
* :func:`replay_llc` — one LLC event list through a fresh package LLC
  and through its twin, asserting they agree (the LLC unit tests'
  driver);
* :func:`generate_trace_reference` — the per-(iteration, phase)
  fragment loop, the oracle of :func:`repro.trace.generate_trace`,
  built on :func:`make_trace` and :func:`concat_traces` (which the
  timing tests also use to hand-build traces).

The functional layer's compressor:

* :func:`compress_blocks_reference` — one pass per placement variant
  (downsample, gather-based reconstruction, :func:`detect_outliers`,
  :func:`block_average_error`) and a pairwise variant choice, the
  oracle of :meth:`repro.compression.AVRCompressor.compress_blocks`
  (``test_compressor_equivalence.py``);
* :func:`downsample_1d_reference` … :func:`reconstruct_2d_reference` —
  the index-table kernels, the oracles of the GEMM-based
  :mod:`repro.compression.downsample`;
* :func:`choose_biases_reference`, :func:`to_fixed_reference` and
  :func:`from_fixed_reference` — the biasing and the float/fixed
  conversions;
* :func:`exponent_bits` and :func:`mantissa_bits` — the float32 fields
  the reference checks read.

The compressed block's byte image (Fig. 2a), which no run builds: the
timing model charges only its size
(:func:`repro.compression.compressed_size_cachelines`).

* :class:`CompressedBlock` — pack/unpack of the summary cacheline, the
  outlier bitmap and the packed outliers, with the method and bias as
  CMT metadata; ``test_compressor_equivalence.py`` checks that every
  compressed block's image has the charged size and decompresses,
  through :meth:`repro.compression.AVRCompressor.decompress_blocks`, to
  the functional layer's reconstruction;
* :func:`pack_bitmap`, :func:`unpack_bitmap` and
  :func:`max_outliers_for_size` — the bitmap and the size budget.

The functional layer's workload kernels, each the per-step numpy loop
its workload's ``execute`` replaced, called as ``f(workload, mem)``
(``test_workload_equivalence.py``):

* :func:`orbit_execute_reference` — the leapfrog on 3-element arrays,
  one history and energy column written per step, the oracle of
  :meth:`repro.workloads.orbit.OrbitWorkload.execute`;
* :func:`lattice_execute_reference` — D2Q9 with a fresh array per
  operation, bounce-back through ``f[_OPPOSITE]``, 8 ``np.roll`` calls
  and the inflow equilibrium rebuilt every step, the oracle of
  :meth:`repro.workloads.lattice.LatticeWorkload.execute`;
* :func:`lbm_execute_reference` — the same D3Q19 loop with 18 rolls,
  the oracle of :meth:`repro.workloads.lbm.LbmWorkload.execute`.

These loops read lattice's ``macro`` and lbm's ``velocity`` for their
output without settling them, so they run under the eager memory:

* :class:`EagerApproxMemory` — :meth:`repro.approx.ApproxMemory.sync`
  approximating every approximable region at every sync, ``write_only``
  or not, the oracle of the deferred write-only round trip
  (``test_sync_equivalence.py``).  A test runs a workload under it by
  replacing ``repro.workloads.base.ApproxMemory``.

The functional layer's other two designs:

* :func:`dedup_roundtrip_reference` with :func:`line_signatures_reference`
  — Doppelgänger's round trip through numpy's row reductions and
  ``np.unique``, the oracle of :func:`repro.doppelganger.dedup_roundtrip`
  (``test_dedup_equivalence.py``);
* :func:`max_truncation_error` — the Truncate design's error bound
  (``test_truncate.py``).

The benchmarks import this module by putting ``tests/`` on
``sys.path``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from repro.common import bitops
from repro.common.config import CacheConfig, DRAMConfig, SystemConfig
from repro.common.constants import (
    BITMAP_BYTES,
    BLOCK_BYTES,
    BLOCK_CACHELINES,
    BLOCK_SIDE_2D,
    BLOCKS_PER_PAGE,
    CACHELINE_BYTES,
    CMT_ENTRY_BITS,
    DECOMPRESS_LATENCY_CYCLES,
    MAX_COMPRESSED_CACHELINES,
    MAX_FAILED_COUNT,
    MAX_SKIP_COUNT,
    PAGE_BYTES,
    SUBBLOCK_VALUES,
    SUMMARY_VALUES,
    TILE_SIDE_2D,
    TILES_PER_SIDE_2D,
    VALUE_BYTES,
    VALUES_PER_BLOCK,
    VALUES_PER_CACHELINE,
)
from repro.common.stats import StatCounter
from repro.common.types import CompressionMethod, DataType, ErrorThresholds
from repro.compression.compressor import (
    CHECK_MODES,
    AVRCompressor,
    BatchCompressionResult,
)
from repro.compression.errors import relative_error
from repro.compression.outliers import compressed_size_cachelines
from repro.compression.truncate import KEPT_MANTISSA_BITS
from repro.cpu.interval import IntervalCore
from repro.doppelganger import DedupStats
from repro.fixedpoint.bias import BIAS_FIELD_MAX, BIAS_FIELD_MIN, TARGET_MAX_EXPONENT
from repro.fixedpoint.convert import DEFAULT_FORMAT, FixedPointFormat
from repro.memory.dram import DRAM
from repro.system.frontend import (
    INTERLEAVE_CHUNK,
    TimingFrontEnd,
    compute_front_end,
)
from repro.system.layout import AddressLayout
from repro.system.simulator import SimResult, TimingSystem
from repro.trace.events import TRACE_DTYPE
from repro.trace.generator import (
    _JITTER_BOUND,
    GeneratedTrace,
    _phase_addresses,
    budget_iterations,
)
from repro.workloads import lattice as lattice_kernel
from repro.workloads import lbm as lbm_kernel
from repro.workloads import orbit as orbit_kernel
from repro.workloads.base import TraceSpec

__all__ = [
    "AVRLLCReference",
    "BaselineLLCReference",
    "CMT",
    "CMTEntryReference",
    "CompressedBlock",
    "DBUF",
    "DRAMReference",
    "IntervalCoreReference",
    "PrivateCaches",
    "ReplayOutcome",
    "SetAssocCache",
    "block_average_error",
    "block_scale",
    "block_size_of",
    "choose_biases_reference",
    "cms_key",
    "compress_blocks_reference",
    "concat_traces",
    "decode_cms_key",
    "detect_outliers",
    "downsample_1d_reference",
    "downsample_2d_reference",
    "exponent_bits",
    "from_fixed_reference",
    "generate_trace_reference",
    "is_approx",
    "lattice_execute_reference",
    "lbm_execute_reference",
    "make_trace",
    "mantissa_bits",
    "mantissa_error_within",
    "matrix_lru_state",
    "max_outliers_for_size",
    "orbit_execute_reference",
    "pack_bitmap",
    "reconstruct_1d_reference",
    "reconstruct_2d_reference",
    "reference_system",
    "replay_llc",
    "run_reference",
    "to_fixed_reference",
    "unpack_bitmap",
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


def replay(system: TimingSystem, trace: GeneratedTrace) -> SimResult:
    """The production replay of ``trace``: its front end, then ``run``."""
    return system.run(compute_front_end(trace, system.config))


def run_reference(system: TimingSystem, trace: GeneratedTrace) -> SimResult:
    """The original interleaved per-access replay loop.

    Replays ``trace`` access by access through per-event twins of every
    component (:func:`reference_system`) and finalizes through a
    :class:`~repro.system.simulator.TimingSystem` holding them, so the
    result is comparable field for field with :func:`replay`'s.
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
        trace.scale_factor,
        cores,
        l1_accesses=sum(p.l1.accesses for p in privates),
        l2_accesses=sum(p.l2.accesses for p in privates),
    )


def compute_front_end_reference(
    trace: GeneratedTrace, config: SystemConfig
) -> TimingFrontEnd:
    """The front end through staged arrays, masks and a sort.

    The oracle of :func:`repro.system.frontend.compute_front_end`.  The
    private filter lays out two L2 op slots per L1 miss, compacts them
    with a mask, and scatters the L2 outcomes back into four per-access
    writeback columns.  The interleave stages each access's three event
    slots in ``(n, 3)`` matrices and stable-sorts the kept ones by their
    chunk key.
    """
    num_cores = len(trace.cores)
    core_ids, addrs, writes, gaps, offsets = trace.concatenated()
    n = int(addrs.size)
    l1_sets, l2_sets = config.l1.num_sets, config.l2.num_sets
    l1_shift = config.l1.line_bytes.bit_length() - 1
    l2_shift = config.l2.line_bytes.bit_length() - 1
    l1 = BatchedLRUMatrix(l1_sets * num_cores, config.l1.ways)
    l2 = BatchedLRUMatrix(l2_sets * num_cores, config.l2.ways)

    # --- L1: every access
    line1 = addrs >> l1_shift
    set1 = line1 % l1_sets + core_ids * l1_sets
    hit1, v1_line, v1_dirty = l1.replay(set1, line1, writes)

    # --- L2 op stream: for each L1 miss, install the L1 victim (clean
    # or dirty), then the demand access
    miss_ids = np.flatnonzero(~hit1)
    k = int(miss_ids.size)
    op_addr = np.empty(2 * k, dtype=np.int64)
    op_addr[0::2] = v1_line[miss_ids] << l1_shift
    op_addr[1::2] = addrs[miss_ids]
    op_flag = np.zeros(2 * k, dtype=bool)
    op_flag[0::2] = v1_dirty[miss_ids]
    op_is_access = np.zeros(2 * k, dtype=bool)
    op_is_access[1::2] = True
    op_access_id = np.repeat(miss_ids, 2)
    op_core = np.repeat(core_ids[miss_ids], 2)
    valid = np.ones(2 * k, dtype=bool)
    valid[0::2] = v1_line[miss_ids] != EMPTY   # not every miss evicts
    op_addr, op_flag, op_is_access = (
        op_addr[valid], op_flag[valid], op_is_access[valid]
    )
    op_access_id, op_core = op_access_id[valid], op_core[valid]

    line2 = op_addr >> l2_shift
    set2 = line2 % l2_sets + op_core * l2_sets
    hit2, v2_line, v2_dirty = l2.replay(
        set2, line2, op_flag, is_access=op_is_access
    )

    # --- scatter L2 outcomes back to their accesses
    needs_llc = np.zeros(n, dtype=bool)
    acc = op_is_access
    needs_llc[op_access_id[acc]] = ~hit2[acc]

    v2_addr = v2_line << l2_shift
    wb_valid = (v2_line != EMPTY) & v2_dirty
    wb_insert_addr = np.zeros(n, dtype=np.int64)
    wb_insert_valid = np.zeros(n, dtype=bool)
    wb_access_addr = np.zeros(n, dtype=np.int64)
    wb_access_valid = np.zeros(n, dtype=bool)
    ins = ~acc
    wb_insert_addr[op_access_id[ins]] = v2_addr[ins]
    wb_insert_valid[op_access_id[ins]] = wb_valid[ins]
    wb_access_addr[op_access_id[acc]] = v2_addr[acc]
    wb_access_valid[op_access_id[acc]] = wb_valid[acc]

    # --- chunk interleave: pass k handles accesses [12k, 12k+12) of
    # core 0, then of core 1, ...; within one access: demand read, then
    # the insert-victim writeback, then the access-victim writeback
    per_core_idx = np.arange(n, dtype=np.int64) - offsets[core_ids]
    chunk_key = (per_core_idx // INTERLEAVE_CHUNK) * num_cores + core_ids

    ev_valid = np.empty((n, 3), dtype=bool)
    ev_valid[:, 0] = needs_llc
    ev_valid[:, 1] = wb_insert_valid
    ev_valid[:, 2] = wb_access_valid
    ev_addr = np.empty((n, 3), dtype=np.int64)
    ev_addr[:, 0] = addrs
    ev_addr[:, 1] = wb_insert_addr
    ev_addr[:, 2] = wb_access_addr
    ev_is_read = np.zeros((n, 3), dtype=bool)
    ev_is_read[:, 0] = True

    mask = ev_valid.ravel()
    # Stable sort: equal keys (same chunk pass, same core) keep the
    # flattened row-major order, i.e. per-core access/slot order.
    order = np.argsort(np.repeat(chunk_key, 3)[mask], kind="stable")
    return TimingFrontEnd(
        offsets=offsets,
        gap=gaps,
        l1_hit=hit1,
        needs_llc=needs_llc,
        event_addr=ev_addr.ravel()[mask][order],
        event_is_read=ev_is_read.ravel()[mask][order],
        event_access=np.repeat(np.arange(n, dtype=np.int64), 3)[mask][order],
        iterations_simulated=trace.iterations_simulated,
        iterations_total=trace.iterations_total,
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
def make_trace(
    addrs: np.ndarray, writes: np.ndarray, gaps: np.ndarray
) -> np.ndarray:
    """Assemble a trace array from parallel field arrays."""
    n = len(addrs)
    if len(writes) != n or len(gaps) != n:
        raise ValueError("field arrays must have equal length")
    out = np.empty(n, dtype=TRACE_DTYPE)
    out["addr"] = addrs
    out["write"] = writes
    out["gap"] = gaps
    return out


def concat_traces(traces: list[np.ndarray]) -> np.ndarray:
    """Concatenate trace fragments in program order."""
    if not traces:
        return np.empty(0, dtype=TRACE_DTYPE)
    return np.concatenate(traces)


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
) -> GeneratedTrace:
    """:func:`repro.trace.generate_trace` built on the fragment loop.

    Same signature, same iteration budget and the same jitter stream
    (one RNG shared by the cores, in core order); only the per-core
    synthesis differs.
    """
    iters_sim = budget_iterations(spec, mem, num_cores, max_accesses_per_core)
    rng = np.random.default_rng(seed)
    return GeneratedTrace(
        cores=[
            _generate_core_reference(spec, mem, core, num_cores, iters_sim, rng)
            for core in range(num_cores)
        ],
        iterations_simulated=iters_sim,
        iterations_total=spec.iterations,
    )


# ======================================================================
# the compressor
# ======================================================================
def _build_1d_tables_reference() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left/right summary indices and right-weights for 1D reconstruction.

    Segment ``i`` covers positions ``[16i, 16i+15]`` with center at
    ``16i + 7.5``.  In half-units (x2), centers sit at ``32i + 15`` and
    positions at ``2p``; neighbor centers are 32 half-units apart, so
    the right-weight numerator ``d`` is in ``[-15, 47]`` and the
    division is a shift by 5 (negative / >32 weights extrapolate past
    the outermost centers).
    """
    pos = 2 * np.arange(VALUES_PER_BLOCK)
    centers = 32 * np.arange(SUMMARY_VALUES) + 15
    left = np.clip((pos - 15) // 32, 0, SUMMARY_VALUES - 2)
    right = left + 1
    d = pos - centers[left]
    return left.astype(np.intp), right.astype(np.intp), d.astype(np.int64)


def _build_2d_tables_reference() -> tuple[np.ndarray, ...]:
    """Index/weight tables for bilinear 2D reconstruction.

    Tile ``(i, j)`` covers rows ``[4i, 4i+3]`` with center row
    ``4i + 1.5`` (8i + 3 in half-units); positions are ``2r``.  Centers
    are 8 half-units apart so per-axis weights are in ``[-3, 11]`` and
    the combined bilinear division is a shift by 6.
    """
    coord = 2 * np.arange(BLOCK_SIDE_2D)
    centers = 8 * np.arange(TILES_PER_SIDE_2D) + 3
    low = np.clip((coord - 3) // 8, 0, TILES_PER_SIDE_2D - 2)
    high = low + 1
    d = coord - centers[low]

    rows = np.repeat(np.arange(BLOCK_SIDE_2D), BLOCK_SIDE_2D)
    cols = np.tile(np.arange(BLOCK_SIDE_2D), BLOCK_SIDE_2D)
    r_lo, r_hi, r_d = low[rows], high[rows], d[rows]
    c_lo, c_hi, c_d = low[cols], high[cols], d[cols]
    idx00 = r_lo * TILES_PER_SIDE_2D + c_lo
    idx01 = r_lo * TILES_PER_SIDE_2D + c_hi
    idx10 = r_hi * TILES_PER_SIDE_2D + c_lo
    idx11 = r_hi * TILES_PER_SIDE_2D + c_hi
    return (
        idx00.astype(np.intp),
        idx01.astype(np.intp),
        idx10.astype(np.intp),
        idx11.astype(np.intp),
        r_d.astype(np.int64),
        c_d.astype(np.int64),
    )


_L1D, _R1D, _D1D = _build_1d_tables_reference()
_I00, _I01, _I10, _I11, _RD, _CD = _build_2d_tables_reference()


def downsample_1d_reference(blocks: np.ndarray) -> np.ndarray:
    """Average each run of 16 consecutive values -> (nblocks, 16) int32."""
    blocks = np.asarray(blocks).astype(np.int64, copy=False)
    sums = blocks.reshape(-1, SUMMARY_VALUES, SUBBLOCK_VALUES).sum(axis=2)
    return ((sums + SUBBLOCK_VALUES // 2) >> 4).astype(np.int32)


def downsample_2d_reference(blocks: np.ndarray) -> np.ndarray:
    """Average each 4x4 tile of the 16x16 view -> (nblocks, 16) int32."""
    blocks = np.asarray(blocks).astype(np.int64, copy=False)
    grid = blocks.reshape(
        -1, TILES_PER_SIDE_2D, TILE_SIDE_2D, TILES_PER_SIDE_2D, TILE_SIDE_2D
    )
    sums = grid.sum(axis=(2, 4))
    return (
        ((sums + SUBBLOCK_VALUES // 2) >> 4).reshape(-1, SUMMARY_VALUES).astype(np.int32)
    )


def reconstruct_1d_reference(summaries: np.ndarray) -> np.ndarray:
    """Linear interpolation by gathering both neighbours of every value."""
    s = np.asarray(summaries, dtype=np.int64)
    left, right = s[:, _L1D], s[:, _R1D]
    out = (left * (32 - _D1D) + right * _D1D + 16) >> 5
    return np.clip(out, -(2**31), 2**31 - 1).astype(np.int32)


def reconstruct_2d_reference(summaries: np.ndarray) -> np.ndarray:
    """Bilinear interpolation by gathering 4 summary values per value."""
    s = np.asarray(summaries, dtype=np.int64)
    v00, v01 = s[:, _I00], s[:, _I01]
    v10, v11 = s[:, _I10], s[:, _I11]
    top = v00 * (8 - _CD) + v01 * _CD
    bot = v10 * (8 - _CD) + v11 * _CD
    out = (top * (8 - _RD) + bot * _RD + 32) >> 6
    return np.clip(out, -(2**31), 2**31 - 1).astype(np.int32)


_METHOD_KERNELS_REFERENCE = {
    CompressionMethod.DOWNSAMPLE_1D: (downsample_1d_reference, reconstruct_1d_reference),
    CompressionMethod.DOWNSAMPLE_2D: (downsample_2d_reference, reconstruct_2d_reference),
}


def exponent_bits(values: np.ndarray) -> np.ndarray:
    """Raw (biased) 8-bit exponent field of each float32 value."""
    fields = bitops.as_bits(values) >> np.uint32(bitops.EXP_SHIFT)
    return (fields & bitops.EXP_MASK).astype(np.int16)


def mantissa_bits(values: np.ndarray) -> np.ndarray:
    """23-bit mantissa field of each float32 value as uint32."""
    return bitops.as_bits(values) & bitops.MANTISSA_MASK


def block_scale(original: np.ndarray) -> np.ndarray:
    """Per-block value scale: the largest finite magnitude, as a column."""
    mags = np.abs(np.asarray(original, dtype=np.float64))
    mags = np.where(np.isfinite(mags), mags, 0.0)
    return np.maximum(mags.max(axis=1, keepdims=True), 1e-30)


def mantissa_error_within(
    original: np.ndarray, approx: np.ndarray, n_msbit: int
) -> np.ndarray:
    """The paper's per-value outlier test, vectorized (the hardware check
    of :func:`detect_outliers`).

    A value is approximated within relative error ``1 / 2**n_msbit``
    when (i) sign and exponent fields match exactly and (ii) the
    mantissa difference does not reach the ``n_msbit``-th most
    significant mantissa bit.  Returns a boolean array, True where the
    approximation is acceptable.
    """
    if not 1 <= n_msbit <= 23:
        raise ValueError(f"n_msbit must be in [1, 23], got {n_msbit}")
    ob, ab = bitops.as_bits(original), bitops.as_bits(approx)
    shift = np.uint32(bitops.EXP_SHIFT)
    same_sign_exp = (ob >> shift) == (ab >> shift)
    om = (ob & bitops.MANTISSA_MASK).astype(np.int32)
    am = (ab & bitops.MANTISSA_MASK).astype(np.int32)
    diff = np.abs(om - am)
    # Error below 1/2^N <=> difference confined below bit (23 - N).
    limit = np.int32(1) << np.int32(23 - n_msbit)
    return same_sign_exp & (diff < limit)


def detect_outliers(
    original: np.ndarray,
    reconstructed: np.ndarray,
    thresholds: ErrorThresholds,
    mode: str = "hybrid",
) -> np.ndarray:
    """Boolean mask (nblocks, 256): True where a value is an outlier.

    ``"hardware"`` is the paper's sign/exponent/mantissa comparison,
    ``"relative"`` the exact relative error against T1, and
    ``"hybrid"`` passes a value that passes the float check *or* lies
    within T1 of the block's value scale.
    """
    if mode not in CHECK_MODES:
        raise ValueError(f"unknown check mode {mode!r}; expected one of {CHECK_MODES}")
    if mode in ("hardware", "hybrid"):
        n = bitops.n_msbit_for_threshold(thresholds.t1)
        ok = mantissa_error_within(
            np.asarray(original, np.float32), np.asarray(reconstructed, np.float32), n
        )
        if mode == "hybrid":
            abs_err = np.abs(
                np.asarray(reconstructed, np.float64) - np.asarray(original, np.float64)
            )
            ok = ok | (abs_err <= thresholds.t1 * block_scale(original))
        return ~ok
    return relative_error(original, reconstructed) > thresholds.t1


def block_average_error(
    original: np.ndarray,
    reconstructed: np.ndarray,
    outliers: np.ndarray,
    mode: str = "hybrid",
) -> np.ndarray:
    """Average relative error per block over *non-outlier* values.

    Blocks where every value is an outlier score 0.  In hybrid mode
    each value's error is the smaller of its relative error and its
    block-scaled absolute error.
    """
    if mode not in CHECK_MODES:
        raise ValueError(f"unknown check mode {mode!r}; expected one of {CHECK_MODES}")
    if mode == "hardware":
        om = mantissa_bits(np.asarray(original, np.float32)).astype(np.int64)
        am = mantissa_bits(np.asarray(reconstructed, np.float32)).astype(np.int64)
        err = np.abs(om - am) / float(1 << 23)
    else:
        err = relative_error(original, reconstructed)
        if mode == "hybrid":
            abs_err = np.abs(
                np.asarray(reconstructed, np.float64) - np.asarray(original, np.float64)
            )
            err = np.minimum(err, abs_err / block_scale(original))
    keep = ~outliers
    counts = keep.sum(axis=1)
    sums = np.where(keep, err, 0.0).sum(axis=1)
    return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)


def choose_biases_reference(blocks: np.ndarray) -> np.ndarray:
    """Per-block exponent bias, 0 where biasing is skipped."""
    exps = exponent_bits(blocks)
    special = (exps == bitops.EXP_MAX).any(axis=1)
    nonzero = exps > 0
    has_nonzero = nonzero.any(axis=1)
    maxe = np.where(nonzero, exps, np.int16(-1)).max(axis=1).astype(np.int32)
    mine = np.where(nonzero, exps, np.int16(999)).min(axis=1).astype(np.int32)
    bias = TARGET_MAX_EXPONENT - maxe
    valid = (
        has_nonzero
        & ~special
        & (mine + bias >= 1)
        & (maxe + bias <= 254)
        & (bias >= BIAS_FIELD_MIN)
        & (bias <= BIAS_FIELD_MAX)
    )
    return np.where(valid, bias, 0).astype(np.int16)


def to_fixed_reference(
    blocks: np.ndarray, bias: np.ndarray, fmt: FixedPointFormat = DEFAULT_FORMAT
) -> np.ndarray:
    """Bias and convert float32 blocks to fixed point (saturating)."""
    biased = np.ldexp(blocks.astype(np.float64), bias[:, None])
    scaled = np.rint(biased * fmt.scale)
    clipped = np.clip(
        np.nan_to_num(scaled, nan=0.0, posinf=fmt.max_int, neginf=fmt.min_int),
        fmt.min_int,
        fmt.max_int,
    )
    return clipped.astype(np.int32)


def from_fixed_reference(
    fixed: np.ndarray, bias: np.ndarray, fmt: FixedPointFormat = DEFAULT_FORMAT
) -> np.ndarray:
    """Convert fixed point back to float32 and remove the bias."""
    values = fixed.astype(np.float64) / fmt.scale
    return np.ldexp(values, -bias[:, None]).astype(np.float32)


def _compress_float_reference(
    comp: AVRCompressor, blocks: np.ndarray
) -> BatchCompressionResult:
    if comp.enable_bias:
        bias = choose_biases_reference(blocks)
    else:
        bias = np.zeros(blocks.shape[0], dtype=np.int16)
    fixed = to_fixed_reference(blocks, bias, comp.fmt)

    candidates = []
    for method in comp.methods:
        down, recon = _METHOD_KERNELS_REFERENCE[method]
        summary = down(fixed)
        recon_f = from_fixed_reference(recon(summary), bias, comp.fmt)
        mask = detect_outliers(blocks, recon_f, comp.thresholds, comp.check_mode)
        counts = mask.sum(axis=1).astype(np.int32)
        sizes = compressed_size_cachelines(counts)
        avg = block_average_error(blocks, recon_f, mask, comp.check_mode)
        candidates.append((method, summary, recon_f, mask, counts, sizes, avg))

    return _select_and_finalize_reference(comp, blocks, bias, candidates)


def _compress_fixed_reference(
    comp: AVRCompressor, blocks: np.ndarray
) -> BatchCompressionResult:
    """Fixed-point path: no biasing or format conversion, relative check."""
    bias = np.zeros(blocks.shape[0], dtype=np.int16)
    as_float = blocks.astype(np.float64)

    candidates = []
    for method in comp.methods:
        down, recon = _METHOD_KERNELS_REFERENCE[method]
        summary = down(blocks)
        recon_i = recon(summary)
        err = relative_error(as_float, recon_i.astype(np.float64))
        mask = err > comp.thresholds.t1
        counts = mask.sum(axis=1).astype(np.int32)
        sizes = compressed_size_cachelines(counts)
        keep = ~mask
        kcount = np.maximum(keep.sum(axis=1), 1)
        avg = np.where(keep, err, 0.0).sum(axis=1) / kcount
        candidates.append((method, summary, recon_i, mask, counts, sizes, avg))

    return _select_and_finalize_reference(comp, blocks, bias, candidates)


def _select_and_finalize_reference(
    comp: AVRCompressor, blocks: np.ndarray, bias: np.ndarray, candidates: list[Any]
) -> BatchCompressionResult:
    """Pick the best variant per block and apply the T2/size checks.

    Preference: smaller compressed size, ties broken on average error.
    """
    m1, s1, r1, o1, c1, z1, e1 = candidates[0]
    method = np.full(blocks.shape[0], np.uint8(m1))
    summaries, recon, mask = s1, r1, o1
    counts, sizes, avg = c1, z1.astype(np.int32), e1
    for m2, s2, r2, o2, c2, z2, e2 in candidates[1:]:
        use2 = (z2 < sizes) | ((z2 == sizes) & (e2 < avg))
        method = np.where(use2, np.uint8(m2), method)
        summaries = np.where(use2[:, None], s2, summaries)
        recon = np.where(use2[:, None], r2, recon)
        mask = np.where(use2[:, None], o2, mask)
        counts = np.where(use2, c2, counts)
        sizes = np.where(use2, z2, sizes).astype(np.int32)
        avg = np.where(use2, e2, avg)

    success = (sizes <= MAX_COMPRESSED_CACHELINES) & (avg <= comp.thresholds.t2)
    sizes = np.where(success, sizes, BLOCK_CACHELINES).astype(np.int32)
    method = np.where(success, method, np.uint8(CompressionMethod.UNCOMPRESSED))
    bias = np.where(success, bias, 0).astype(np.int16)

    reconstructed = np.where(mask | ~success[:, None], blocks, recon)
    counts = np.where(success, counts, 0).astype(np.int32)
    mask = mask & success[:, None]

    return BatchCompressionResult(
        success=success,
        method=method.astype(np.uint8),
        bias=bias,
        size_cachelines=sizes,
        outlier_count=counts,
        avg_error=avg,
        reconstructed=reconstructed,
        summaries=summaries.astype(np.int32),
        outlier_mask=mask,
    )


def compress_blocks_reference(
    comp: AVRCompressor, blocks: np.ndarray, dtype: DataType = DataType.FLOAT32
) -> BatchCompressionResult:
    """:meth:`AVRCompressor.compress_blocks` as one pass per variant.

    Every variant runs its own downsample, gather-based reconstruction,
    outlier check and block average error, each rebuilding the batch's
    float64 original and block scale; the variants are then chosen
    pairwise in ``comp.methods`` order.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 2 or blocks.shape[1] != VALUES_PER_BLOCK:
        raise ValueError(f"expected (nblocks, {VALUES_PER_BLOCK}), got {blocks.shape}")
    if dtype == DataType.FLOAT32:
        return _compress_float_reference(comp, blocks.astype(np.float32, copy=False))
    return _compress_fixed_reference(comp, blocks.astype(np.int32, copy=False))


# ======================================================================
# the compressed block's byte image (Fig. 2a)
# ======================================================================
def pack_bitmap(outliers: np.ndarray) -> np.ndarray:
    """Pack a (nblocks, 256) boolean mask into (nblocks, 32) bytes."""
    outliers = np.asarray(outliers, dtype=bool)
    if outliers.ndim != 2 or outliers.shape[1] != VALUES_PER_BLOCK:
        raise ValueError(f"expected (nblocks, {VALUES_PER_BLOCK}), got {outliers.shape}")
    packed = np.packbits(outliers, axis=1)
    assert packed.shape[1] == BITMAP_BYTES
    return packed


def unpack_bitmap(packed: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_bitmap`."""
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 2 or packed.shape[1] != BITMAP_BYTES:
        raise ValueError(f"expected (nblocks, {BITMAP_BYTES}), got {packed.shape}")
    return np.unpackbits(packed, axis=1).astype(bool)


def max_outliers_for_size(size_cachelines: int = MAX_COMPRESSED_CACHELINES) -> int:
    """Largest outlier count that still fits in ``size_cachelines``."""
    budget = size_cachelines * CACHELINE_BYTES - CACHELINE_BYTES - BITMAP_BYTES
    return max(0, budget // VALUE_BYTES)


@dataclass
class CompressedBlock:
    """One compressed 1 KB block and its byte image in main memory.

    The block occupies 1-8 cachelines of its 16-cacheline slot:

    * cacheline 0 — the 16-value summary (int32 fixed point,
      exponent-biased);
    * cacheline 1, first half — the 256-bit outlier bitmap (only
      present when there are outliers);
    * the packed 32-bit outlier values follow, in block order;
    * the remaining cachelines of the slot stay free for lazily evicted
      uncompressed cachelines.

    ``method`` and ``bias`` live in the block's CMT entry, not in the
    image, so :meth:`unpack` takes them as arguments, as the hardware
    consults the CMT before decompressing.
    """

    method: CompressionMethod
    bias: int
    summary: np.ndarray  # (16,) int32
    outlier_mask: np.ndarray = field(
        default_factory=lambda: np.zeros(VALUES_PER_BLOCK, dtype=bool)
    )
    outlier_bits: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.uint32)
    )  # raw 32-bit images of outlier values, in block order

    def __post_init__(self) -> None:
        self.summary = np.asarray(self.summary, dtype=np.int32)
        if self.summary.shape != (SUMMARY_VALUES,):
            raise ValueError(f"summary must have shape ({SUMMARY_VALUES},)")
        self.outlier_mask = np.asarray(self.outlier_mask, dtype=bool)
        if self.outlier_mask.shape != (VALUES_PER_BLOCK,):
            raise ValueError(f"outlier_mask must have shape ({VALUES_PER_BLOCK},)")
        self.outlier_bits = np.asarray(self.outlier_bits, dtype=np.uint32)
        if int(self.outlier_mask.sum()) != self.outlier_bits.size:
            raise ValueError(
                f"bitmap marks {int(self.outlier_mask.sum())} outliers but "
                f"{self.outlier_bits.size} values supplied"
            )
        if self.method == CompressionMethod.UNCOMPRESSED:
            raise ValueError("a CompressedBlock cannot have method UNCOMPRESSED")

    @property
    def outlier_count(self) -> int:
        return int(self.outlier_bits.size)

    @property
    def size_cachelines(self) -> int:
        """Cachelines the image occupies in its memory slot (1-8).

        Counted from the layout itself, not with the package's
        :func:`~repro.compression.compressed_size_cachelines`, so the
        two can be compared.
        """
        if not self.outlier_count:
            return 1
        payload = CACHELINE_BYTES + BITMAP_BYTES + VALUE_BYTES * self.outlier_count
        return -(-payload // CACHELINE_BYTES)

    @property
    def free_cachelines(self) -> int:
        """Cachelines left in the 1 KB slot for lazy evictions."""
        return BLOCK_CACHELINES - self.size_cachelines

    def pack(self) -> bytes:
        """Serialize to the byte image stored in main memory."""
        buf = np.zeros(self.size_cachelines * CACHELINE_BYTES, dtype=np.uint8)
        buf[:CACHELINE_BYTES] = self.summary.view(np.uint8)
        if self.outlier_count:
            bitmap = pack_bitmap(self.outlier_mask[None, :])[0]
            buf[CACHELINE_BYTES : CACHELINE_BYTES + BITMAP_BYTES] = bitmap
            start = CACHELINE_BYTES + BITMAP_BYTES
            raw = self.outlier_bits.view(np.uint8)
            buf[start : start + raw.size] = raw
        return buf.tobytes()

    @classmethod
    def unpack(
        cls,
        data: bytes,
        method: CompressionMethod,
        bias: int,
        size_cachelines: int,
    ) -> CompressedBlock:
        """Rebuild a block from its byte image plus its CMT metadata."""
        if size_cachelines < 1:
            raise ValueError("compressed block needs at least one cacheline")
        if len(data) < size_cachelines * CACHELINE_BYTES:
            raise ValueError(
                f"image too short: {len(data)} bytes for {size_cachelines} CLs"
            )
        buf = np.frombuffer(data, dtype=np.uint8, count=size_cachelines * CACHELINE_BYTES)
        summary = buf[:CACHELINE_BYTES].view(np.int32).copy()
        if size_cachelines == 1:
            return cls(method=method, bias=bias, summary=summary)
        bitmap = buf[CACHELINE_BYTES : CACHELINE_BYTES + BITMAP_BYTES]
        mask = unpack_bitmap(bitmap[None, :])[0]
        count = int(mask.sum())
        start = CACHELINE_BYTES + BITMAP_BYTES
        bits = buf[start : start + count * VALUE_BYTES].view(np.uint32).copy()
        return cls(
            method=method, bias=bias, summary=summary,
            outlier_mask=mask, outlier_bits=bits,
        )


# ======================================================================
# workload kernels: the per-step numpy loops and the eager memory
# ======================================================================
class EagerApproxMemory(ApproxMemory):
    """:class:`ApproxMemory` with every round trip applied at its sync.

    ``sync`` approximates every approximable region it names, declared
    ``write_only`` or not, so :meth:`ApproxMemory.settle` never finds
    one pending.
    """

    def sync(self, names: list[str] | None = None) -> None:
        targets = names if names is not None else list(self.regions)
        for name in targets:
            region = self.regions[name]
            if not region.approx:
                continue
            stats = self.approximator.apply(region)
            report = self.reports[name]
            report.syncs += 1
            report.last = stats
        self.sync_count += 1


def orbit_execute_reference(
    workload: orbit_kernel.OrbitWorkload, mem: ApproxMemory
) -> tuple[np.ndarray, int]:
    """:meth:`OrbitWorkload.execute` as a per-step loop on numpy arrays."""
    G, M1, M2 = orbit_kernel.G, orbit_kernel.M1, orbit_kernel.M2
    pos_h = mem.region("pos_history").array
    vel_h = mem.region("vel_history").array
    energy = mem.region("energy_log").array

    r1 = np.array([0.5, 0.0, 0.02])
    r2 = np.array([-0.5, 0.0, -0.02])
    v_circ = np.sqrt(G * (M1 + M2) / np.linalg.norm(r1 - r2)) / 2.0
    v1 = np.array([0.0, 0.9 * v_circ, 0.0])
    v2 = np.array([0.0, -0.9 * v_circ, 0.0])

    def accel(r1: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = r2 - r1
        dist3 = np.linalg.norm(d) ** 3
        return G * M2 * d / dist3, -G * M1 * d / dist3

    a1, a2 = accel(r1, r2)
    for step in range(workload.steps):
        v1 += 0.5 * workload.dt * a1
        v2 += 0.5 * workload.dt * a2
        r1 += workload.dt * v1
        r2 += workload.dt * v2
        a1, a2 = accel(r1, r2)
        v1 += 0.5 * workload.dt * a1
        v2 += 0.5 * workload.dt * a2

        pos_h[:3, step] = r1
        pos_h[3:, step] = r2
        vel_h[:3, step] = v1
        vel_h[3:, step] = v2
        kinetic = 0.5 * (M1 * (v1**2).sum() + M2 * (v2**2).sum())
        potential = -G * M1 * M2 / np.linalg.norm(r1 - r2)
        energy[:, step] = (kinetic, potential)

        if (step + 1) % workload.CHUNK == 0:
            mem.sync(["pos_history", "vel_history"])

    output = np.concatenate([pos_h.ravel(), vel_h.ravel()])
    return output, workload.steps


def lattice_execute_reference(
    workload: lattice_kernel.LatticeWorkload, mem: ApproxMemory
) -> tuple[np.ndarray, int]:
    """:meth:`LatticeWorkload.execute` with a fresh array per operation."""
    ex, ey, opposite = lattice_kernel._EX, lattice_kernel._EY, lattice_kernel._OPPOSITE
    equilibrium = lattice_kernel.equilibrium
    f = mem.region("f").array
    macro = mem.region("macro").array
    mask = workload.mask
    for _ in range(workload.steps):
        rho = f.sum(axis=0)
        inv_rho = 1.0 / np.maximum(rho, 1e-6)
        ux = (f * ex[:, None, None]).sum(axis=0) * inv_rho
        uy = (f * ey[:, None, None]).sum(axis=0) * inv_rho

        ux[:, 0] = workload.U_INFLOW
        uy[:, 0] = 0.0
        rho[:, 0] = 1.0

        feq = equilibrium(rho, ux, uy)
        f += workload.OMEGA * (feq - f)

        f[:, mask] = f[opposite][:, mask]

        for i in range(1, 9):
            f[i] = np.roll(f[i], (int(ey[i]), int(ex[i])), axis=(0, 1))
        f[:, :, 0] = equilibrium(
            np.ones(workload.ny, dtype=np.float32)[:, None],
            np.full((workload.ny, 1), workload.U_INFLOW, dtype=np.float32),
            np.zeros((workload.ny, 1), dtype=np.float32),
        )[:, :, 0]
        f[:, :, -1] = f[:, :, -2]

        macro[0], macro[1], macro[2] = rho, ux, uy
        mem.sync(["f", "macro"])

    speed = np.sqrt(macro[1] ** 2 + macro[2] ** 2)
    pressure = macro[0] / 3.0
    return np.stack([speed, pressure]), workload.steps


def lbm_execute_reference(
    workload: lbm_kernel.LbmWorkload, mem: ApproxMemory
) -> tuple[np.ndarray, int]:
    """:meth:`LbmWorkload.execute` with a fresh array per operation."""
    e, opposite = lbm_kernel._E, lbm_kernel._OPPOSITE
    equilibrium_3d = lbm_kernel.equilibrium_3d
    f = mem.region("f").array
    velocity = mem.region("velocity").array
    mask = workload.mask
    for _ in range(workload.steps):
        rho = f.sum(axis=0)
        inv_rho = 1.0 / np.maximum(rho, 1e-6)
        u = np.tensordot(e.T.astype(np.float32), f, axes=([1], [0])) * inv_rho[None]

        u[:, :, :, 0] = 0.0
        u[0, :, :, 0] = workload.U_INFLOW
        rho[:, :, 0] = 1.0

        feq = equilibrium_3d(rho, u)
        f += workload.OMEGA * (feq - f)
        f[:, mask] = f[opposite][:, mask]

        for i in range(1, 19):
            shift = (int(e[i, 2]), int(e[i, 1]), int(e[i, 0]))
            f[i] = np.roll(f[i], shift, axis=(0, 1, 2))
        f[:, :, :, -1] = f[:, :, :, -2]
        rho_in = np.ones((workload.nz, workload.ny, 1), dtype=np.float32)
        u_in = np.zeros((3, workload.nz, workload.ny, 1), dtype=np.float32)
        u_in[0] = workload.U_INFLOW
        f[:, :, :, :1] = equilibrium_3d(rho_in, u_in)

        velocity[...] = u
        mem.sync(["f", "velocity"])

    speed = np.sqrt((velocity.astype(np.float64) ** 2).sum(axis=0))
    return speed.astype(np.float32), workload.steps


# ======================================================================
# Truncate and Doppelgänger
# ======================================================================
def max_truncation_error() -> float:
    """Worst-case relative error of keeping :data:`KEPT_MANTISSA_BITS`
    mantissa bits with round-to-nearest: half a unit in the last kept
    place."""
    return float(2.0 ** -(KEPT_MANTISSA_BITS + 1))


def line_signatures_reference(lines: np.ndarray, bucket_width: float) -> np.ndarray:
    """Per-line signatures through numpy's row reductions."""
    means = lines.mean(axis=1, dtype=np.float64)
    spreads = (lines.max(axis=1) - lines.min(axis=1)).astype(np.float64)
    qm = np.floor(means / bucket_width).astype(np.int64)
    qs = np.floor(spreads / bucket_width).astype(np.int64)
    return qm * np.int64(1 << 20) + qs


def dedup_roundtrip_reference(
    array: np.ndarray, similarity_threshold: float = 0.02
) -> tuple[np.ndarray, DedupStats]:
    """Doppelgänger's round trip through ``np.unique``.

    The oracle of :func:`repro.doppelganger.dedup_roundtrip`: the span
    from a boolean ``isfinite`` copy, signatures through
    :func:`line_signatures_reference`, and each line's representative
    through ``np.unique(..., return_index=True, return_inverse=True)``
    and two gathers (``test_dedup_equivalence.py``).
    """
    values = np.asarray(array, dtype=np.float32).ravel()
    nlines = values.size // VALUES_PER_CACHELINE
    if nlines == 0:
        return np.array(array, dtype=np.float32, copy=True), DedupStats(0, 0)
    head = values[: nlines * VALUES_PER_CACHELINE].reshape(nlines, VALUES_PER_CACHELINE)

    finite = head[np.isfinite(head)]
    span = float(finite.max() - finite.min()) if finite.size else 0.0
    if span == 0.0:
        # Degenerate constant data: every line dedups to one entry, no error.
        out = values.copy()
        stats = DedupStats(nlines, 1)
        return out.reshape(np.asarray(array).shape), stats

    bucket = span * similarity_threshold
    sigs = line_signatures_reference(head, bucket)
    # First occurrence of each signature becomes the representative.
    _, rep_idx, inverse = np.unique(sigs, return_index=True, return_inverse=True)
    approx = head[rep_idx][inverse]

    out = values.copy()
    out[: nlines * VALUES_PER_CACHELINE] = approx.ravel()
    stats = DedupStats(nlines, int(rep_idx.size))
    return out.reshape(np.asarray(array).shape), stats
