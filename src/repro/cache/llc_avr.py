"""The AVR Last Level Cache (paper §3.4, §3.5, Figures 6-8).

A decoupled sectored cache that co-locates uncompressed cachelines
(UCLs) and compressed memory sub-blocks (CMSs).  The model keeps the
paper's placement rules — UCLs index like a conventional cache, the
CMSs of a block occupy consecutive sets starting at the block's tag
index, and UCLs/CMSs compete equally for data-array entries under LRU —
and implements the full request (Fig. 7) and eviction (Fig. 8) flows:
DBUF hits, compressed hits, lazy writebacks, fetch+recompress, the
badly-compressed-block skip counters, and PFE-guided prefetch of
decompressed lines.

Compressed block sizes come from a static per-block size map measured
by the functional layer, so the timing simulation reflects the real
data's compressibility without re-running the compressor per event.

Data-array representation
-------------------------

Entry keys are packed int64s: a UCL is its line number (``>= 0``), a
CMS of ``(block, off)`` is ``-(block * BLOCK_CACHELINES + off) - 2``
(strictly below the :data:`EMPTY` sentinel ``-1``, so the three key
classes never collide).  State lives in fixed ``(num_sets, ways)``
tag/dirty/age planes stored as flat row-major arrays (Python lists,
for O(50 ns) scalar access in the replay loops) plus a key→slot index;
the LRU victim of a set is its occupied way with the smallest age,
exactly the convention of :mod:`repro.cache.array_lru`.

Two replay paths share that state:

* the scalar :meth:`AVRLLC.read` / :meth:`AVRLLC.writeback` flows —
  the semantic anchor, used by the access-at-a-time test oracle and
  the unit tests;
* :meth:`AVRLLC.replay_batch` — the path :meth:`TimingSystem.run`
  takes: one numpy pass decodes the whole filtered event
  stream (line/block numbers, set indices, approx classification,
  static block sizes, DBUF bit masks), the stream is segmented into
  same-block runs (reusing the rounds machinery's group detection from
  :mod:`repro.cache.array_lru`), runs of LLC-resident touches resolve
  batched, state-changing events (misses, insertions, block evictions,
  lazy writebacks) drop to a tuned per-event flow, and every DRAM call
  is queued and settled afterwards in one
  :meth:`repro.memory.dram.DRAM.replay_transfers` pass.

Both paths produce bit-identical results; the engine-equivalence tests
pin them against each other under every ablation flag.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

import numpy as np

from ..common.config import CacheConfig
from ..common.constants import (
    BLOCK_BYTES,
    BLOCK_CACHELINES,
    CACHELINE_BYTES,
    DECOMPRESS_LATENCY_CYCLES,
    MAX_FAILED_COUNT,
    MAX_SKIP_COUNT,
    PAGE_BYTES,
)
from ..common.stats import StatCounter
from ..memory.dram import DRAM
from .array_lru import EMPTY, first_of_groups
from .cmt import CMT, CMTEntry
from .dbuf import DBUF, FULL_BLOCK_MASK, PFE_THRESHOLD


class _PFEDefault(Enum):
    """Singleton sentinel: 'use the paper's PFE threshold'.

    An enum so the sentinel pickles across sweep workers and has a
    stable canonical form in result-cache keys.
    """

    DEFAULT = "paper-default"


#: pass as ``pfe_threshold`` to keep the paper's half-block PFE policy.
#: ``None`` *disables* the PFE outright (at both the AVRLLC and DBUF
#: layers), and an int overrides the threshold — so every PFE policy is
#: reachable through the ablation harness.
PFE_DEFAULT = _PFEDefault.DEFAULT

#: bias of the packed CMS keys: key ``-2`` is ``(block 0, off 0)``.
_CMS_BIAS = 2

#: minimum same-block run length worth resolving batched; shorter runs
#: go through the per-event flow (the batch bookkeeping would cost more
#: than it saves).
_RUN_MIN = 3

# the fast scan encodes line/block/page arithmetic as shifts of the
# paper's fixed geometry (64 B lines, 16-line blocks, 4 KB pages); guard
# the assumption so a constants change fails loudly at import (a plain
# assert would vanish under ``python -O``) instead of corrupting replays
if (CACHELINE_BYTES, BLOCK_CACHELINES, BLOCK_BYTES, PAGE_BYTES) != (
    64, 16, 1024, 4096
):  # pragma: no cover - geometry is fixed by the paper
    raise RuntimeError(
        "repro.cache.llc_avr hard-codes the paper's 64 B / 16-line / "
        "4 KB geometry; update its shift constants before changing "
        "repro.common.constants"
    )


def cms_key(block_no: int, off: int) -> int:
    """Packed data-array key of the ``off``-th CMS of ``block_no``."""
    return -(block_no * BLOCK_CACHELINES + off) - _CMS_BIAS


def decode_cms_key(key: int) -> tuple[int, int]:
    """Inverse of :func:`cms_key`: ``(block_no, off)``."""
    packed = -key - _CMS_BIAS
    return packed // BLOCK_CACHELINES, packed % BLOCK_CACHELINES


class AVRLLC:
    """Shared AVR LLC + DBUF + CMT + compressor latency accounting."""

    def __init__(
        self,
        config: CacheConfig,
        dram: DRAM,
        block_size_of: Callable[[int], int],
        is_approx: Callable[[int], bool],
        enable_dbuf: bool = True,
        enable_lazy_eviction: bool = True,
        enable_skip_counters: bool = True,
        enable_cms_lru_refresh: bool = True,
        pfe_threshold: int | None | _PFEDefault = PFE_DEFAULT,
        is_approx_batch: Callable[[np.ndarray], np.ndarray] | None = None,
        block_size_of_batch: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        """The four ``enable_*`` flags ablate the paper's §3
        optimizations one by one.  ``pfe_threshold`` overrides the PFE
        policy: :data:`PFE_DEFAULT` keeps the paper's half-block
        threshold, ``None`` disables prefetching, an int replaces the
        threshold.  ``is_approx_batch`` / ``block_size_of_batch``, when
        given, must be the vectorized equivalents of ``is_approx`` /
        ``block_size_of`` (e.g. the :class:`~repro.system.layout.
        AddressLayout` batch methods); :meth:`replay_batch` then
        decodes whole event streams without per-event Python calls."""
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.latency = config.latency_cycles
        self.dram = dram
        self.block_size_of = block_size_of
        self.is_approx = is_approx
        self.is_approx_batch = is_approx_batch
        self.block_size_of_batch = block_size_of_batch
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

    # ------------------------------------------------------------------
    # batched fast replay (the vectorized timing engine's AVR path)
    # ------------------------------------------------------------------
    def _decode_stream(
        self, addrs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One numpy pass over the event stream's stateless attributes."""
        line_no = addrs // CACHELINE_BYTES
        block_no = addrs // BLOCK_BYTES
        if self.is_approx_batch is not None:
            approx = self.is_approx_batch(addrs)
        else:
            fn = self.is_approx
            approx = np.fromiter(
                (fn(a) for a in addrs.tolist()), dtype=bool, count=addrs.size
            )
        block_addrs = block_no * BLOCK_BYTES
        if self.block_size_of_batch is not None:
            sizes = self.block_size_of_batch(block_addrs)
        else:
            fn = self.block_size_of
            sizes = np.fromiter(
                (fn(a) for a in block_addrs.tolist()),
                dtype=np.int64,
                count=addrs.size,
            )
        return line_no, block_no, approx, sizes

    def replay_batch(self, addrs: np.ndarray, is_read: np.ndarray) -> np.ndarray:
        """Replay a whole LLC event stream; returns per-event latencies.

        ``addrs``/``is_read`` describe the filtered, chunk-interleaved
        event stream: demand reads (:meth:`read`) where ``is_read``,
        dirty L2 victim writebacks (:meth:`writeback`) elsewhere.
        Equivalent to calling those methods one event at a time, with
        the per-event Python work restructured for batch speed:

        1. **Decode** — every stateless per-event attribute (line and
           block numbers, set indices, approx classification, static
           block size, DBUF bit, CMS key base) is computed in one numpy
           pass.  Blocks are remapped to dense ids, so the scan probes
           flat slot tables (one list index per lookup) instead of a
           key dict, and the eviction flows read per-block static
           size/approx off plain lists; every key the scan can ever
           touch — event lines, CMS groups, PFE prefetches, victims —
           belongs to a stream block, which is what makes the dense
           universe closed.
        2. **Run segmentation** — the stream is split into maximal
           same-block runs (:func:`~repro.cache.array_lru.
           first_of_groups`).  A run whose lines are all LLC-resident
           only moves LRU ages, dirty bits and DBUF masks — no
           insertion, eviction or DRAM traffic — so it resolves as a
           batch: per-line age refreshes, one merged CMS-group refresh,
           one OR-merged DBUF mask update, one stats update.  The first
           non-resident line drops the rest of the run to the per-event
           flow (misses, insertions, block evictions and lazy
           writebacks always take it).
        3. **Deferred DRAM** — the scan queues every DRAM call
           (including CMT metadata partials) instead of walking the
           row-buffer model per line; the whole transfer log settles in
           one :meth:`~repro.memory.dram.DRAM.replay_transfers` pass,
           and the resulting latencies scatter back into the per-event
           latency vector.

        The batch must be the *first* traffic this LLC sees (the
        timing engine runs exactly one trace per system); starting from
        a non-empty cache raises rather than silently replaying against
        the wrong state.  Scalar calls may follow a batch: all state —
        data array, DBUF, CMT, DRAM open rows — is left exactly where
        the event-by-event flow would have left it (the scan's dense
        tags are translated back to the packed-key convention on exit).
        """
        if self._slot_of or self.dbuf.block_addr is not None:
            raise ValueError(
                "replay_batch requires an empty LLC: it replays the whole "
                "event stream against fresh state (one batch per cache)"
            )
        m = int(addrs.size)
        if m == 0:
            return np.zeros(0, dtype=np.int64)

        # ---- stage 1: stateless decode ------------------------------
        line_no, block_no, approx, sizes = self._decode_stream(addrs)
        ucl_set = line_no % self.num_sets
        loff = line_no % BLOCK_CACHELINES
        bit = np.int64(1) << loff
        # an uncompressible block (static size = full block) can never
        # own CMS entries, so its events skip every CMS probe/refresh
        has_cms = approx & (sizes < BLOCK_CACHELINES)
        refreshes = (
            has_cms
            if self.enable_cms_lru_refresh
            else np.zeros(m, dtype=bool)
        )

        # dense block ids: the scan's keys are `bid * 16 + offset` for
        # both UCLs (offset = line within block) and CMS entries
        # (offset = sub-block index), held in two flat slot tables
        uniq_blocks, first_idx, bid = np.unique(
            block_no, return_index=True, return_inverse=True
        )
        k0d = bid.astype(np.int64) * BLOCK_CACHELINES
        dense_line = k0d + loff
        real_blocks = uniq_blocks.tolist()
        size_by_bid = sizes[first_idx].tolist()
        # approx must be uniform within each block for per-block
        # classification (regions are block-aligned); verify, and fall
        # back to per-address classification if a layout violates it
        uniform = bool(np.all(approx == approx[first_idx][bid]))
        approx_by_bid = approx[first_idx].tolist() if uniform else None

        # ---- stage 2: same-block run segmentation -------------------
        if uniform:
            starts = np.flatnonzero(first_of_groups(block_no))
            run_len = np.diff(np.append(starts, m))
            run_end = np.repeat(starts + run_len, run_len)
        else:
            # a mixed-approx block would make the run resolver classify
            # all of a run's reads by its first event; without
            # uniformity every event takes the per-event flow
            run_end = np.zeros(m, dtype=np.int64)

        lat = np.where(is_read, np.int64(self.latency), np.int64(0)).tolist()

        log, read_events = self._scan(
            is_read.tolist(), line_no.tolist(), dense_line.tolist(),
            ucl_set.tolist(), approx.tolist(), sizes.tolist(),
            bit.tolist(), k0d.tolist(), has_cms.tolist(),
            refreshes.tolist(), run_end.tolist(),
            real_blocks, size_by_bid, approx_by_bid, lat,
        )

        # ---- stage 3: settle the deferred DRAM transfer log ---------
        # unpack the scan's packed transfer words (see _scan: address,
        # line count, write flag, demand-read marker)
        packed = np.array(log, dtype=np.int64)
        t_lines = (packed >> 2) & 31
        dram_lat = self.dram.replay_transfers(
            packed >> 7, t_lines, (packed & 2).astype(bool)
        )
        lat_arr = np.array(lat, dtype=np.int64)
        demand = (packed & 1).astype(bool)
        lat_arr[np.array(read_events, dtype=np.int64)] += dram_lat[demand]
        return lat_arr

    def _scan(
        self,
        L_rd: list[bool],
        L_line: list[int],
        L_dline: list[int],
        L_set: list[int],
        L_apx: list[bool],
        L_size: list[int],
        L_bit: list[int],
        L_k0d: list[int],
        L_hascms: list[bool],
        L_refresh: list[bool],
        L_run_end: list[int],
        real_blocks: list[int],
        size_by_bid: list[int],
        approx_by_bid: list[bool] | None,
        lat: list[int],
    ) -> tuple[list[int], list[int]]:
        """The event scan: cache-state machine over the decoded stream.

        Everything here is per-event Python, so the flows are written
        for the interpreter: state planes are flat lists, presence
        probes are flat-table indexing on dense keys (``ucl_slot`` /
        ``cms_slot``), all loop state lives in locals, statistics
        accumulate in plain ints (folded into :attr:`stats` once at the
        end), the CMT page-cache walk is inlined (same semantics as
        :meth:`~repro.cache.cmt.CMT.lookup_block`, against the same
        dicts) and every DRAM call is appended to the transfer log the
        caller settles afterwards.  A log entry is one packed int —
        ``addr << 7 | lines << 2 | write << 1 | demand`` — so queueing
        a transfer is a single append and the caller unpacks the whole
        log vectorized (``lines == 0`` marks a CMT metadata partial
        whose byte count rides in the address field; ``demand`` marks
        the transfers whose latency scatters back to a read event).
        While the scan runs, the tag plane holds *dense* keys (UCL:
        ``dline``, CMS: ``-(k0d + off) - _CMS_BIAS``); on exit they are
        translated back to the packed real-address keys the scalar
        flows use.  The semantics mirror :meth:`read`/:meth:`writeback`
        exactly — the engine-equivalence suite diffs the two paths
        event stream by event stream.
        """
        # --- bound state -------------------------------------------------
        S = self.num_sets
        W = self.ways
        tags = self.tags
        dirty = self.dirty
        ages = self.ages
        clock = self._clock
        n_dense = len(real_blocks) * BLOCK_CACHELINES
        ucl_slot = [-1] * n_dense  # dense line -> slot
        cms_slot = [-1] * n_dense  # k0d + off  -> slot
        cmt = self.cmt
        cmt_entries = cmt._entries
        cmt_cache = cmt._cache
        cmt_capacity = cmt.CACHE_PAGES
        cmt_hits = 0
        cmt_misses = 0
        partial_word = cmt.miss_traffic_bytes() << 7
        enable_dbuf = self.enable_dbuf
        enable_lazy = self.enable_lazy_eviction
        enable_skip = self.enable_skip_counters
        pfe_thr = self.dbuf.pfe_threshold
        is_approx_fn = self.is_approx

        dbuf = self.dbuf
        dbuf_k0d = -1  # precondition: the DBUF starts empty
        dbuf_req = 0
        dbuf_in = 0
        dbuf_hits = 0
        dbuf_loads = 0

        # --- local stat counters ----------------------------------------
        st_hits = st_misses = st_dbuf = st_unc = st_cms_hit = st_miss_apx = 0
        st_decomp = st_comp = st_pfe = st_cms_evict = st_exact_wb = 0
        st_recomp = st_lazy = st_fetch_recomp = st_unc_wb = 0
        bytes_approx = bytes_exact = 0

        # --- deferred DRAM transfer log (packed words) -------------------
        log: list[int] = []
        emit = log.append
        read_events: list[int] = []  # event index per demand transfer
        note_demand = read_events.append

        # NOTE: the closures below bind their read-only state as default
        # arguments — default values are plain locals inside the call,
        # which CPython loads measurably faster than closure cells, and
        # these run half a million times per trace.

        def cmt_consult(
            block: int,
            default_size: int,
            cmt_entries: dict[int, CMTEntry] = cmt_entries,
            cmt_cache: dict[int, None] = cmt_cache,
            cmt_capacity: int = cmt_capacity,
            emit: Callable[[int], None] = emit,
            partial_word: int = partial_word,
        ) -> CMTEntry:
            # inlined CMT.lookup_block over the shared CMT dicts (the
            # scan calls this on every approximate miss and eviction)
            nonlocal cmt_hits, cmt_misses
            block_addr = block << 10
            entry = cmt_entries.get(block_addr)
            if entry is None:
                entry = CMTEntry(size_cachelines=default_size)
                cmt_entries[block_addr] = entry
            page = block_addr >> 12
            if page in cmt_cache:
                del cmt_cache[page]
                cmt_cache[page] = None
                cmt_hits += 1
                return entry
            if len(cmt_cache) >= cmt_capacity:
                del cmt_cache[next(iter(cmt_cache))]
            cmt_cache[page] = None
            cmt_misses += 1
            emit(partial_word)
            return entry

        def evict_compressed_block(
            k0: int,
            first_dirty: bool,
            tags: list[int] = tags,
            dirty: list[bool] = dirty,
            ages: list[int] = ages,
            cms_slot: list[int] = cms_slot,
            size_by_bid: list[int] = size_by_bid,
            real_blocks: list[int] = real_blocks,
            emit: Callable[[int], None] = emit,
        ) -> None:
            nonlocal st_decomp, st_comp, st_cms_evict, bytes_approx
            size = size_by_bid[k0 >> 4]
            group_dirty = first_dirty
            for idx in range(k0, k0 + size):
                slot = cms_slot[idx]
                if slot >= 0:
                    cms_slot[idx] = -1
                    if dirty[slot]:
                        group_dirty = True
                    tags[slot] = EMPTY
                    dirty[slot] = False
                    ages[slot] = EMPTY
            if group_dirty:
                st_decomp += 1
                st_comp += 1
                bytes_approx += size << 6
                block = real_blocks[k0 >> 4]
                emit(block << 17 | size << 2 | 2)
                entry = cmt_consult(block, size)
                entry.size_cachelines = size
                entry.failed = 0
                entry.skipped = 0
                entry.lazy_count = 0
            st_cms_evict += 1

        def evict_dirty_approx_ucl(
            dline: int,
            dirty: list[bool] = dirty,
            ages: list[int] = ages,
            cms_slot: list[int] = cms_slot,
            size_by_bid: list[int] = size_by_bid,
            real_blocks: list[int] = real_blocks,
            emit: Callable[[int], None] = emit,
        ) -> None:
            nonlocal st_recomp, st_decomp, st_comp, st_lazy
            nonlocal st_fetch_recomp, st_unc_wb, bytes_approx, clock
            bid = dline >> 4
            size = size_by_bid[bid]
            if size < BLOCK_CACHELINES:
                k0 = bid << 4
                slot = cms_slot[k0]
                if slot >= 0:
                    # Recompress in place: no traffic, CMSs dirtied.
                    st_recomp += 1
                    st_decomp += 1
                    st_comp += 1
                    ages[slot] = clock
                    clock += 1
                    dirty[slot] = True
                    for idx in range(k0 + 1, k0 + size):
                        slot = cms_slot[idx]
                        if slot >= 0:
                            ages[slot] = clock
                            clock += 1
                            dirty[slot] = True
                    return
                block = real_blocks[bid]
                entry = cmt_consult(block, size)
                entry_size = entry.size_cachelines
                if entry_size < BLOCK_CACHELINES:  # compressed in memory
                    if enable_lazy and entry.lazy_count < BLOCK_CACHELINES - entry_size:
                        st_lazy += 1
                        entry.lazy_count += 1
                        bytes_approx += 64
                        emit((block << 4 | (dline & 15)) << 13 | 6)
                        return
                    st_fetch_recomp += 1
                    st_decomp += 1
                    st_comp += 1
                    fetch = entry_size + entry.lazy_count
                    bytes_approx += (fetch + size) << 6
                    emit(block << 17 | fetch << 2)
                    emit(block << 17 | size << 2 | 2)
                    entry.size_cachelines = size
                    entry.failed = 0
                    entry.skipped = 0
                    entry.lazy_count = 0
                    return
                # uncompressed in memory, compressible data: attempt it
                # (unless the skip counters say not to bother)
                failed = entry.failed
                if failed > MAX_SKIP_COUNT:
                    failed = MAX_SKIP_COUNT
                if not (enable_skip and entry.skipped < failed):
                    st_fetch_recomp += 1
                    st_comp += 1
                    bytes_approx += (BLOCK_CACHELINES + size) << 6
                    emit(block << 17 | 64)
                    emit(block << 17 | size << 2 | 2)
                    entry.size_cachelines = size
                    entry.failed = 0
                    entry.skipped = 0
                    return
                st_unc_wb += 1
                bytes_approx += 64
                emit((block << 4 | (dline & 15)) << 13 | 6)
                return
            # uncompressible block: plain writeback, count the attempt
            block = real_blocks[bid]
            entry = cmt_consult(block, size)
            failed = entry.failed
            if failed > MAX_SKIP_COUNT:
                failed = MAX_SKIP_COUNT
            st_unc_wb += 1
            if enable_skip and entry.skipped < failed:
                skipped = entry.skipped + 1
                entry.skipped = (
                    skipped if skipped < MAX_SKIP_COUNT else MAX_SKIP_COUNT
                )
            else:
                st_comp += 1
                failed = entry.failed + 1
                entry.failed = (
                    failed if failed < MAX_FAILED_COUNT else MAX_FAILED_COUNT
                )
                entry.skipped = 0
            bytes_approx += 64
            emit((block << 4 | (dline & 15)) << 13 | 6)

        def dispatch_victim(
            victim: int,
            slot: int,
            dirty: list[bool] = dirty,
            ucl_slot: list[int] = ucl_slot,
            cms_slot: list[int] = cms_slot,
            real_blocks: list[int] = real_blocks,
            emit: Callable[[int], None] = emit,
        ) -> None:
            # _handle_victim for the fast path: clean UCL victims vanish
            # for free, everything else runs its Figure 8 flow.  Only
            # reached on an actual eviction, so it is off the per-event
            # fast path.
            nonlocal st_exact_wb, bytes_exact
            if victim < EMPTY:  # CMS victim: evict the whole block
                victim_dirty = dirty[slot]
                cms_slot[-victim - _CMS_BIAS] = -1
                evict_compressed_block((-victim - _CMS_BIAS) & ~15, victim_dirty)
                return
            ucl_slot[victim] = -1
            if dirty[slot]:
                victim_approx = (
                    approx_by_bid[victim >> 4]
                    if approx_by_bid is not None
                    else is_approx_fn(
                        (real_blocks[victim >> 4] << 10) + ((victim & 15) << 6)
                    )
                )
                if victim_approx:
                    evict_dirty_approx_ucl(victim)
                else:
                    bytes_exact += 64
                    real_line = real_blocks[victim >> 4] << 4 | (victim & 15)
                    emit(real_line << 13 | 6)
                    st_exact_wb += 1

        def alloc_ucl(
            set_idx: int,
            dline: int,
            key_dirty: bool,
            tags: list[int] = tags,
            dirty: list[bool] = dirty,
            ages: list[int] = ages,
            W: int = W,
            ucl_slot: list[int] = ucl_slot,
            dispatch_victim: Callable[[int, int], None] = dispatch_victim,
        ) -> None:
            # _insert's allocation path for a UCL.  The victim's slot is
            # only cleared implicitly (overwritten below): the victim
            # flows reach entries exclusively through the slot tables,
            # where the victim is already gone.
            nonlocal clock
            base = set_idx * W
            row = ages[base:base + W]
            slot = base + row.index(min(row))
            victim = tags[slot]
            if victim != EMPTY:
                dispatch_victim(victim, slot)
            tags[slot] = dline
            dirty[slot] = key_dirty
            ages[slot] = clock
            clock += 1
            ucl_slot[dline] = slot

        def alloc_cms(
            set_idx: int,
            idx: int,
            key_dirty: bool,
            tags: list[int] = tags,
            dirty: list[bool] = dirty,
            ages: list[int] = ages,
            W: int = W,
            cms_slot: list[int] = cms_slot,
            dispatch_victim: Callable[[int, int], None] = dispatch_victim,
        ) -> None:
            # as alloc_ucl, but the incoming entry is the CMS at dense
            # index `idx` (tagged negative so victim dispatch can tell)
            nonlocal clock
            base = set_idx * W
            row = ages[base:base + W]
            slot = base + row.index(min(row))
            victim = tags[slot]
            if victim != EMPTY:
                dispatch_victim(victim, slot)
            tags[slot] = -idx - _CMS_BIAS
            dirty[slot] = key_dirty
            ages[slot] = clock
            clock += 1
            cms_slot[idx] = slot

        def load_dbuf(
            k0: int,
            load_bit: int,
            ages: list[int] = ages,
            ucl_slot: list[int] = ucl_slot,
            real_blocks: list[int] = real_blocks,
            S: int = S,
            pfe_thr: int | None = pfe_thr,
            alloc_ucl: Callable[[int, int, bool], None] = alloc_ucl,
        ) -> None:
            nonlocal dbuf_k0d, dbuf_req, dbuf_in, dbuf_loads, st_pfe, clock
            if (
                pfe_thr is not None
                and dbuf_k0d >= 0
                and dbuf_req.bit_count() >= pfe_thr
            ):
                missing = ~dbuf_in & FULL_BLOCK_MASK
                if missing:
                    st_pfe += missing.bit_count()
                    old_line = real_blocks[dbuf_k0d >> 4] << 4
                    while missing:
                        low = missing & -missing
                        off = low.bit_length() - 1
                        missing ^= low
                        dline = dbuf_k0d + off
                        slot = ucl_slot[dline]
                        if slot >= 0:
                            ages[slot] = clock
                            clock += 1
                        else:
                            alloc_ucl((old_line + off) % S, dline, False)
            dbuf_k0d = k0
            dbuf_req = load_bit
            dbuf_in = load_bit
            dbuf_loads += 1

        # --- the scan ----------------------------------------------------
        i = 0
        m = len(L_rd)
        #: events before this index skip the batched-run attempt — set
        #: when a run's first line is absent, so a streak of first-touch
        #: insertions pays the failed probe once, not once per event
        skip_until = 0
        while i < m:
            # -- batched resolution of a same-block resident run --------
            if i >= skip_until and L_run_end[i] - i >= _RUN_MIN:
                end = L_run_end[i]
                apx = L_apx[i]
                # kind of every read in the run (the DBUF cannot load
                # inside a touch-only run, so this is run-constant)
                dbuf_same = dbuf_k0d == L_k0d[i]
                dbuf_here = apx and enable_dbuf and dbuf_same
                j = i
                slots = []
                add_slot = slots.append
                run_rd_bits = 0
                run_wb_bits = 0
                n_reads = 0
                while j < end:
                    slot = ucl_slot[L_dline[j]]
                    if slot < 0:
                        break  # state-changing event: per-event flow
                    add_slot(slot)
                    if L_rd[j]:
                        n_reads += 1
                        if dbuf_here:
                            run_rd_bits |= L_bit[j]
                    elif dbuf_same:
                        run_wb_bits |= L_bit[j]
                    j += 1
                if j > i:
                    # commit: all touches but the last, then the CMS
                    # group refresh anchored by the last event's flow
                    # order (read-via-DBUF and writeback refresh before
                    # their UCL touch, a plain UCL hit after)
                    last = j - 1
                    for k in range(i, last):
                        slot = slots[k - i]
                        ages[slot] = clock
                        clock += 1
                        if not L_rd[k]:
                            dirty[slot] = True
                    k0 = L_k0d[i]
                    refresh = L_refresh[i] and cms_slot[k0] >= 0
                    last_is_plain_hit = L_rd[last] and not dbuf_here
                    if refresh and not last_is_plain_hit:
                        for idx in range(k0, k0 + L_size[i]):
                            slot = cms_slot[idx]
                            if slot >= 0:
                                ages[slot] = clock
                                clock += 1
                    slot = slots[last - i]
                    ages[slot] = clock
                    clock += 1
                    if not L_rd[last]:
                        dirty[slot] = True
                    if refresh and last_is_plain_hit:
                        for idx in range(k0, k0 + L_size[i]):
                            slot = cms_slot[idx]
                            if slot >= 0:
                                ages[slot] = clock
                                clock += 1
                    # merged DBUF masks, stats
                    if run_rd_bits or run_wb_bits:
                        dbuf_req |= run_rd_bits | run_wb_bits
                        dbuf_in |= run_rd_bits | run_wb_bits
                    if n_reads:
                        st_hits += n_reads
                        if dbuf_here:
                            dbuf_hits += n_reads
                            st_dbuf += n_reads
                        elif apx:
                            st_unc += n_reads
                    i = j
                    if i >= m:
                        break
                    if i >= end:
                        continue
                    # fall through: event i needs the per-event flow
                else:
                    skip_until = end

            rd = L_rd[i]
            dline = L_dline[i]
            if rd:
                if L_apx[i]:
                    k0 = L_k0d[i]
                    if enable_dbuf and dbuf_k0d == k0:
                        hit_bit = L_bit[i]
                        dbuf_req |= hit_bit
                        dbuf_in |= hit_bit
                        dbuf_hits += 1
                        st_dbuf += 1
                        st_hits += 1
                        if L_refresh[i]:
                            slot = cms_slot[k0]
                            if slot >= 0:
                                ages[slot] = clock
                                clock += 1
                                for idx in range(k0 + 1, k0 + L_size[i]):
                                    slot = cms_slot[idx]
                                    if slot >= 0:
                                        ages[slot] = clock
                                        clock += 1
                        slot = ucl_slot[dline]
                        if slot >= 0:
                            ages[slot] = clock
                            clock += 1
                        else:
                            alloc_ucl(L_set[i], dline, False)
                        i += 1
                        continue
                    slot = ucl_slot[dline]
                    if slot >= 0:
                        ages[slot] = clock
                        clock += 1
                        st_unc += 1
                        st_hits += 1
                        if L_refresh[i]:
                            slot = cms_slot[k0]
                            if slot >= 0:
                                ages[slot] = clock
                                clock += 1
                                for idx in range(k0 + 1, k0 + L_size[i]):
                                    slot = cms_slot[idx]
                                    if slot >= 0:
                                        ages[slot] = clock
                                        clock += 1
                        i += 1
                        continue
                    size = L_size[i]
                    if L_hascms[i]:
                        slot = cms_slot[k0]
                        if slot >= 0:
                            # compressed hit: touch CMSs, decompress
                            st_cms_hit += 1
                            st_hits += 1
                            st_decomp += 1
                            ages[slot] = clock
                            clock += 1
                            for idx in range(k0 + 1, k0 + size):
                                slot = cms_slot[idx]
                                if slot >= 0:
                                    ages[slot] = clock
                                    clock += 1
                            load_dbuf(k0, L_bit[i])
                            slot = ucl_slot[dline]
                            if slot >= 0:
                                ages[slot] = clock
                                clock += 1
                            else:
                                alloc_ucl(L_set[i], dline, False)
                            lat[i] += size + DECOMPRESS_LATENCY_CYCLES
                            i += 1
                            continue
                        # full miss on compressible approximate data
                        st_miss_apx += 1
                        st_misses += 1
                        block = real_blocks[k0 >> 4]
                        entry = cmt_consult(block, size)
                        entry_size = entry.size_cachelines
                        if entry_size >= BLOCK_CACHELINES:
                            # stored uncompressed: fetch just the line
                            bytes_approx += 64
                            emit(L_line[i] << 13 | 5)
                            note_demand(i)
                            slot = ucl_slot[dline]
                            if slot >= 0:
                                ages[slot] = clock
                                clock += 1
                            else:
                                alloc_ucl(L_set[i], dline, False)
                            i += 1
                            continue
                        fetch = entry_size + entry.lazy_count
                        bytes_approx += fetch << 6
                        emit(block << 17 | fetch << 2 | 1)
                        note_demand(i)
                        st_decomp += 1
                        group_dirty = False
                        if entry.lazy_count:
                            st_comp += 1
                            entry.lazy_count = 0
                            entry.size_cachelines = size
                            entry.failed = 0
                            entry.skipped = 0
                            entry_size = size
                            group_dirty = True
                        for off in range(entry_size):
                            idx = k0 + off
                            slot = cms_slot[idx]
                            if slot >= 0:
                                ages[slot] = clock
                                clock += 1
                                if group_dirty:
                                    dirty[slot] = True
                            else:
                                alloc_cms((block + off) % S, idx, group_dirty)
                        load_dbuf(k0, L_bit[i])
                        slot = ucl_slot[dline]
                        if slot >= 0:
                            ages[slot] = clock
                            clock += 1
                        else:
                            alloc_ucl(L_set[i], dline, False)
                        lat[i] += DECOMPRESS_LATENCY_CYCLES
                        i += 1
                        continue
                    # miss on an uncompressible approximate block: its
                    # CMT entry can never be compressed — line fetch
                    st_miss_apx += 1
                    st_misses += 1
                    cmt_consult(real_blocks[k0 >> 4], size)
                    bytes_approx += 64
                    emit(L_line[i] << 13 | 5)
                    note_demand(i)
                    slot = ucl_slot[dline]
                    if slot >= 0:
                        ages[slot] = clock
                        clock += 1
                    else:
                        alloc_ucl(L_set[i], dline, False)
                    i += 1
                    continue
                # exact read
                slot = ucl_slot[dline]
                if slot >= 0:
                    ages[slot] = clock
                    clock += 1
                    st_hits += 1
                    i += 1
                    continue
                st_misses += 1
                bytes_exact += 64
                emit(L_line[i] << 13 | 5)
                note_demand(i)
                alloc_ucl(L_set[i], dline, False)
                i += 1
                continue
            # writeback
            if dbuf_k0d == L_k0d[i]:
                wb_bit = L_bit[i]
                dbuf_req |= wb_bit
                dbuf_in |= wb_bit
            if L_refresh[i]:
                k0 = L_k0d[i]
                slot = cms_slot[k0]
                if slot >= 0:
                    ages[slot] = clock
                    clock += 1
                    for idx in range(k0 + 1, k0 + L_size[i]):
                        slot = cms_slot[idx]
                        if slot >= 0:
                            ages[slot] = clock
                            clock += 1
            slot = ucl_slot[dline]
            if slot >= 0:
                ages[slot] = clock
                clock += 1
                dirty[slot] = True
            else:
                alloc_ucl(L_set[i], dline, True)
            i += 1

        # --- write state + stats back ------------------------------------
        # the tag plane held dense keys during the scan: translate the
        # occupied slots back to the scalar flows' packed real keys and
        # rebuild the key -> slot index
        slot_of = self._slot_of
        for slot, tag in enumerate(tags):
            if tag == EMPTY:
                continue
            if tag >= 0:
                real_key = real_blocks[tag >> 4] << 4 | (tag & 15)
            else:
                idx = -tag - _CMS_BIAS
                real_key = (
                    -(real_blocks[idx >> 4] << 4 | (idx & 15)) - _CMS_BIAS
                )
            tags[slot] = real_key
            slot_of[real_key] = slot

        self._clock = clock
        dbuf.block_addr = (
            real_blocks[dbuf_k0d >> 4] * BLOCK_BYTES if dbuf_k0d >= 0 else None
        )
        dbuf.requested_mask = dbuf_req
        dbuf.in_llc_mask = dbuf_in
        dbuf.hits += dbuf_hits
        dbuf.loads += dbuf_loads
        cmt.cache_hits += cmt_hits
        cmt.cache_misses += cmt_misses

        # fold only the counters the event flows actually hit: absent
        # keys stay absent, exactly as in the scalar path
        add = self.stats.add
        for name, count in (
            ("llc_hits", st_hits),
            ("llc_misses", st_misses),
            ("req_hit_dbuf", st_dbuf),
            ("req_hit_uncompressed", st_unc),
            ("req_hit_compressed", st_cms_hit),
            ("req_miss", st_miss_apx),
            ("decompressions", st_decomp),
            ("compressions", st_comp),
            ("pfe_prefetches", st_pfe),
            ("cms_block_evictions", st_cms_evict),
            ("exact_writebacks", st_exact_wb),
            ("evict_recompress", st_recomp),
            ("evict_lazy_writeback", st_lazy),
            ("evict_fetch_recompress", st_fetch_recomp),
            ("evict_uncompressed_writeback", st_unc_wb),
            ("bytes_approx", bytes_approx),
            ("bytes_exact", bytes_exact),
        ):
            if count:
                add(name, count)
        return log, read_events

    # ------------------------------------------------------------------
    @property
    def mpki_misses(self) -> int:
        return int(self.stats["llc_misses"])
