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

Replay
------

:meth:`AVRLLC.replay_batch` is the one implementation of those flows
and the path :meth:`~repro.system.simulator.TimingSystem.run` takes.
One numpy pass decodes the whole filtered event stream (line/block
numbers, set indices, approx classification, static block sizes, DBUF
bit masks); the stream is segmented into same-block runs (reusing the
rounds machinery's group detection from :mod:`repro.cache.array_lru`);
runs of LLC-resident touches resolve batched; state-changing events
(misses, insertions, block evictions, lazy writebacks) drop to a tuned
per-event flow; and every DRAM call is queued and settled afterwards in
one :meth:`repro.memory.dram.DRAM.replay_transfers` pass.

The data array is a set of fixed ``(num_sets, ways)`` tag/dirty/age
planes stored as flat row-major Python lists (O(50 ns) scalar access
in the scan); the LRU victim of a set is its occupied way with the
smallest age, exactly the convention of :mod:`repro.cache.array_lru`.
Approximate regions are block-aligned (``AddressLayout.add_region``
enforces it), so every block is approximate or exact as a whole and
the replay classifies per block.

The per-event model the replay is pinned against — ``read`` /
``writeback`` over packed-key state — is the test oracle's
``AVRLLCReference`` (``tests/oracles.py``); the engine-equivalence
suite diffs the two under every ablation flag.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, ClassVar, Mapping

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
from .cmt import CACHE_PAGES, MISS_TRAFFIC_BYTES, CMTEntry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..system.layout import AddressLayout


#: the PFE's threshold strategy: when a new block replaces the one in
#: the DBUF, the outgoing block's not-yet-inserted lines are prefetched
#: into the LLC if at least this many of them were requested (half)
PFE_THRESHOLD = BLOCK_CACHELINES // 2

#: all line offsets of a block, as a DBUF bit mask
FULL_BLOCK_MASK = (1 << BLOCK_CACHELINES) - 1


class _PFEDefault(Enum):
    """Singleton sentinel: 'use the paper's PFE threshold'.

    An enum so the sentinel pickles across sweep workers and has a
    stable canonical form in result-cache keys.
    """

    DEFAULT = "paper-default"


#: pass as ``pfe_threshold`` to keep the paper's half-block PFE policy.
#: ``None`` *disables* the PFE outright, and an int overrides the
#: threshold — so every PFE policy is reachable through the ablation
#: harness.
PFE_DEFAULT = _PFEDefault.DEFAULT


#: the options that switch one of the paper's §3 optimizations on or off
AVR_FLAGS = (
    "enable_dbuf",
    "enable_lazy_eviction",
    "enable_skip_counters",
    "enable_cms_lru_refresh",
)

#: every :class:`AVRLLC` keyword option -> (accepted values, test); the
#: one table design validation (:class:`repro.designs.DesignSpec`) reads
AVR_OPTIONS: dict[str, tuple[str, Callable[[object], bool]]] = {
    **{flag: ("a bool", lambda v: isinstance(v, bool)) for flag in AVR_FLAGS},
    "pfe_threshold": (
        "an int >= 0, None or PFE_DEFAULT",
        lambda v: v is None
        or v is PFE_DEFAULT
        or isinstance(v, int) and not isinstance(v, bool) and v >= 0,
    ),
}


def check_avr_options(options: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless every option is in :data:`AVR_OPTIONS`
    and carries a value that option accepts."""
    valid = ", ".join(AVR_OPTIONS)
    for name, value in options.items():
        if name not in AVR_OPTIONS:
            raise ValueError(
                f"unknown AVR LLC option {name!r}; valid options: {valid}"
            )
        accepted, test = AVR_OPTIONS[name]
        if not test(value):
            raise ValueError(
                f"AVR LLC option {name!r} takes {accepted}, got {value!r} "
                f"(valid options: {valid})"
            )


#: bias of the CMS keys: key ``-2`` is ``(block 0, off 0)``, strictly
#: below the :data:`EMPTY` sentinel ``-1``
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


class AVRLLC:
    """Shared AVR LLC + DBUF + CMT + compressor latency accounting."""

    #: the AVR module's compressor: the energy model charges its power
    has_compressor: ClassVar[bool] = True

    def __init__(
        self,
        config: CacheConfig,
        dram: DRAM,
        layout: AddressLayout,
        enable_dbuf: bool = True,
        enable_lazy_eviction: bool = True,
        enable_skip_counters: bool = True,
        enable_cms_lru_refresh: bool = True,
        pfe_threshold: int | None | _PFEDefault = PFE_DEFAULT,
    ) -> None:
        """``layout`` supplies the approximable ranges and the static
        per-block compressed sizes (an empty
        :class:`~repro.system.layout.AddressLayout` marks nothing
        approximable).  The four ``enable_*`` flags ablate the paper's
        §3 optimizations one by one.  ``pfe_threshold`` overrides the
        PFE policy: :data:`PFE_DEFAULT` keeps the paper's half-block
        threshold, ``None`` disables prefetching, an int replaces the
        threshold."""
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.latency = config.latency_cycles
        self.dram = dram
        self.layout = layout
        self.enable_dbuf = enable_dbuf
        self.enable_lazy_eviction = enable_lazy_eviction
        self.enable_skip_counters = enable_skip_counters
        self.enable_cms_lru_refresh = enable_cms_lru_refresh
        self.pfe_threshold = (
            PFE_THRESHOLD if pfe_threshold is PFE_DEFAULT else pfe_threshold
        )
        self.stats = StatCounter()
        self._replayed = False

    def replay_batch(self, addrs: np.ndarray, is_read: np.ndarray) -> np.ndarray:
        """Replay a whole LLC event stream; returns per-event latencies.

        ``addrs``/``is_read`` describe the filtered, chunk-interleaved
        event stream: demand reads (the Fig. 7 request flow) where
        ``is_read``, dirty L2 victim writebacks elsewhere.  The
        per-event work is restructured for batch speed:

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
        m = int(addrs.size)
        if m == 0:
            return np.zeros(0, dtype=np.int64)

        # ---- stage 1: stateless decode ------------------------------
        line_no = addrs // CACHELINE_BYTES
        block_no = addrs // BLOCK_BYTES
        approx = self.layout.is_approx_batch(addrs)
        sizes = self.layout.block_size_of_batch(block_no * BLOCK_BYTES)
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
        approx_by_bid = approx[first_idx].tolist()

        # ---- stage 2: same-block run segmentation -------------------
        starts = np.flatnonzero(first_of_groups(block_no))
        run_len = np.diff(np.append(starts, m))
        run_end = np.repeat(starts + run_len, run_len)

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
        approx_by_bid: list[bool],
        lat: list[int],
    ) -> tuple[list[int], list[int]]:
        """The event scan: cache-state machine over the decoded stream.

        Everything here is per-event Python, so the flows are written
        for the interpreter: state planes are flat lists, presence
        probes are flat-table indexing on dense keys (``ucl_slot`` /
        ``cms_slot``), all loop state lives in locals, statistics
        accumulate in plain ints (folded into :attr:`stats` once at the
        end), the CMT and its on-chip page cache are two dicts walked
        inline, and every DRAM call is appended to the transfer log the
        caller settles afterwards.  A log entry is one packed int —
        ``addr << 7 | lines << 2 | write << 1 | demand`` — so queueing
        a transfer is a single append and the caller unpacks the whole
        log vectorized (``lines == 0`` marks a CMT metadata partial
        whose byte count rides in the address field; ``demand`` marks
        the transfers whose latency scatters back to a read event).
        The tag plane holds *dense* keys: a UCL is its ``dline``, a CMS
        ``-(k0d + off) - _CMS_BIAS``.  All state starts empty and is
        dropped on return: only the stats and the DRAM model outlive
        the scan.
        """
        # --- state -------------------------------------------------------
        S = self.num_sets
        W = self.ways
        n_slots = S * W
        tags = [EMPTY] * n_slots
        dirty = [False] * n_slots
        ages = [EMPTY] * n_slots
        clock = 0
        n_dense = len(real_blocks) * BLOCK_CACHELINES
        ucl_slot = [-1] * n_dense  # dense line -> slot
        cms_slot = [-1] * n_dense  # k0d + off  -> slot
        cmt_entries: dict[int, CMTEntry] = {}  # block address -> entry
        cmt_cache: dict[int, None] = {}  # cached CMT pages, LRU order
        cmt_capacity = CACHE_PAGES
        partial_word = MISS_TRAFFIC_BYTES << 7
        enable_dbuf = self.enable_dbuf
        enable_lazy = self.enable_lazy_eviction
        enable_skip = self.enable_skip_counters
        pfe_thr = self.pfe_threshold

        dbuf_k0d = -1  # the DBUF starts empty
        dbuf_req = 0
        dbuf_in = 0

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
            # the block's CMT entry (seeded with its static size on
            # first touch) plus the on-chip CMT cache walk: an LRU of
            # pages whose miss costs one metadata partial.  The scan
            # calls this on every approximate miss and eviction.
            block_addr = block << 10
            entry = cmt_entries.get(block_addr)
            if entry is None:
                entry = CMTEntry(size_cachelines=default_size)
                cmt_entries[block_addr] = entry
            page = block_addr >> 12
            if page in cmt_cache:
                del cmt_cache[page]
                cmt_cache[page] = None
                return entry
            if len(cmt_cache) >= cmt_capacity:
                del cmt_cache[next(iter(cmt_cache))]
            cmt_cache[page] = None
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
            # the Figure 8 victim dispatch: clean UCL victims vanish
            # for free, everything else runs its eviction flow.  Only
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
                if approx_by_bid[victim >> 4]:
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
            # insert a UCL into its set, evicting the LRU way (an empty
            # way carries age EMPTY, below every clock value, so the
            # set fills before it evicts).  The victim's slot is
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
            nonlocal dbuf_k0d, dbuf_req, dbuf_in, st_pfe, clock
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

        # --- stats -------------------------------------------------------
        # fold only the counters the event flows actually hit: absent
        # keys stay absent
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

    @property
    def mpki_misses(self) -> int:
        return int(self.stats["llc_misses"])
