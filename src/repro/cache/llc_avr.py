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
One numpy pass decodes the whole filtered event stream (dense line ids,
per-block approx class and static size).  Every stretch of events whose
lines are all LLC-resident (a *resident window*) only moves LRU ages,
dirty bits, DBUF masks and hit counters, so it resolves in one numpy
pass; state-changing events (misses, insertions, block evictions, lazy
writebacks) run a tuned per-event flow; and every DRAM call is queued
and settled afterwards in one
:meth:`repro.memory.dram.DRAM.replay_transfers` pass.  A stream that
repeats (:class:`~repro.cache.array_lru.StreamRepeat`, found by the
caller) is scanned one copy at a time until the cache's canonical state
repeats, and the remaining copies take the last scanned copy's
transfers, events and counters (:meth:`AVRLLC._scan`, "Steady state").

The data array is a set of fixed ``(num_sets, ways)`` tag/dirty/age
planes stored flat and row-major: ``array``/``bytearray`` buffers that
the per-event flow indexes like lists and the window pass updates
through numpy views.  The LRU victim of a set is its occupied way with
the smallest age, exactly the convention of :mod:`repro.cache.array_lru`.
Approximate regions are block-aligned (``AddressLayout.add_region``
enforces it), so every block is approximate or exact as a whole and
the replay classifies per block.

The per-event model the replay is pinned against — ``read`` /
``writeback`` over packed-key state — is the test oracle's
``AVRLLCReference`` (``tests/oracles.py``); the engine-equivalence
suite diffs the two under every ablation flag.
"""

from __future__ import annotations

from array import array
from enum import Enum
from operator import attrgetter
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
from .array_lru import EMPTY, LLC_SETTLE_COPIES, StreamRepeat
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


#: the scan's counters, as :attr:`AVRLLC.stats` names them
_STAT_NAMES = (
    "llc_hits",
    "llc_misses",
    "req_hit_dbuf",
    "req_hit_uncompressed",
    "req_hit_compressed",
    "req_miss",
    "decompressions",
    "compressions",
    "pfe_prefetches",
    "cms_block_evictions",
    "exact_writebacks",
    "evict_recompress",
    "evict_lazy_writeback",
    "evict_fetch_recompress",
    "evict_uncompressed_writeback",
    "bytes_approx",
    "bytes_exact",
)

#: bias of the CMS keys: key ``-2`` is ``(block 0, off 0)``, strictly
#: below the :data:`EMPTY` sentinel ``-1``
_CMS_BIAS = 2

# resident windows (see AVRLLC._scan) -------------------------------
#: shortest resident stretch worth a numpy pass: a pass's fixed cost is
#: about that of 150 per-event hits, so shorter stretches run per-event
_WINDOW_MIN = 256
#: events the first residency probe checks, and the first back-off
#: after a failed probe (the search doubles its step from here)
_PROBE = 256
#: longest back-off after failed probes: a miss-heavy stream pays about
#: one probe per this many events
_PROBE_CAP = 1024
#: longest stretch one pass resolves: bounds the pass's temporaries
_WINDOW_MAX = 1 << 16

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

    def replay_batch(
        self,
        addrs: np.ndarray,
        is_read: np.ndarray,
        repeat: StreamRepeat | None = None,
    ) -> np.ndarray:
        """Replay a whole LLC event stream; returns per-event latencies.

        ``addrs``/``is_read`` describe the filtered, chunk-interleaved
        event stream: demand reads (the Fig. 7 request flow) where
        ``is_read``, dirty L2 victim writebacks elsewhere.  The
        per-event work is restructured for batch speed:

        1. **Decode** — one numpy pass gives every event its dense line
           id (``bid * 16 + line offset``, where a block's dense id
           counts the stream's blocks below it in a presence table over
           the block span) and its block's approx and CMS-refresh class; the
           layout is consulted once per distinct block.  So the scan
           probes flat slot tables (one index per lookup) instead of a
           key dict, and the eviction flows read per-block static
           size/approx off plain lists; every key the scan can ever
           touch — event lines, CMS groups, PFE prefetches, victims —
           belongs to a stream block, which is what makes the dense
           universe closed.
        2. **Scan** — :meth:`_scan` resolves every stretch of
           LLC-resident events in one numpy pass and runs the rest
           per-event.
        3. **Deferred DRAM** — the scan queues every DRAM call
           (including CMT metadata partials) instead of walking the
           row-buffer model per line; the whole transfer log settles in
           one :meth:`~repro.memory.dram.DRAM.replay_transfers` pass,
           and the resulting latencies scatter back into the per-event
           latency vector beside the scan's decompression cycles.

        ``repeat`` says where the stream repeats (checked by the
        caller).  The scan then compares the cache's state at the end of
        each copy with its state at the end of the copy before, and once
        a copy leaves the state it found, it copies that copy's outcomes
        into the remaining copies instead of scanning them
        (:meth:`_scan`); only the events of the copies it scans are
        decoded.  DRAM still settles the whole transfer log in one pass,
        so its row-buffer state and channel busy time are those of a
        full scan.

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
        # Dense block ids from a presence table over the stream's block
        # span (the layout's address span bounds it): the ids count the
        # present blocks below, so they follow block order.  Copies of
        # a repeating stream hold the first copy's blocks.
        sample = addrs
        if repeat is not None:
            start, width, copies = repeat
            sample = np.concatenate(
                (addrs[:start + width], addrs[start + copies * width:])
            )
        block = sample >> 10
        low = int(block.min())
        block -= low
        present = np.zeros(int(block.max()) + 1, dtype=bool)
        present[block] = True
        del sample, block
        dense = np.cumsum(present, dtype=np.int64)
        dense -= 1
        uniq_blocks = np.flatnonzero(present) + low
        block_addrs = uniq_blocks * BLOCK_BYTES
        approx = self.layout.is_approx_batch(block_addrs)
        sizes = self.layout.block_size_of_batch(block_addrs)
        # an uncompressible block (static size = full block) can never
        # own CMS entries, so its events skip every CMS probe/refresh
        refreshes = approx & (sizes < BLOCK_CACHELINES)
        refreshes &= self.enable_cms_lru_refresh
        ev_dline = np.empty(m, dtype=np.int64)
        ev_apx = np.empty(m, dtype=bool)
        ev_refresh = np.empty(m, dtype=bool)

        def decode(a: int, b: int) -> None:
            # events [a, b): dense line (bid * 16 + the line's offset
            # in its block) and its block's classes
            bid = dense[(addrs[a:b] >> 10) - low]
            ev_dline[a:b] = ((addrs[a:b] >> 6) & 15) | (bid << 4)
            ev_apx[a:b] = approx[bid]
            ev_refresh[a:b] = refreshes[bid]

        # ---- stage 2: the event scan --------------------------------
        packed, read_events, extra_events, extra_cycles = self._scan(
            is_read, ev_dline, ev_apx, ev_refresh, decode,
            uniq_blocks.tolist(), sizes.tolist(), approx.tolist(), repeat,
        )

        # ---- stage 3: settle the deferred DRAM transfer log ---------
        # unpack the scan's packed transfer words (see _scan: address,
        # line count, write flag, demand-read marker)
        t_lines = (packed >> 2) & 31
        dram_lat = self.dram.replay_transfers(
            packed >> 7, t_lines, (packed & 2).astype(bool)
        )
        lat = is_read * np.int64(self.latency)
        lat[extra_events] += extra_cycles
        demand = (packed & 1).astype(bool)
        lat[read_events] += dram_lat[demand]
        return lat

    def _scan(
        self,
        ev_read: np.ndarray,
        ev_dline: np.ndarray,
        ev_apx: np.ndarray,
        ev_refresh: np.ndarray,
        decode: Callable[[int, int], None],
        real_blocks: list[int],
        size_by_bid: list[int],
        approx_by_bid: list[bool],
        repeat: StreamRepeat | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The event scan: cache-state machine over the decoded stream.

        **Resident windows.**  From a probe point, a galloping search
        over a numpy view of the UCL slot table finds the first event
        whose line is not LLC-resident.  Every event before it is a
        pure touch: the slot tables, the DBUF's block, the CMT, the PFE
        and the DRAM log stay put, and only LRU ages, dirty bits, the
        DBUF's masks and hit counters move.  So a stretch of at least
        :data:`_WINDOW_MIN` events resolves in one numpy pass
        (``resolve_window``), in the per-event clock order.  A probe
        that finds a shorter stretch backs off exponentially, up to
        :data:`_PROBE_CAP` events.

        **Per-event flow.**  Everything else runs per-event over
        stretches converted to lists only as they run, written for the
        interpreter: presence probes are flat-table indexing on dense
        keys (``ucl_slot`` / ``cms_slot``), all loop state lives in
        locals, statistics accumulate in plain ints (folded into
        :attr:`stats` once at the end), the CMT and its on-chip page
        cache are two dicts walked inline, and every DRAM call is
        appended to the transfer log the caller settles afterwards.  A
        log entry is one packed int — ``addr << 7 | lines << 2 | write
        << 1 | demand`` — so queueing a transfer is a single append and
        the caller unpacks the whole log vectorized (``lines == 0``
        marks a CMT metadata partial whose byte count rides in the
        address field; ``demand`` marks the transfers whose latency
        scatters back to a read event).  Decompression cycles are
        collected as ``(event, cycles)`` and scattered by the caller.

        The tag plane holds *dense* keys: a UCL is its ``dline``, a CMS
        ``-(k0d + off) - _CMS_BIAS``.  The age, dirty and slot tables
        are flat ``array``/``bytearray`` buffers, so the per-event flow
        indexes them at list speed while the window pass reads and
        writes the same memory through numpy views.  All state starts
        empty and is dropped on return: only the stats and the DRAM
        model outlive the scan.

        **Steady state.**  Given ``repeat``, the scan stops where each
        of the first :data:`~repro.cache.array_lru.LLC_SETTLE_COPIES`
        copies ends and takes the cache's canonical state: each set's
        (tag, dirty) pairs in recency order (empty ways first), the
        DBUF's block and masks, every CMT entry, and the CMT page
        cache's LRU order.  No outcome depends on anything else: a
        victim is the way with the smallest age *within its set*, so
        way positions and the ages' values (the clock) never decide
        one.  Once a copy ends in the canonical state it began in (the
        one the copy before it ended in), every later copy repeats its
        transfer words, its demand and decompression events (one copy's
        width further on) and its counter increments, and ends in that
        state too.  The scan copies them in and goes on with the events
        after the last copy.  A state that has not repeated by the last
        of those copies scans the rest.
        """
        # --- state -------------------------------------------------------
        S = self.num_sets
        W = self.ways
        n_slots = S * W
        tags = [EMPTY] * n_slots
        dirty = bytearray(n_slots)
        ages = array("q", [EMPTY]) * n_slots
        clock = 0
        n_dense = len(real_blocks) * BLOCK_CACHELINES
        ucl_slot = array("q", [-1]) * n_dense  # dense line -> slot
        cms_slot = array("q", [-1]) * n_dense  # k0d + off  -> slot
        dirty_np = np.frombuffer(dirty, dtype=np.bool_)
        ages_np = np.frombuffer(ages, dtype=np.int64)
        ucl_np = np.frombuffer(ucl_slot, dtype=np.int64)
        cms_np = np.frombuffer(cms_slot, dtype=np.int64)
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

        def totals() -> tuple[int, ...]:
            # every counter, in _STAT_NAMES order
            return (
                st_hits, st_misses, st_dbuf, st_unc, st_cms_hit, st_miss_apx,
                st_decomp, st_comp, st_pfe, st_cms_evict, st_exact_wb,
                st_recomp, st_lazy, st_fetch_recomp, st_unc_wb,
                bytes_approx, bytes_exact,
            )

        # --- deferred DRAM transfer log (packed words) -------------------
        log: list[int] = []
        emit = log.append
        read_events: list[int] = []  # event index per demand transfer
        note_demand = read_events.append
        extra_events: list[int] = []  # events with decompression cycles
        extra_cycles: list[int] = []

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
            first_dirty: int,
            tags: list[int] = tags,
            dirty: bytearray = dirty,
            ages: array[int] = ages,
            cms_slot: array[int] = cms_slot,
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
            dirty: bytearray = dirty,
            ages: array[int] = ages,
            cms_slot: array[int] = cms_slot,
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
            dirty: bytearray = dirty,
            ucl_slot: array[int] = ucl_slot,
            cms_slot: array[int] = cms_slot,
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
            dline: int,
            key_dirty: bool,
            tags: list[int] = tags,
            dirty: bytearray = dirty,
            ages: array[int] = ages,
            W: int = W,
            S: int = S,
            ucl_slot: array[int] = ucl_slot,
            real_blocks: list[int] = real_blocks,
            dispatch_victim: Callable[[int, int], None] = dispatch_victim,
        ) -> None:
            # insert a UCL into its set (its real line modulo the set
            # count), evicting the LRU way (an empty way carries age
            # EMPTY, below every clock value, so the set fills before
            # it evicts).  The victim's slot is only cleared implicitly
            # (overwritten below): the victim flows reach entries
            # exclusively through the slot tables, where the victim is
            # already gone.
            nonlocal clock
            base = ((real_blocks[dline >> 4] << 4 | (dline & 15)) % S) * W
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
            dirty: bytearray = dirty,
            ages: array[int] = ages,
            W: int = W,
            cms_slot: array[int] = cms_slot,
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
            ages: array[int] = ages,
            ucl_slot: array[int] = ucl_slot,
            pfe_thr: int | None = pfe_thr,
            alloc_ucl: Callable[[int, bool], None] = alloc_ucl,
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
                            alloc_ucl(dline, False)
            dbuf_k0d = k0
            dbuf_req = load_bit
            dbuf_in = load_bit

        # --- resident windows --------------------------------------------
        m = int(ev_dline.size)
        offsets = np.arange(BLOCK_CACHELINES, dtype=np.int64)

        def window_end(a: int, stop_at: int) -> int:
            # galloping search from `a`: the first event whose line is
            # absent, or the end of the longest window one pass takes
            limit = min(stop_at, a + _WINDOW_MAX)
            step = _PROBE
            while a < limit:
                b = min(a + step, limit)
                absent = np.flatnonzero(ucl_np[ev_dline[a:b]] < 0)
                if absent.size:
                    return a + int(absent[0])
                a = b
                step *= 2
            return limit

        def resolve_window(a: int, b: int) -> tuple[int, int, int]:
            # events [a, b) all find their line resident: replay their
            # touches in one pass.  Per event the clock ticks once per
            # touch: a DBUF read (DBUF enabled) or a writeback refreshes
            # its block's resident CMS group before the UCL, any other
            # approximate read after it, an exact read touches the UCL
            # only.  A slot's final age is its last touch.  Returns the
            # reads, DBUF hits and uncompressed hits.
            nonlocal clock, dbuf_req, dbuf_in
            dl = ev_dline[a:b]
            rd = ev_read[a:b]
            wb = ~rd
            k0 = dl & -BLOCK_CACHELINES
            in_dbuf = k0 == dbuf_k0d
            apx_rd = rd & ev_apx[a:b]
            dbuf_rd = apx_rd & in_dbuf & enable_dbuf
            before = dbuf_rd | wb
            # each refreshing block's resident CMS group, in order: none
            # unless its first sub-block is resident (and none sits
            # beyond the block's static size)
            refresh = ev_refresh[a:b]
            blocks, inv = np.unique(k0[refresh], return_inverse=True)
            cms = cms_np[blocks[:, None] + offsets]
            member = (cms >= 0) & (cms[:, :1] >= 0)
            group = np.zeros(b - a, dtype=np.int64)
            group[refresh] = member.sum(axis=1)[inv]
            touches = group + 1
            start = np.cumsum(touches) - touches + clock
            np.maximum.at(ages_np, ucl_np[dl], start + np.where(before, group, 0))
            # a group's ages come from its block's last refresh, which
            # starts one touch later when it follows the UCL
            last = np.full(blocks.size, EMPTY, dtype=np.int64)
            np.maximum.at(last, inv, start[refresh] + ~before[refresh])
            rank = np.cumsum(member, axis=1) - 1
            ages_np[cms[member]] = (last[:, None] + rank)[member]
            clock += int(touches.sum())
            dirty_np[ucl_np[dl[wb]]] = True
            bits = dl[dbuf_rd | (wb & in_dbuf)] & 15
            if bits.size:
                mask = int(np.bitwise_or.reduce(np.left_shift(1, bits)))
                dbuf_req |= mask
                dbuf_in |= mask
            n_dbuf = int(np.count_nonzero(dbuf_rd))
            return (
                int(np.count_nonzero(rd)),
                n_dbuf,
                int(np.count_nonzero(apx_rd)) - n_dbuf,
            )

        # --- steady state ------------------------------------------------
        cmt_fields = attrgetter(*CMTEntry.__slots__)

        def canonical() -> tuple[object, ...]:
            # the state every later outcome depends on (see Steady state)
            order = np.argsort(ages_np.reshape(S, W), axis=1, kind="stable")
            by_age = np.array(tags, dtype=np.int64).reshape(S, W)
            return (
                np.take_along_axis(by_age, order, axis=1).tobytes(),
                np.take_along_axis(dirty_np.reshape(S, W), order, axis=1).tobytes(),
                dbuf_k0d,
                dbuf_req,
                dbuf_in,
                {block: cmt_fields(entry) for block, entry in cmt_entries.items()},
                tuple(cmt_cache),
            )

        # where the copies the scan compares end, the last first
        start, width, copies = repeat or (0, 0, 0)
        checks = [
            start + j * width
            for j in range(min(copies - 1, LLC_SETTLE_COPIES), 0, -1)
        ]
        seen: tuple[object, ...] | None = None  # the state at the last check
        marks = (0, 0, 0, totals())  # output lengths and counters there
        ends = (0, 0, 0)  # output lengths where the unscanned copies go
        tiles = 0  # copies the scan did not scan
        tiled = [0] * len(_STAT_NAMES)  # their counter increments

        # --- the scan ----------------------------------------------------
        pos = 0
        next_probe = 0
        backoff = _PROBE
        stop_at = checks.pop() if checks else m
        decode(0, stop_at)
        while pos < m:
            if pos == stop_at:
                state = canonical()
                if state == seen:
                    # the last copy left the state it found: the rest
                    # repeat it
                    tiles = copies - (pos - start) // width
                    tiled = [
                        tiles * (now - then)
                        for now, then in zip(totals(), marks[3])
                    ]
                    ends = (len(log), len(read_events), len(extra_events))
                    pos = start + copies * width
                    checks.clear()
                else:
                    seen = state
                    marks = (len(log), len(read_events), len(extra_events), totals())
                stop_at = checks.pop() if checks else m
                decode(pos, stop_at)
                continue
            if pos >= next_probe:
                end = window_end(pos, stop_at)
                if end - pos >= _WINDOW_MIN:
                    hits, dbuf_hits, unc_hits = resolve_window(pos, end)
                    st_hits += hits
                    st_dbuf += dbuf_hits
                    st_unc += unc_hits
                    # the event that ended the window runs per-event,
                    # then the next probe
                    pos = end
                    next_probe = end + 1
                    backoff = _PROBE
                    continue
                # too short: per-event until the next probe, backing off
                next_probe = pos + backoff
                backoff = min(2 * backoff, _PROBE_CAP)
            stop = min(next_probe, stop_at)
            for i, rd, dline, apx, refresh in zip(
                range(pos, stop),
                ev_read[pos:stop].tolist(),
                ev_dline[pos:stop].tolist(),
                ev_apx[pos:stop].tolist(),
                ev_refresh[pos:stop].tolist(),
            ):
                if rd:
                    if apx:
                        k0 = dline & -16
                        if enable_dbuf and dbuf_k0d == k0:
                            hit_bit = 1 << (dline & 15)
                            dbuf_req |= hit_bit
                            dbuf_in |= hit_bit
                            st_dbuf += 1
                            st_hits += 1
                            if refresh:
                                slot = cms_slot[k0]
                                if slot >= 0:
                                    ages[slot] = clock
                                    clock += 1
                                    for idx in range(k0 + 1, k0 + size_by_bid[dline >> 4]):
                                        slot = cms_slot[idx]
                                        if slot >= 0:
                                            ages[slot] = clock
                                            clock += 1
                            slot = ucl_slot[dline]
                            if slot >= 0:
                                ages[slot] = clock
                                clock += 1
                            else:
                                alloc_ucl(dline, False)
                            continue
                        slot = ucl_slot[dline]
                        if slot >= 0:
                            ages[slot] = clock
                            clock += 1
                            st_unc += 1
                            st_hits += 1
                            if refresh:
                                slot = cms_slot[k0]
                                if slot >= 0:
                                    ages[slot] = clock
                                    clock += 1
                                    for idx in range(k0 + 1, k0 + size_by_bid[dline >> 4]):
                                        slot = cms_slot[idx]
                                        if slot >= 0:
                                            ages[slot] = clock
                                            clock += 1
                            continue
                        size = size_by_bid[dline >> 4]
                        if size < BLOCK_CACHELINES:
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
                                load_dbuf(k0, 1 << (dline & 15))
                                slot = ucl_slot[dline]
                                if slot >= 0:
                                    ages[slot] = clock
                                    clock += 1
                                else:
                                    alloc_ucl(dline, False)
                                extra_events.append(i)
                                extra_cycles.append(size + DECOMPRESS_LATENCY_CYCLES)
                                continue
                            # full miss on compressible approximate data
                            st_miss_apx += 1
                            st_misses += 1
                            block = real_blocks[dline >> 4]
                            entry = cmt_consult(block, size)
                            entry_size = entry.size_cachelines
                            if entry_size >= BLOCK_CACHELINES:
                                # stored uncompressed: fetch just the line
                                bytes_approx += 64
                                emit((block << 4 | (dline & 15)) << 13 | 5)
                                note_demand(i)
                                slot = ucl_slot[dline]
                                if slot >= 0:
                                    ages[slot] = clock
                                    clock += 1
                                else:
                                    alloc_ucl(dline, False)
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
                            load_dbuf(k0, 1 << (dline & 15))
                            slot = ucl_slot[dline]
                            if slot >= 0:
                                ages[slot] = clock
                                clock += 1
                            else:
                                alloc_ucl(dline, False)
                            extra_events.append(i)
                            extra_cycles.append(DECOMPRESS_LATENCY_CYCLES)
                            continue
                        # miss on an uncompressible approximate block: its
                        # CMT entry can never be compressed — line fetch
                        st_miss_apx += 1
                        st_misses += 1
                        block = real_blocks[dline >> 4]
                        cmt_consult(block, size)
                        bytes_approx += 64
                        emit((block << 4 | (dline & 15)) << 13 | 5)
                        note_demand(i)
                        slot = ucl_slot[dline]
                        if slot >= 0:
                            ages[slot] = clock
                            clock += 1
                        else:
                            alloc_ucl(dline, False)
                        continue
                    # exact read
                    slot = ucl_slot[dline]
                    if slot >= 0:
                        ages[slot] = clock
                        clock += 1
                        st_hits += 1
                        continue
                    st_misses += 1
                    bytes_exact += 64
                    emit((real_blocks[dline >> 4] << 4 | (dline & 15)) << 13 | 5)
                    note_demand(i)
                    alloc_ucl(dline, False)
                    continue
                # writeback
                k0 = dline & -16
                if dbuf_k0d == k0:
                    wb_bit = 1 << (dline & 15)
                    dbuf_req |= wb_bit
                    dbuf_in |= wb_bit
                if refresh:
                    slot = cms_slot[k0]
                    if slot >= 0:
                        ages[slot] = clock
                        clock += 1
                        for idx in range(k0 + 1, k0 + size_by_bid[dline >> 4]):
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
                    alloc_ucl(dline, True)
            pos = stop

        # --- stats -------------------------------------------------------
        # fold only the counters the event flows actually hit: absent
        # keys stay absent
        add = self.stats.add
        for name, count, more in zip(_STAT_NAMES, totals(), tiled):
            if count + more:
                add(name, count + more)
        # the unscanned copies' outputs go after the last scanned copy's
        return (
            _insert_copies(log, marks[0], ends[0], tiles, 0),
            _insert_copies(read_events, marks[1], ends[1], tiles, width),
            _insert_copies(extra_events, marks[2], ends[2], tiles, width),
            _insert_copies(extra_cycles, marks[2], ends[2], tiles, 0),
        )

    @property
    def mpki_misses(self) -> int:
        return int(self.stats["llc_misses"])


def _insert_copies(
    values: list[int], first: int, last: int, copies: int, step: int
) -> np.ndarray:
    """``values`` with ``copies`` copies of ``values[first:last]``
    inserted after it, copy ``k`` (from 1) advanced by ``k * step``."""
    array = np.array(values, dtype=np.int64)
    advance = np.arange(1, copies + 1, dtype=np.int64) * step
    return np.concatenate((
        array[:last],
        np.add.outer(advance, array[first:last]).ravel(),
        array[last:],
    ))
