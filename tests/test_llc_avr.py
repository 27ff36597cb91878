"""Tests for the AVR LLC: request flows (Fig. 7) and evictions (Fig. 8).

Every scenario is an event list replayed through a fresh ``AVRLLC``
(``replay_batch``, the production path) and through its per-event
oracle twin; :func:`oracles.replay_llc` asserts the two agree on every
read latency and on the LLC and DRAM stats, and the tests then check
the flow the scenario exercises.
"""

from oracles import decode_cms_key, replay_llc
from repro.cache.llc_avr import AVRLLC
from repro.common.config import CacheConfig, DRAMConfig
from repro.common.constants import BLOCK_BYTES, BLOCK_CACHELINES, CACHELINE_BYTES
from repro.memory import DRAM
from repro.system.layout import AddressLayout

#: one approximable region for the tests
APPROX_BASE = 0x10000
APPROX_END = APPROX_BASE + 64 * BLOCK_BYTES


def replay(events, block_size=2, sets=64, ways=8, **options):
    """Replay ``events`` through a fresh AVRLLC and its oracle twin."""
    layout = AddressLayout()
    layout.add_region(APPROX_BASE, APPROX_END - APPROX_BASE, block_size)
    config = CacheConfig(sets * ways * 64, ways, 15)
    return replay_llc(AVRLLC, events, config, layout, **options)


def reads(*addrs):
    return [("r", a) for a in addrs]


def flood(addr, sets=64, ways=8, base=0x4000000):
    """Exact reads mapping to ``addr``'s UCL set until it is evicted."""
    set_idx = addr // CACHELINE_BYTES % sets
    first = base // CACHELINE_BYTES // sets
    return reads(*(
        ((first + i) * sets + set_idx) * CACHELINE_BYTES for i in range(ways + 2)
    ))


class TestRequestFlow:
    def test_exact_miss_fetches_one_line(self):
        out = replay(reads(0))
        assert out.dram_stats["bytes_read"] == 64
        assert out.stats["llc_misses"] == 1

    def test_exact_then_hit(self):
        out = replay(reads(0, 0))
        assert out.stats["llc_hits"] == 1

    def test_approx_miss_fetches_compressed_block(self):
        out = replay(reads(APPROX_BASE), block_size=2)
        assert out.stats["req_miss"] == 1
        assert out.dram_stats["bytes_read"] == 2 * 64 + 12  # block + CMT miss

    def test_dbuf_serves_block_neighbors(self):
        before = replay(reads(APPROX_BASE)).dram_stats["bytes_read"]
        out = replay(reads(APPROX_BASE, APPROX_BASE + 5 * CACHELINE_BYTES))
        assert out.stats["req_hit_dbuf"] == 1
        assert out.dram_stats["bytes_read"] == before  # no new traffic

    def test_compressed_hit_after_dbuf_replaced(self):
        out = replay(reads(
            APPROX_BASE,  # block A in LLC + DBUF
            APPROX_BASE + BLOCK_BYTES,  # block B replaces DBUF
            # A line of block A not inserted as UCL: served from CMS in LLC
            APPROX_BASE + 7 * CACHELINE_BYTES,
        ))
        assert out.stats["req_hit_compressed"] == 1

    def test_uncompressed_hit(self):
        out = replay(reads(
            APPROX_BASE,
            APPROX_BASE + BLOCK_BYTES,  # flush DBUF
            APPROX_BASE,  # the originally-requested UCL is in LLC
        ))
        assert out.stats["req_hit_uncompressed"] == 1

    def test_uncompressible_block_fetches_single_line(self):
        out = replay(reads(APPROX_BASE), block_size=BLOCK_CACHELINES)
        assert out.dram_stats["bytes_read"] == 64 + 12  # line + CMT metadata

    def test_decompression_latency_charged(self):
        out = replay(reads(APPROX_BASE, APPROX_BASE + CACHELINE_BYTES))
        lat_miss, lat_dbuf = out.latencies
        assert lat_miss > lat_dbuf

    def test_decompression_count(self):
        out = replay(reads(APPROX_BASE, APPROX_BASE + BLOCK_BYTES))
        assert out.stats["decompressions"] == 2

    def test_pfe_prefetch_on_popular_block(self):
        # request >= half of the block's lines, then replace the DBUF
        events = reads(*(APPROX_BASE + i * CACHELINE_BYTES for i in range(8)))
        events += reads(APPROX_BASE + BLOCK_BYTES)  # PFE fires
        assert replay(events).stats["pfe_prefetches"] == 8
        # prefetched lines now hit as UCLs
        out = replay(events + reads(APPROX_BASE + 12 * CACHELINE_BYTES))
        assert out.stats["req_hit_uncompressed"] >= 1


class TestEvictionFlow:
    def test_recompress_when_cms_resident(self):
        # brings CMSs into LLC (sets 0..size-1)
        before = replay(reads(APPROX_BASE)).dram_stats.get("bytes_written", 0)
        # Evict a dirty UCL whose set (5) differs from the CMS sets, so
        # the compressed copy stays resident while the UCL falls out.
        target = APPROX_BASE + 5 * CACHELINE_BYTES
        out = replay(reads(APPROX_BASE) + [("w", target)] + flood(target))
        assert out.stats["evict_recompress"] >= 1
        # no memory traffic
        assert out.dram_stats.get("bytes_written", 0) == before

    def test_lazy_writeback_when_block_only_in_memory(self):
        # dirty UCL; block never fetched
        out = replay([("w", APPROX_BASE)] + flood(APPROX_BASE), block_size=2)
        assert out.stats["evict_lazy_writeback"] >= 1
        assert out.dram_stats["bytes_written"] >= 64

    def test_lazy_space_exhaustion_triggers_fetch_recompress(self):
        events = []
        for i in range(3):
            addr = APPROX_BASE + i * CACHELINE_BYTES
            events += [("w", addr)] + flood(addr)
        out = replay(events, block_size=14)  # only 2 lazy slots
        assert out.stats["evict_lazy_writeback"] == 2
        assert out.stats["evict_fetch_recompress"] >= 1

    def test_uncompressible_block_writes_back_plain(self):
        out = replay(
            [("w", APPROX_BASE)] + flood(APPROX_BASE),
            block_size=BLOCK_CACHELINES,
        )
        assert out.stats["evict_uncompressed_writeback"] >= 1

    def test_skip_counter_limits_attempts(self):
        """An uncompressible block fails once, then skips retries."""
        out = replay(
            4 * ([("w", APPROX_BASE)] + flood(APPROX_BASE)),
            block_size=BLOCK_CACHELINES,
        )
        entry, _ = out.reference.cmt.lookup(APPROX_BASE)
        assert entry.failed >= 1
        assert out.stats["evict_uncompressed_writeback"] == 4
        # attempt (fails), skip, attempt (fails), skip
        assert out.stats["compressions"] == 2

    def test_cms_group_eviction(self):
        """Evicting one CMS evicts every CMS of the block."""
        block_no = APPROX_BASE // BLOCK_BYTES
        set0 = block_no % 16  # the set of the block's CMS0
        events = reads(APPROX_BASE)
        for j in range(4):
            line = (set0 + j * 16) * CACHELINE_BYTES + 0x100000 * 64
            events.append(("w", line + 64 * 16 * 100))
        # flood the CMS sets until block's CMS0 is evicted
        events += flood(set0 * CACHELINE_BYTES, sets=16, ways=2, base=0x8000000)
        out = replay(events, block_size=4, sets=16, ways=2)
        assert out.reference._block_cms_present(block_no) == 0
        assert out.stats["cms_block_evictions"] >= 1

    def test_exact_dirty_eviction_writes_line(self):
        out = replay([("w", 0)] + flood(0))
        assert out.stats["exact_writebacks"] >= 1
        assert out.dram_stats["bytes_written"] >= 64


class TestCMSLRURefresh:
    def test_ucl_access_keeps_cms_hot(self):
        """Accessing a block's UCLs refreshes its CMS recency, so the
        compressed copy survives streaming UCL traffic (paper §3.4)."""
        events = reads(APPROX_BASE)
        for i in range(200):
            # keep touching a UCL of the block under exact streaming
            events += reads(APPROX_BASE, 0x4000000 + i * 64)
        out = replay(events, block_size=1, sets=8, ways=4)
        block_no = APPROX_BASE // BLOCK_BYTES
        assert out.reference._block_cms_present(block_no) >= 1


class TestPFESentinel:
    """PFE_DEFAULT keeps the paper policy; None genuinely disables."""

    @staticmethod
    def _llc(**options):
        return AVRLLC(
            CacheConfig(64 * 8 * 64, 8, 15), DRAM(DRAMConfig()),
            AddressLayout(), **options,
        )

    def test_default_is_paper_threshold(self):
        from repro.cache.llc_avr import PFE_THRESHOLD

        assert self._llc().pfe_threshold == PFE_THRESHOLD

    def test_explicit_sentinel_matches_default(self):
        from repro.cache.llc_avr import PFE_THRESHOLD
        from repro.cache.llc_avr import PFE_DEFAULT

        assert self._llc(pfe_threshold=PFE_DEFAULT).pfe_threshold == PFE_THRESHOLD

    def test_none_disables_prefetching(self):
        assert self._llc(pfe_threshold=None).pfe_threshold is None
        # request every line, then replace the DBUF
        events = reads(*(
            APPROX_BASE + i * CACHELINE_BYTES for i in range(BLOCK_CACHELINES)
        ))
        out = replay(events + reads(APPROX_BASE + BLOCK_BYTES), pfe_threshold=None)
        assert out.stats.get("pfe_prefetches", 0) == 0

    def test_sentinel_is_cache_key_safe(self):
        from repro.cache.llc_avr import PFE_DEFAULT
        from repro.harness.cache import content_key

        key = content_key("x", {"pfe_threshold": PFE_DEFAULT})
        assert key  # canonicalizes without TypeError


class TestInvariants:
    """Structural invariants of the oracle's packed-key data array."""

    #: mixed traffic: hits, misses, writebacks, floods, prefetches
    WORKOUT = (
        reads(*(APPROX_BASE + i * CACHELINE_BYTES for i in range(40)))
        + [("w", APPROX_BASE + i * CACHELINE_BYTES) for i in range(0, 30, 3)]
        # exact pressure evicts UCLs and CMS groups
        + reads(*(0x4000000 + i * CACHELINE_BYTES for i in range(60)))
        + reads(*(
            APPROX_BASE + 4 * BLOCK_BYTES + i * CACHELINE_BYTES
            for i in range(12)
        ))
    )

    def test_clean_after_workout(self):
        out = replay(self.WORKOUT, block_size=3, sets=16, ways=4)
        assert out.reference.check_invariants() == []

    def test_no_cms_beyond_static_size(self):
        """The size-bounded eviction sweep's licence: CMS offsets stay
        strictly below the block's static compressed size."""
        ref = replay(self.WORKOUT, block_size=4, sets=16, ways=4).reference
        resident = [k for k in ref._slot_of if k < -1]
        assert resident, "workout should leave compressed blocks resident"
        for key in resident:
            block_no, off = decode_cms_key(key)
            assert off < ref.block_size_of(block_no * BLOCK_BYTES)

    def test_index_detects_corruption(self):
        ref = replay(reads(APPROX_BASE)).reference
        slot = next(iter(ref._slot_of.values()))
        ref.tags[slot] = 0xDEAD  # corrupt the tag plane
        assert ref.check_invariants()
