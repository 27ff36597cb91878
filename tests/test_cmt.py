"""Tests for the Compression Metadata Table.

The table's lookups and the entry policy methods are the oracle's
(``AVRLLC``'s replay walks the same policy inline, pinned by the
engine-equivalence suite); the geometry constants are the package's.
"""

from oracles import CMT, CMTEntryReference
from repro.cache.cmt import CACHE_PAGES, MISS_TRAFFIC_BYTES
from repro.common.constants import BLOCK_BYTES, MAX_SKIP_COUNT


class TestCMTEntry:
    def test_defaults_uncompressed(self):
        e = CMTEntryReference()
        assert not e.compressed
        assert e.lazy_capacity == 0
        assert not e.lazy_possible()

    def test_lazy_capacity(self):
        e = CMTEntryReference(size_cachelines=3)
        assert e.compressed
        assert e.lazy_capacity == 13
        assert e.lazy_possible()
        e.lazy_count = 13
        assert not e.lazy_possible()

    def test_skip_policy_progression(self):
        e = CMTEntryReference()
        # never failed: no skipping
        assert not e.should_skip_recompression()
        e.record_failure()
        # one failure -> skip one attempt
        assert e.should_skip_recompression()
        e.record_skip()
        assert not e.should_skip_recompression()
        # more failures allow more skips (capped)
        for _ in range(10):
            e.record_failure()
        skips = 0
        while e.should_skip_recompression():
            e.record_skip()
            skips += 1
        assert skips == MAX_SKIP_COUNT

    def test_success_resets_counters(self):
        e = CMTEntryReference()
        e.record_failure()
        e.record_skip()
        e.record_success(2)
        assert e.size_cachelines == 2
        assert e.failed == 0 and e.skipped == 0

    def test_failure_counter_saturates(self):
        e = CMTEntryReference()
        for _ in range(100):
            e.record_failure()
        assert e.failed <= 15  # 4-bit field


class TestCMTCache:
    def test_lookup_creates_entry_with_default(self):
        cmt = CMT()
        entry, cached = cmt.lookup(5 * BLOCK_BYTES + 100, default_size=4)
        assert entry.size_cachelines == 4
        assert not cached  # first touch misses the CMT cache

    def test_same_page_hits(self):
        cmt = CMT()
        cmt.lookup(0)
        _, cached = cmt.lookup(BLOCK_BYTES)  # same 4 KB page
        assert cached

    def test_entry_identity_per_block(self):
        cmt = CMT()
        a, _ = cmt.lookup(0)
        b, _ = cmt.lookup(63)
        c, _ = cmt.lookup(BLOCK_BYTES)
        assert a is b
        assert a is not c

    def test_cache_capacity_evicts_lru(self):
        cmt = CMT()
        for page in range(CMT.CACHE_PAGES + 1):
            cmt.lookup(page * 4096)
        _, cached = cmt.lookup(0)  # oldest page was evicted
        assert not cached

    def test_cache_lru_refresh(self):
        cmt = CMT()
        cmt.lookup(0)
        for page in range(1, CMT.CACHE_PAGES):
            cmt.lookup(page * 4096)
        cmt.lookup(0)  # refresh page 0
        cmt.lookup(CMT.CACHE_PAGES * 4096)  # evicts page 1, not 0
        _, cached = cmt.lookup(0)
        assert cached

    def test_miss_traffic_bytes(self):
        # 4 entries x 23 bits per page -> 92 bits -> 12 bytes
        assert CMT.miss_traffic_bytes() == MISS_TRAFFIC_BYTES == 12
        assert CMT.CACHE_PAGES == CACHE_PAGES

    def test_block_addr_alignment(self):
        assert CMT.block_addr(BLOCK_BYTES + 5) == BLOCK_BYTES

    def test_default_size_only_seeds_first_touch(self):
        cmt = CMT()
        e, _ = cmt.lookup(0, default_size=2)
        e.record_success(5)
        e2, _ = cmt.lookup(0, default_size=2)
        assert e2.size_cachelines == 5
