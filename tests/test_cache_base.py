"""Tests for the oracle's dict-based cache level and private hierarchy."""

from hypothesis import given
from hypothesis import strategies as st

from oracles import PrivateCaches, SetAssocCache
from repro.common.config import CacheConfig, SystemConfig


def tiny_cache(sets=4, ways=2):
    return SetAssocCache(CacheConfig(sets * ways * 64, ways, 1))


class TestSetAssocCache:
    def test_miss_then_hit(self):
        c = tiny_cache()
        hit, _ = c.access(0, False)
        assert not hit
        hit, _ = c.access(0, False)
        assert hit
        assert c.hits == 1 and c.misses == 1

    def test_same_line_different_bytes(self):
        c = tiny_cache()
        c.access(0, False)
        hit, _ = c.access(63, False)
        assert hit

    def test_lru_eviction_order(self):
        c = tiny_cache(sets=1, ways=2)
        c.access(0 * 64, False)
        c.access(1 * 64, False)
        c.access(0 * 64, False)  # touch line 0 -> line 1 becomes LRU
        _, victim = c.access(2 * 64, False)
        assert victim is not None and victim[0] == 1 * 64

    def test_victim_dirtiness(self):
        c = tiny_cache(sets=1, ways=1)
        c.access(0, True)
        _, victim = c.access(64 * 1, False)
        assert victim == (0, True)

    def test_write_marks_dirty_on_hit(self):
        c = tiny_cache(sets=1, ways=1)
        c.access(0, False)
        c.access(0, True)
        _, victim = c.access(64, False)
        assert victim == (0, True)

    def test_probe_does_not_disturb(self):
        c = tiny_cache(sets=1, ways=2)
        c.access(0, False)
        c.access(64, False)
        assert c.probe(0)
        # probing 0 must NOT make it MRU: inserting a new line evicts 0
        _, victim = c.access(128, False)
        assert victim[0] == 0

    def test_invalidate(self):
        c = tiny_cache()
        c.access(0, True)
        assert c.invalidate(0) is True
        assert c.invalidate(0) is None
        assert not c.probe(0)

    def test_insert_returns_victim(self):
        c = tiny_cache(sets=1, ways=1)
        assert c.insert(0, dirty=True) is None
        victim = c.insert(64, dirty=False)
        assert victim == (0, True)

    def test_insert_merges_dirty(self):
        c = tiny_cache(sets=1, ways=1)
        c.insert(0, dirty=False)
        c.insert(0, dirty=True)
        _, victim = c.access(64, False)
        assert victim == (0, True)

    def test_capacity_multiplier_rounds_ways(self):
        cfg = CacheConfig(4 * 4 * 64, 4, 1)
        assert SetAssocCache(cfg, 2.0).ways == 8
        assert SetAssocCache(cfg, 0.1).ways == 1  # never below 1

    def test_set_mapping(self):
        c = tiny_cache(sets=4, ways=1)
        # lines 0 and 4 map to the same set (line % 4)
        c.access(0 * 64, False)
        _, victim = c.access(4 * 64, False)
        assert victim is not None
        # line 1 maps elsewhere: no eviction
        _, victim = c.access(1 * 64, False)
        assert victim is None

    @given(st.lists(st.tuples(st.integers(0, 31), st.booleans()), max_size=200))
    def test_matches_reference_lru_model(self, ops):
        """The dict-ordered implementation equals a simple LRU list model."""
        c = tiny_cache(sets=2, ways=4)
        model: dict[int, list] = {0: [], 1: []}  # set -> [line,...] MRU last
        dirty: dict[int, bool] = {}
        for line, write in ops:
            addr = line * 64
            sidx = line % 2
            lst = model[sidx]
            expect_hit = line in lst
            hit, victim = c.access(addr, write)
            assert hit == expect_hit
            if expect_hit:
                lst.remove(line)
                dirty[line] = dirty.get(line, False) or write
            else:
                if len(lst) >= 4:
                    v = lst.pop(0)
                    assert victim == (v * 64, dirty.pop(v, False))
                else:
                    assert victim is None
                dirty[line] = write
            lst.append(line)


class TestPrivateCaches:
    def test_l1_hit_cheap(self):
        p = PrivateCaches(SystemConfig.scaled())
        lat1, needs, _ = p.access(0, False)
        assert needs  # cold miss
        lat2, needs2, _ = p.access(0, False)
        assert not needs2
        assert lat2 < lat1

    def test_l2_catches_l1_evictions(self):
        cfg = SystemConfig.scaled()
        p = PrivateCaches(cfg)
        # fill far beyond L1 (4 KB) but within L2 (16 KB)
        for i in range(128):
            p.access(i * 64, False)
        # early lines should hit in L2 now (L1 capacity 64 lines)
        lat, needs, _ = p.access(0, False)
        assert not needs

    def test_dirty_writeback_emerges(self):
        cfg = SystemConfig.scaled()
        p = PrivateCaches(cfg)
        p.access(0, True)
        writebacks = []
        # flood both levels with clean lines until line 0 falls out of L2
        for i in range(1, 2048):
            _, _, wbs = p.access(i * 64, False)
            writebacks.extend(wbs)
        assert any(addr == 0 for addr, _ in writebacks)

    def test_miss_latency_accumulates_levels(self):
        cfg = SystemConfig.scaled()
        p = PrivateCaches(cfg)
        lat, needs, _ = p.access(12345 * 64, False)
        assert needs
        assert lat == cfg.l1.latency_cycles + cfg.l2.latency_cycles
