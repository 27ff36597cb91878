"""Tests for shared config, stats and type definitions."""

import pytest

from repro.common import StatCounter, SystemConfig
from repro.common.config import CacheConfig
from repro.common.constants import (
    BITMAP_BYTES,
    BLOCK_BYTES,
    BLOCKS_PER_PAGE,
    CMT_ENTRY_BITS,
    MAX_OUTLIERS,
    SUMMARY_VALUES,
    VALUES_PER_BLOCK,
)
from repro.common.types import ErrorThresholds


class TestConstants:
    def test_block_geometry(self):
        assert BLOCK_BYTES == 1024
        assert VALUES_PER_BLOCK == 256
        assert SUMMARY_VALUES == 16  # exactly one cacheline of int32
        assert BITMAP_BYTES == 32  # half a cacheline
        assert BLOCKS_PER_PAGE == 4
        assert CMT_ENTRY_BITS == 23
        assert MAX_OUTLIERS == 104


class TestCacheConfig:
    def test_geometry(self):
        c = CacheConfig(64 * 1024, 4, 1)
        assert c.num_sets == 256
        assert c.num_lines == 1024

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 3, 64)

    @pytest.mark.parametrize("kwargs,field", [
        # divisible, but a 48 B line would be simulated as a 32 B one
        ({"size_bytes": 48 * 4 * 16, "ways": 4, "line_bytes": 48}, "line_bytes"),
        ({"size_bytes": 64 * 4, "ways": 4, "line_bytes": 0}, "line_bytes"),
        ({"size_bytes": 64 * 4, "ways": 0}, "ways"),
        ({"size_bytes": 64 * 4, "ways": -4}, "ways"),
        ({"size_bytes": 0, "ways": 4}, "size_bytes"),
        ({"size_bytes": -64 * 4, "ways": 4}, "size_bytes"),
    ])
    def test_unmodellable_geometry_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            CacheConfig(latency_cycles=1, **kwargs)

    def test_power_of_two_line_accepted(self):
        c = CacheConfig(32 * 4 * 8, 4, 1, line_bytes=32)
        assert c.num_sets == 8


class TestSystemConfig:
    def test_paper_matches_table1(self):
        c = SystemConfig.paper()
        assert c.num_cores == 8
        assert c.l1.size_bytes == 64 * 1024
        assert c.l2.size_bytes == 256 * 1024
        assert c.llc.size_bytes == 8 * 1024 * 1024
        assert c.llc.ways == 16
        assert c.llc.latency_cycles == 15
        assert c.dram.channels == 2
        assert c.core.frequency_ghz == 3.2

    def test_scaled_is_smaller_same_structure(self):
        p, s = SystemConfig.paper(), SystemConfig.scaled()
        assert s.l1.size_bytes < p.l1.size_bytes
        assert s.l2.size_bytes < p.l2.size_bytes
        assert s.llc.size_bytes < p.llc.size_bytes
        # hierarchy ordering preserved
        assert s.l1.size_bytes < s.l2.size_bytes < s.llc.size_bytes

    def test_with_thresholds(self):
        c = SystemConfig.paper().with_thresholds(ErrorThresholds(0.04, 0.02))
        assert c.thresholds.t1 == 0.04


class TestErrorThresholds:
    def test_defaults_tight(self):
        th = ErrorThresholds()
        assert th.t1 == 2 * th.t2

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorThresholds(t1=0.0)
        with pytest.raises(ValueError):
            ErrorThresholds(t2=1.5)

    def test_from_t2_caps_at_one(self):
        assert ErrorThresholds.from_t2(0.9).t1 == 1.0


class TestStatCounter:
    def test_add_and_get(self):
        s = StatCounter()
        s.add("hits")
        s.add("hits", 2)
        assert s["hits"] == 3
        assert s.get("misses") == 0

    def test_merge(self):
        a, b = StatCounter({"x": 1}), StatCounter({"x": 2, "y": 5})
        a.merge(b)
        assert a["x"] == 3 and a["y"] == 5

    def test_ratio(self):
        s = StatCounter({"h": 3, "t": 4})
        assert s.ratio("h", "t") == pytest.approx(0.75)
        assert s.ratio("h", "absent") == 0.0

    def test_reset(self):
        s = StatCounter({"a": 1, "b": 2})
        s.reset(["a"])
        assert "a" not in s and s["b"] == 2
        s.reset()
        assert s.as_dict() == {}
