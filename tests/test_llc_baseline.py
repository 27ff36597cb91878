"""Tests for the baseline/Truncate/Doppelgänger LLC models.

Each scenario replays through a fresh ``BaselineLLC`` and its
per-event oracle twin (:func:`oracles.replay_llc` asserts they agree).
"""

import numpy as np

from oracles import replay_llc
from repro.cache.llc_baseline import BaselineLLC
from repro.common.config import CacheConfig, DRAMConfig
from repro.memory import DRAM
from repro.system.layout import AddressLayout


def replay(events, capacity_multiplier=1.0, approx_line_bytes=64, layout=None):
    return replay_llc(
        BaselineLLC,
        events,
        CacheConfig(64 * 8 * 64, 8, 15),
        layout if layout is not None else AddressLayout(),
        capacity_multiplier=capacity_multiplier,
        approx_line_bytes=approx_line_bytes,
    )


def test_miss_then_hit():
    out = replay([("r", 0), ("r", 0)])
    assert out.stats["llc_misses"] == 1
    assert out.stats["llc_hits"] == 1
    assert out.dram_stats["bytes_read"] == 64


def test_dirty_writeback_traffic():
    # flood the set to force the dirty victim out
    out = replay([("w", 0)] + [("r", i * 64 * 64) for i in range(1, 12)])
    assert out.dram_stats["bytes_written"] == 64
    assert out.stats["writebacks"] == 1


def test_truncate_mode_halves_approx_traffic():
    layout = AddressLayout()
    layout.add_region(0, 1 << 20, 16)
    out = replay(
        [("r", 0), ("r", 1 << 21)],  # an approx line (32 B), an exact one (64 B)
        approx_line_bytes=32,
        layout=layout,
    )
    assert out.stats["bytes_approx"] == 32
    assert out.stats["bytes_exact"] == 64
    assert out.dram_stats["bytes_read"] == 96  # all the traffic: two reads


def test_capacity_multiplier_reduces_misses():
    # working set > base capacity (512 lines)
    events = 3 * [("r", i * 64) for i in range(700)]

    def misses(mult):
        return replay(events, capacity_multiplier=mult).stats["llc_misses"]

    assert misses(2.0) < misses(1.0)


def test_latency_hit_vs_miss():
    lat_miss, lat_hit = replay([("r", 0), ("r", 0)]).latencies
    assert lat_hit == 15
    assert lat_miss > lat_hit


def test_mpki_misses_property():
    llc = BaselineLLC(
        CacheConfig(64 * 8 * 64, 8, 15), DRAM(DRAMConfig()), AddressLayout()
    )
    llc.replay_batch(np.array([0, 64 * 64], dtype=np.int64), np.array([True, True]))
    assert llc.mpki_misses == 2
