"""Tests for approximable-memory regions and the sync engine."""

import numpy as np
import pytest

from repro.approx import (
    ApproxMemory,
    AVRApproximator,
    DoppelgangerApproximator,
    ExactApproximator,
    TruncateApproximator,
    approximator_for,
    padded_bytes,
    padded_pages,
)
from repro.approx.region import Region
from repro.common.constants import BLOCK_BYTES, PAGE_BYTES
from repro.common.types import DataType, ErrorThresholds
from repro.workloads import make_workload


class TestRegion:
    def test_base_must_be_page_aligned(self):
        with pytest.raises(ValueError):
            Region("x", 100, np.zeros(4, dtype=np.float32), True)

    def test_block_accounting(self):
        r = Region("x", PAGE_BYTES, np.zeros(300, dtype=np.float32), True)
        assert r.nbytes == 1200
        assert r.num_blocks == 2  # 1200 B -> two 1 KB blocks
        assert r.end_addr == PAGE_BYTES + 2 * BLOCK_BYTES

    def test_contains_and_block_index(self):
        r = Region("x", PAGE_BYTES, np.zeros(1024, dtype=np.float32), True)
        assert r.contains(PAGE_BYTES)
        assert r.contains(PAGE_BYTES + 4095)
        assert not r.contains(PAGE_BYTES - 1)
        assert r.block_index(PAGE_BYTES + BLOCK_BYTES + 5) == 1
        with pytest.raises(ValueError):
            r.block_index(0)

    def test_padding_helpers(self):
        assert padded_bytes(1) == BLOCK_BYTES
        assert padded_bytes(BLOCK_BYTES) == BLOCK_BYTES
        assert padded_pages(1) == PAGE_BYTES
        assert padded_pages(PAGE_BYTES + 1) == 2 * PAGE_BYTES


class TestAlloc:
    def test_alloc_returns_zeroed_array(self):
        mem = ApproxMemory()
        arr = mem.alloc("a", (10, 10))
        assert arr.shape == (10, 10)
        assert arr.dtype == np.float32
        assert (arr == 0).all()

    def test_alloc_with_init(self):
        mem = ApproxMemory()
        arr = mem.alloc("a", 8, init=np.arange(8))
        assert np.array_equal(arr, np.arange(8, dtype=np.float32))

    def test_duplicate_name_rejected(self):
        mem = ApproxMemory()
        mem.alloc("a", 4)
        with pytest.raises(ValueError):
            mem.alloc("a", 4)

    def test_regions_page_aligned_non_overlapping(self):
        mem = ApproxMemory()
        mem.alloc("a", 1000)
        mem.alloc("b", 2000)
        ra, rb = mem.region("a"), mem.region("b")
        assert ra.base_addr % PAGE_BYTES == 0
        assert rb.base_addr % PAGE_BYTES == 0
        assert rb.base_addr >= ra.base_addr + ra.nbytes

    def test_region_for_addr(self):
        mem = ApproxMemory()
        mem.alloc("a", 256)
        region = mem.region_for_addr(mem.region("a").base_addr + 4)
        assert region is not None and region.name == "a"
        assert mem.region_for_addr(0) is None

    def test_fixed32_dtype(self):
        mem = ApproxMemory()
        arr = mem.alloc("a", 8, dtype=DataType.FIXED32)
        assert arr.dtype == np.int32


class TestSync:
    def test_exact_approximator_is_identity(self):
        mem = ApproxMemory(ExactApproximator())
        arr = mem.alloc("a", 512, init=np.linspace(0, 1, 512))
        before = arr.copy()
        mem.sync()
        assert np.array_equal(arr, before)

    def test_avr_sync_modifies_in_place(self):
        mem = ApproxMemory(AVRApproximator(ErrorThresholds(0.02, 0.01)))
        # curved data: compresses but not exactly reconstructible
        x = np.linspace(0.0, 3.0, 2048)
        data = (np.sin(x) + 2.0).astype(np.float32)
        arr = mem.alloc("a", 2048, init=data)
        mem.sync()
        assert not np.array_equal(arr, data)  # approximated
        assert np.allclose(arr, data, rtol=0.03)  # ...but within T1

    def test_non_approx_region_untouched(self):
        mem = ApproxMemory(TruncateApproximator())
        exact = mem.alloc("exact", 256, approx=False, init=np.full(256, 1.2345))
        before = exact.copy()
        mem.sync()
        assert np.array_equal(exact, before)

    def test_sync_subset_by_name(self):
        mem = ApproxMemory(TruncateApproximator())
        a = mem.alloc("a", 256, init=np.full(256, 1.2345671))
        b = mem.alloc("b", 256, init=np.full(256, 1.2345671))
        mem.sync(["a"])
        assert not np.array_equal(a, b)

    def test_block_size_map_populated_by_avr(self):
        mem = ApproxMemory(AVRApproximator())
        mem.alloc("a", 1024, init=np.linspace(1, 2, 1024))
        mem.sync()
        sizes = mem.block_size_map()
        base = mem.region("a").base_addr
        assert base in sizes
        assert sizes[base].shape == (4,)  # 4 KB = 4 blocks
        assert (sizes[base] >= 1).all()

    def test_avr_tail_padding_no_spurious_failure(self):
        """A region that isn't a whole number of blocks pads by edge
        replication, so the tail block still compresses."""
        mem = ApproxMemory(AVRApproximator())
        mem.alloc("a", 300, init=np.linspace(1, 2, 300))  # 1.2 blocks
        mem.sync()
        sizes = mem.block_size_map()[mem.region("a").base_addr]
        assert (sizes <= 8).all()


class TestReporting:
    def test_footprint_and_fractions(self):
        mem = ApproxMemory()
        mem.alloc("a", 1024, approx=True)
        mem.alloc("b", 1024, approx=False)
        assert mem.footprint_bytes == 8192
        assert mem.approx_bytes == 4096
        assert mem.approx_fraction == pytest.approx(0.5)

    def test_compression_ratio_after_sync(self):
        mem = ApproxMemory(AVRApproximator())
        mem.alloc("a", 4096, init=np.linspace(1, 2, 4096))
        assert mem.compression_ratio() == 1.0  # nothing measured yet
        mem.sync()
        assert mem.compression_ratio() > 4.0

    def test_footprint_vs_baseline(self):
        mem = ApproxMemory(AVRApproximator())
        mem.alloc("a", 4096, approx=True, init=np.linspace(1, 2, 4096))
        mem.alloc("b", 4096, approx=False)
        mem.sync()
        frac = mem.footprint_vs_baseline()
        assert 0.5 < frac < 1.0  # exact half + compressed half

    def test_dedup_factor_reported(self):
        mem = ApproxMemory(DoppelgangerApproximator(0.01))
        mem.alloc("a", 4096, init=np.ones(4096))
        mem.sync()
        assert mem.dedup_factor() > 10.0

    def test_region_marked_after_allocation_reports_its_ratio(self):
        """``Workload.run`` re-marks regions after allocating them; the
        report follows the round trips, not the allocation's flag."""
        mem = ApproxMemory(AVRApproximator())
        mem.alloc("a", 4096, approx=False, init=np.linspace(1, 2, 4096))
        mem.regions["a"].approx = True
        mem.sync()
        report = mem.reports["a"]
        assert report.syncs == 1
        assert report.compression_ratio == report.last.compression_ratio > 4.0

    def test_lbm_dganger_report_counts_f(self):
        """lbm allocates ``f`` exact and marks it approximable under
        Doppelgänger: its report counts all 50 round trips and keeps no
        allocation-time flag that would still call ``f`` exact."""
        result = make_workload("lbm", scale=0.05).run("dganger")
        mem = result.memory
        report = mem.reports["f"]
        assert mem.regions["f"].approx
        assert report.syncs == result.iterations == 50
        assert report.last.dedup_factor > 100.0
        assert set(vars(report)) == {"name", "nbytes", "syncs", "last"}


class TestApproximatorFactory:
    @pytest.mark.parametrize(
        "design,cls",
        [
            ("baseline", ExactApproximator),
            ("ZeroAVR", ExactApproximator),
            ("AVR", AVRApproximator),
            ("truncate", TruncateApproximator),
            ("dganger", DoppelgangerApproximator),
        ],
    )
    def test_mapping(self, design, cls):
        assert isinstance(approximator_for(design, None, 0.02), cls)

    def test_truncate_rejects_fixed(self):
        mem = ApproxMemory(TruncateApproximator())
        mem.alloc("a", 256, dtype=DataType.FIXED32)
        with pytest.raises(NotImplementedError):
            mem.sync()
