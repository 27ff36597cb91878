"""Tests for the address layout, system factory and timing simulator."""

import numpy as np
import pytest

from oracles import block_size_of, is_approx, make_trace
from repro.cache.llc_avr import AVRLLC
from repro.cache.llc_baseline import BaselineLLC
from repro.common.config import SystemConfig
from repro.common.constants import BLOCK_BYTES, BLOCK_CACHELINES
from repro.designs import AVR, BASELINE, DGANGER, TRUNCATE, ZERO_AVR
from repro.system import AddressLayout, build_system, compute_front_end
from repro.trace.generator import GeneratedTrace

CONFIG = SystemConfig.scaled(num_cores=2)


class TestAddressLayout:
    def test_empty_layout(self):
        layout = AddressLayout()
        assert not is_approx(layout, 0)
        assert block_size_of(layout, 0) == BLOCK_CACHELINES
        assert layout.mean_compression_ratio() == 1.0

    def test_constant_sizes(self):
        layout = AddressLayout()
        layout.add_region(0x10000, 4 * BLOCK_BYTES, 2)
        assert is_approx(layout, 0x10000)
        assert is_approx(layout, 0x10000 + 4 * BLOCK_BYTES - 1)
        assert not is_approx(layout, 0x10000 + 4 * BLOCK_BYTES)
        assert block_size_of(layout, 0x10000 + BLOCK_BYTES) == 2
        assert layout.mean_compression_ratio() == pytest.approx(8.0)

    def test_array_sizes(self):
        layout = AddressLayout()
        sizes = np.array([1, 2, 4, 16], dtype=np.int32)
        layout.add_region(0, 4 * BLOCK_BYTES, sizes)
        assert block_size_of(layout, 2 * BLOCK_BYTES) == 4
        assert layout.approx_bytes == 4 * BLOCK_BYTES

    def test_short_size_array_padded(self):
        layout = AddressLayout()
        layout.add_region(0, 4 * BLOCK_BYTES, np.array([2, 2], dtype=np.int32))
        assert block_size_of(layout, 3 * BLOCK_BYTES) == 2


def _tiny_trace(num_cores=2, lines=512, gap=50):
    cores = []
    for c in range(num_cores):
        addrs = (np.arange(lines) * 64 + 0x10000 + c * lines * 64).astype(np.int64)
        cores.append(
            make_trace(addrs, np.zeros(lines, bool), np.full(lines, gap))
        )
    return GeneratedTrace(cores=cores, iterations_simulated=1, iterations_total=1)


class TestFactory:
    def test_baseline_llc_type(self):
        sys_ = build_system(BASELINE, CONFIG, AddressLayout(), 1 << 20)
        assert isinstance(sys_.llc, BaselineLLC)

    def test_avr_llc_type(self):
        layout = AddressLayout()
        layout.add_region(0x10000, 8 * BLOCK_BYTES, 2)
        sys_ = build_system(AVR, CONFIG, layout, 1 << 20)
        assert isinstance(sys_.llc, AVRLLC)
        assert is_approx(sys_.llc.layout, 0x10000)

    def test_zero_avr_marks_nothing(self):
        layout = AddressLayout()
        layout.add_region(0x10000, 8 * BLOCK_BYTES, 2)
        sys_ = build_system(ZERO_AVR, CONFIG, layout, 1 << 20)
        assert isinstance(sys_.llc, AVRLLC)
        assert not is_approx(sys_.llc.layout, 0x10000)

    def test_truncate_capacity_and_linewidth(self):
        layout = AddressLayout()
        layout.add_region(0, 1 << 19, 8)  # half the footprint approx
        sys_ = build_system(TRUNCATE, CONFIG, layout, 1 << 20)
        assert sys_.llc.approx_line_bytes == 32
        assert sys_.llc.ways > CONFIG.llc.ways

    def test_dganger_capacity_capped_by_tag_reach(self):
        layout = AddressLayout()
        layout.add_region(0, 1 << 20, 16)
        sys_hi = build_system(DGANGER, CONFIG, layout, 1 << 20, dedup_factor=100.0)
        sys_lo = build_system(DGANGER, CONFIG, layout, 1 << 20, dedup_factor=1.0)
        assert sys_hi.llc.ways <= CONFIG.llc.ways * CONFIG.dganger_tag_factor
        assert sys_lo.llc.ways == CONFIG.llc.ways


class TestSimulator:
    def test_baseline_run_produces_metrics(self):
        sys_ = build_system(BASELINE, CONFIG, AddressLayout(), 1 << 20)
        res = sys_.run(_tiny_trace())
        assert res.cycles > 0
        assert res.instructions > 0
        assert res.total_bytes > 0
        assert res.amat_cycles > 0
        assert res.llc_mpki >= 0
        assert res.energy.total > 0

    def test_avr_reduces_traffic_on_compressible_data(self):
        layout = AddressLayout()
        layout.add_region(0x10000, 1 << 20, 2)
        base = build_system(BASELINE, CONFIG, layout, 1 << 20).run(_tiny_trace())
        avr = build_system(AVR, CONFIG, layout, 1 << 20).run(_tiny_trace())
        assert avr.total_bytes < base.total_bytes
        assert avr.llc_mpki < base.llc_mpki

    def test_zero_avr_close_to_baseline(self):
        layout = AddressLayout()
        layout.add_region(0x10000, 1 << 20, 2)
        base = build_system(BASELINE, CONFIG, layout, 1 << 20).run(_tiny_trace())
        zero = build_system(ZERO_AVR, CONFIG, layout, 1 << 20).run(_tiny_trace())
        assert zero.total_bytes == pytest.approx(base.total_bytes, rel=0.05)
        assert zero.cycles == pytest.approx(base.cycles, rel=0.05)

    def test_iteration_factor_scales_adjusted(self):
        sys_ = build_system(BASELINE, CONFIG, AddressLayout(), 1 << 20)
        res = sys_.run(_tiny_trace())
        res.iteration_factor = 2.0
        assert res.adjusted_cycles == pytest.approx(2 * res.cycles)
        assert res.adjusted_bytes == pytest.approx(2 * res.total_bytes)

    def test_instructions_match_trace(self):
        sys_ = build_system(BASELINE, CONFIG, AddressLayout(), 1 << 20)
        trace = _tiny_trace(num_cores=1, lines=100, gap=10)
        res = sys_.run(trace)
        assert res.instructions == 100 * 11

    def test_compute_bound_trace_insensitive_to_design(self):
        layout = AddressLayout()
        layout.add_region(0x10000, 1 << 20, 2)
        t = _tiny_trace(lines=256, gap=2000)  # huge compute gaps
        base = build_system(BASELINE, CONFIG, layout, 1 << 20).run(t)
        avr = build_system(AVR, CONFIG, layout, 1 << 20).run(t)
        assert avr.cycles == pytest.approx(base.cycles, rel=0.05)

    def test_front_end_of_another_trace_is_rejected(self):
        sys_ = build_system(BASELINE, CONFIG, AddressLayout(), 1 << 20)
        other = compute_front_end(_tiny_trace(lines=256), CONFIG)
        with pytest.raises(ValueError, match="different trace"):
            sys_.run(_tiny_trace(), other)

    def test_front_end_serves_every_design(self):
        layout = AddressLayout()
        layout.add_region(0x10000, 1 << 20, 2)
        trace = _tiny_trace()
        front_end = compute_front_end(trace, CONFIG)
        for design in (BASELINE, TRUNCATE, DGANGER, ZERO_AVR, AVR):
            own = build_system(design, CONFIG, layout, 1 << 20).run(trace)
            shared = build_system(design, CONFIG, layout, 1 << 20).run(
                trace, front_end
            )
            assert own.metrics_equal(shared), design


def test_is_approx_batch_matches_scalar():
    layout = AddressLayout()
    layout.add_region(0x10000, 4 * BLOCK_BYTES, 2)
    layout.add_region(0x80000, 2 * BLOCK_BYTES, 4)
    addrs = np.arange(0, 0x90000, 512, dtype=np.int64)
    batch = layout.is_approx_batch(addrs)
    scalar = np.array([is_approx(layout, int(a)) for a in addrs])
    assert np.array_equal(batch, scalar)

