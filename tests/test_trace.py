"""Tests for synthetic trace generation."""

import numpy as np
import pytest

from oracles import concat_traces, make_trace
from repro.approx import ApproxMemory
from repro.trace import TRACE_DTYPE, generate_trace, total_instructions
from repro.workloads.base import Phase, TraceSpec


@pytest.fixture
def mem():
    m = ApproxMemory()
    m.alloc("data", 64 * 1024 // 4)  # 64 KB
    m.alloc("out", 16 * 1024 // 4)  # 16 KB
    return m


class TestEvents:
    def test_make_trace(self):
        t = make_trace(
            np.array([0, 64]), np.array([False, True]), np.array([5, 7])
        )
        assert t.dtype == TRACE_DTYPE
        assert t["addr"][1] == 64
        assert bool(t["write"][1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            make_trace(np.zeros(2), np.zeros(1, bool), np.zeros(2))

    def test_concat_empty(self):
        assert len(concat_traces([])) == 0

    def test_total_instructions(self):
        t = make_trace(np.array([0, 64]), np.zeros(2, bool), np.array([10, 20]))
        assert total_instructions(t) == 32


class TestGenerator:
    def test_read_sweep_addresses(self, mem):
        spec = TraceSpec(
            iterations=2,
            phases=(Phase("data", reads=True, gap=10),),
        )
        gen = generate_trace(spec, mem, num_cores=1)
        t = gen.cores[0]
        base = mem.region("data").base_addr
        lines = 64 * 1024 // 64
        assert len(t) == 2 * lines
        assert t["addr"][0] == base
        assert t["addr"][1] == base + 64
        assert not t["write"].any()

    def test_write_phase(self, mem):
        spec = TraceSpec(1, (Phase("out", reads=False, writes=True, gap=3),))
        t = generate_trace(spec, mem, num_cores=1).cores[0]
        assert t["write"].all()

    def test_read_modify_write_interleaves(self, mem):
        spec = TraceSpec(1, (Phase("out", reads=True, writes=True, gap=3),))
        t = generate_trace(spec, mem, num_cores=1).cores[0]
        assert not t["write"][0] and t["write"][1]
        assert t["addr"][0] == t["addr"][1]

    def test_domain_decomposition(self, mem):
        spec = TraceSpec(1, (Phase("data", gap=1),))
        gen = generate_trace(spec, mem, num_cores=4)
        assert len(gen.cores) == 4
        base = mem.region("data").base_addr
        quarter = 64 * 1024 // 4
        for core, trace in enumerate(gen.cores):
            lo, hi = trace["addr"].min(), trace["addr"].max()
            assert lo >= base + core * quarter
            assert hi < base + (core + 1) * quarter

    def test_fraction_limits_span(self, mem):
        spec = TraceSpec(1, (Phase("data", fraction=0.25, gap=1),))
        t = generate_trace(spec, mem, num_cores=1).cores[0]
        assert len(t) == (64 * 1024 // 4) // 64

    def test_rolling_window_advances(self, mem):
        spec = TraceSpec(4, (Phase("data", writes=True, reads=False, gap=1, rolling=True),))
        gen = generate_trace(spec, mem, num_cores=1)
        t = gen.cores[0]
        base = mem.region("data").base_addr
        window = 64 * 1024 // 4
        # each iteration's addresses land in the next window
        per_iter = len(t) // 4
        for it in range(4):
            seg = t["addr"][it * per_iter : (it + 1) * per_iter]
            assert seg.min() >= base + it * window
            assert seg.max() < base + (it + 1) * window

    def test_access_budget_subsamples_iterations(self, mem):
        spec = TraceSpec(1000, (Phase("data", gap=1),))
        gen = generate_trace(spec, mem, num_cores=1, max_accesses_per_core=5000)
        assert gen.iterations_simulated < 1000
        assert gen.total_accesses <= 6000
        assert gen.scale_factor == pytest.approx(
            1000 / gen.iterations_simulated
        )

    def test_repeats(self, mem):
        spec1 = TraceSpec(1, (Phase("out", gap=1),))
        spec3 = TraceSpec(1, (Phase("out", gap=1, repeats=3),))
        n1 = len(generate_trace(spec1, mem, 1).cores[0])
        n3 = len(generate_trace(spec3, mem, 1).cores[0])
        assert n3 == 3 * n1

    def test_gap_jitter_bounded(self, mem):
        spec = TraceSpec(1, (Phase("data", gap=50),))
        t = generate_trace(spec, mem, num_cores=1).cores[0]
        assert t["gap"].min() >= 50
        assert t["gap"].max() <= 52
