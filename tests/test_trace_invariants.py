"""Property tests for trace-generation invariants.

Three properties every generated trace must satisfy:

* **determinism** — the stream is a pure function of (spec, layout,
  cores, budget, seed); only the seed perturbs it.
* **domain decomposition** — per-core slices of a phase's sweep are
  pairwise disjoint and stay inside the swept region.
* **exact budget accounting** — :func:`budget_iterations` agrees with
  the generated stream to the access: ``iterations x per-iteration
  cost == len(core stream)`` for every core, including stride-unaligned
  slices where the historical floor-based estimate undercounted.
"""

import numpy as np
import pytest

from oracles import generate_trace_reference
from repro.approx import ApproxMemory
from repro.trace import generate_trace
from repro.trace.generator import budget_iterations
from repro.workloads import WORKLOADS, make_workload
from repro.workloads.base import Phase, TraceSpec

SCALE = 0.15
BUDGET = 2_500


def allocate_only(workload) -> ApproxMemory:
    mem = ApproxMemory()
    workload.allocate(mem)
    return mem


@pytest.fixture
def mem():
    m = ApproxMemory()
    m.alloc("data", 64 * 1024 // 4)  # 64 KB
    return m


class TestDeterminism:
    def test_same_inputs_same_stream(self, mem):
        spec = TraceSpec(8, (Phase("data", gap=20),))
        kwargs = dict(num_cores=4, max_accesses_per_core=BUDGET, seed=3)
        a = generate_trace(spec, mem, **kwargs)
        b = generate_trace(spec, mem, **kwargs)
        assert all(np.array_equal(x, y) for x, y in zip(a.cores, b.cores))

    def test_seed_perturbs_only_gaps(self, mem):
        spec = TraceSpec(8, (Phase("data", gap=20),))
        a = generate_trace(spec, mem, num_cores=2, seed=0)
        b = generate_trace(spec, mem, num_cores=2, seed=1)
        for x, y in zip(a.cores, b.cores):
            assert np.array_equal(x["addr"], y["addr"])
            assert np.array_equal(x["write"], y["write"])
        assert not all(
            np.array_equal(x["gap"], y["gap"])
            for x, y in zip(a.cores, b.cores)
        )


class TestDomainDecomposition:
    @pytest.mark.parametrize("num_cores", [2, 3, 4, 8])
    def test_slices_disjoint_and_within_region(self, mem, num_cores):
        spec = TraceSpec(2, (Phase("data", gap=5),))
        gen = generate_trace(
            spec, mem, num_cores=num_cores, max_accesses_per_core=BUDGET
        )
        region = mem.region("data")
        lo, hi = region.base_addr, region.base_addr + region.nbytes
        address_sets = []
        for trace in gen.cores:
            addrs = trace["addr"]
            assert addrs.min() >= lo
            assert addrs.max() < hi
            address_sets.append(set(addrs.tolist()))
        for i in range(num_cores):
            for j in range(i + 1, num_cores):
                assert not (address_sets[i] & address_sets[j]), (
                    f"cores {i} and {j} share addresses"
                )

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_stays_in_its_regions(self, name):
        workload = make_workload(name, scale=SCALE)
        mem = allocate_only(workload)
        spec = workload.trace_spec()
        spans = [
            (r.base_addr, r.base_addr + r.nbytes)
            for r in (mem.region(p.region) for p in spec.phases)
        ]
        gen = generate_trace(
            spec, mem, num_cores=4, max_accesses_per_core=BUDGET
        )
        for trace in gen.cores:
            for addr in (trace["addr"].min(), trace["addr"].max()):
                assert any(lo <= addr < hi for lo, hi in spans)


class TestBudgetAccounting:
    @staticmethod
    def per_core_cost(spec, mem, num_cores):
        return sum(
            phase.lines_per_core(
                mem.region(phase.region).nbytes, spec.iterations, num_cores
            )
            * phase.accesses_per_line
            for phase in spec.phases
        )

    @pytest.mark.parametrize("num_cores", [1, 3, 8])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_budget_matches_generated_stream_exactly(self, name, num_cores):
        workload = make_workload(name, scale=SCALE)
        mem = allocate_only(workload)
        spec = workload.trace_spec()
        iters = budget_iterations(spec, mem, num_cores, BUDGET)
        gen = generate_trace(
            spec, mem, num_cores=num_cores, max_accesses_per_core=BUDGET
        )
        assert gen.iterations_simulated == iters
        per_iter = self.per_core_cost(spec, mem, num_cores)
        for trace in gen.cores:
            assert len(trace) == iters * per_iter

    def test_budget_never_exceeded(self):
        """The per-core stream fits the budget whenever one iteration
        does — exact accounting makes the bound tight, not approximate."""
        for name in sorted(WORKLOADS):
            workload = make_workload(name, scale=SCALE)
            mem = allocate_only(workload)
            spec = workload.trace_spec()
            gen = generate_trace(
                spec, mem, num_cores=2, max_accesses_per_core=BUDGET
            )
            per_iter = self.per_core_cost(spec, mem, 2)
            for trace in gen.cores:
                assert len(trace) <= max(BUDGET, per_iter)

    def test_unaligned_slice_counts_partial_stride_tail(self):
        """Regression: a core slice not divisible by the stride emits a
        partial-tail access (arange rounds up); the budget accounting
        must count it, not floor it away."""
        m = ApproxMemory()
        m.alloc("odd", 10_000 // 4)  # 10 kB; /3 cores -> 3333 B slices
        spec = TraceSpec(4, (Phase("odd", gap=1),))
        lines = spec.phases[0].lines_per_core(10_000, 4, 3)
        assert lines == 53  # ceil(3333/64); floor would give 52
        gen = generate_trace(spec, m, num_cores=3, max_accesses_per_core=500)
        iters = gen.iterations_simulated
        for trace in gen.cores:
            assert len(trace) == iters * lines
        assert iters == budget_iterations(spec, m, 3, 500)

    def test_narrow_slice_emits_nothing(self):
        """A slice narrower than the stride cannot hold one access; the
        accounting and both generators agree it contributes zero."""
        m = ApproxMemory()
        m.alloc("tiny", 128 // 4)  # 128 B; /4 cores -> 32 B < stride
        spec = TraceSpec(2, (Phase("tiny", gap=1),))
        assert spec.phases[0].lines_per_core(128, 2, 4) == 0
        for generate in (generate_trace, generate_trace_reference):
            gen = generate(spec, m, num_cores=4)
            assert all(len(t) == 0 for t in gen.cores)


def test_trace_field_dtypes_pinned():
    """Every generated trace carries exactly the pinned TRACE_DTYPE
    field widths — never the platform default int width (int32 on
    Windows), which would silently change store hashes and replay
    arithmetic."""
    from repro.trace.events import TRACE_DTYPE

    assert TRACE_DTYPE["addr"] == np.uint64
    assert TRACE_DTYPE["write"] == np.bool_
    assert TRACE_DTYPE["gap"] == np.uint32
    for name in WORKLOADS:
        workload = make_workload(name, scale=SCALE)
        gen = generate_trace(
            workload.trace_spec(),
            allocate_only(workload),
            num_cores=2,
            max_accesses_per_core=BUDGET,
        )
        for core in gen.cores:
            assert core.dtype == TRACE_DTYPE, name
