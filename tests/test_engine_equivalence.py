"""The timing replay's equivalence contract, end to end.

:meth:`TimingSystem.run` must produce a :class:`SimResult` whose every
metric — cycles, instructions, AMAT, MPKI, DRAM byte counts, energy,
the full LLC/DRAM stat dictionaries — is **bit-identical** (``==`` on
floats, no tolerance) to the access-at-a-time oracle's
(:func:`oracles.run_reference`), for real workload traces under every
design.  This is what lets the batched replay be the only production
path.
"""

import numpy as np
import pytest

from oracles import run_reference
from repro.common.config import SystemConfig
from repro.common.types import Design
from repro.harness.runner import _build_layout
from repro.harness.sweep import SweepPoint, run_functional_job
from repro.system.factory import build_system
from repro.trace.generator import generate_trace

CONFIG = SystemConfig.scaled(num_cores=2)
ACCESSES = 3_000


@pytest.fixture(scope="module", params=["heat", "kmeans", "orbit"])
def workload_context(request):
    """Layout + trace of one small workload (functional layer run once)."""
    point = SweepPoint(
        workload=request.param, scale=0.15, max_accesses_per_core=ACCESSES
    )
    workload = point.make()
    reference = run_functional_job(point, Design.BASELINE)
    avr = run_functional_job(point, Design.AVR)
    layout = _build_layout(workload, avr)
    trace = generate_trace(
        workload.trace_spec(),
        reference.memory,
        num_cores=CONFIG.num_cores,
        max_accesses_per_core=ACCESSES,
        seed=point.seed,
    )
    return layout, trace, reference.memory.footprint_bytes


@pytest.mark.parametrize("design", list(Design))
def test_engines_bit_identical(workload_context, design):
    layout, trace, footprint = workload_context
    ref = run_reference(build_system(design, CONFIG, layout, footprint), trace)
    vec = build_system(design, CONFIG, layout, footprint).run(trace)
    diffs = ref.metric_diffs(vec)
    assert not diffs, f"replay diverges from the oracle on {design}: {diffs}"
    # Spot-pin the strictest fields: exact float equality, not approx.
    assert ref.cycles == vec.cycles
    assert ref.energy.joules == vec.energy.joules


def test_write_heavy_trace_bit_identical():
    """Writes drive the dirty-victim / writeback machinery hardest."""
    from repro.system.layout import AddressLayout
    from repro.trace.events import make_trace
    from repro.trace.generator import GeneratedTrace

    rng = np.random.default_rng(3)
    cores = []
    for c in range(2):
        n = 4_000
        addrs = (rng.integers(0, 1 << 15, n) * 8 + c * (1 << 19)).astype(np.int64)
        cores.append(
            make_trace(addrs, rng.random(n) < 0.7, rng.integers(0, 40, n))
        )
    trace = GeneratedTrace(cores=cores, iterations_simulated=1, iterations_total=1)
    layout = AddressLayout()
    layout.add_region(0, 1 << 20, 2)
    for design in (Design.BASELINE, Design.AVR, Design.TRUNCATE):
        ref = run_reference(build_system(design, CONFIG, layout, 1 << 20), trace)
        vec = build_system(design, CONFIG, layout, 1 << 20).run(trace)
        assert ref.metrics_equal(vec), ref.metric_diffs(vec)


def test_empty_trace_both_engines():
    from repro.system.layout import AddressLayout
    from repro.trace.events import TRACE_DTYPE
    from repro.trace.generator import GeneratedTrace

    empty = GeneratedTrace(
        cores=[np.empty(0, dtype=TRACE_DTYPE)] * 2,
        iterations_simulated=1,
        iterations_total=1,
    )
    ref = run_reference(
        build_system(Design.BASELINE, CONFIG, AddressLayout(), 1 << 20), empty
    )
    vec = build_system(Design.BASELINE, CONFIG, AddressLayout(), 1 << 20).run(
        empty
    )
    assert ref.metrics_equal(vec)
    assert vec.cycles == 0.0 and vec.instructions == 0


def test_coreless_trace_both_engines():
    from repro.system.layout import AddressLayout
    from repro.trace.generator import GeneratedTrace

    bare = GeneratedTrace(cores=[], iterations_simulated=1, iterations_total=1)
    ref = run_reference(
        build_system(Design.BASELINE, CONFIG, AddressLayout(), 1 << 20), bare
    )
    vec = build_system(Design.BASELINE, CONFIG, AddressLayout(), 1 << 20).run(
        bare
    )
    assert ref.metrics_equal(vec)


# ----------------------------------------------------------------------
# AVR fast-replay differentials: ablation flags, mixed traces, handoff
# ----------------------------------------------------------------------
AVR_VARIANTS = {
    "full": {},
    "no-dbuf": {"enable_dbuf": False},
    "no-lazy": {"enable_lazy_eviction": False},
    "no-skip": {"enable_skip_counters": False},
    "no-refresh": {"enable_cms_lru_refresh": False},
    "pfe-always": {"pfe_threshold": 0},
    "pfe-disabled": {"pfe_threshold": None},
    "pfe-custom": {"pfe_threshold": 3},
}


@pytest.fixture(scope="module")
def heat_context():
    """One small heat workload context shared by the ablation matrix."""
    point = SweepPoint(workload="heat", scale=0.15, max_accesses_per_core=2_500)
    workload = point.make()
    reference = run_functional_job(point, Design.BASELINE)
    avr = run_functional_job(point, Design.AVR)
    layout = _build_layout(workload, avr)
    trace = generate_trace(
        workload.trace_spec(),
        reference.memory,
        num_cores=CONFIG.num_cores,
        max_accesses_per_core=2_500,
        seed=point.seed,
    )
    return layout, trace, reference.memory.footprint_bytes


@pytest.mark.parametrize("variant", sorted(AVR_VARIANTS))
def test_avr_ablations_bit_identical(heat_context, variant):
    """Every ablation flag must survive the fast replay unchanged."""
    layout, trace, footprint = heat_context
    options = AVR_VARIANTS[variant]
    ref = run_reference(
        build_system(
            Design.AVR, CONFIG, layout, footprint, avr_options=dict(options)
        ),
        trace,
    )
    vec = build_system(
        Design.AVR, CONFIG, layout, footprint, avr_options=dict(options)
    ).run(trace)
    diffs = ref.metric_diffs(vec)
    assert not diffs, f"AVR[{variant}] replay diverges from the oracle: {diffs}"


def _mixed_trace(num_cores=4, n=3_000, seed=11):
    """Synthetic multi-core trace over mixed approx + exact regions."""
    from repro.system.layout import AddressLayout
    from repro.trace.events import make_trace
    from repro.trace.generator import GeneratedTrace

    rng = np.random.default_rng(seed)
    approx_bytes = 1 << 18
    layout = AddressLayout()
    # compressibility mix: very compressible, moderate, uncompressible
    sizes = rng.choice([1, 3, 16], size=approx_bytes // 1024).astype(np.int64)
    layout.add_region(0, approx_bytes, sizes)
    cores = []
    for c in range(num_cores):
        # interleave approx sweeps with exact traffic above the region
        approx_addrs = rng.integers(0, approx_bytes // 64, n // 2) * 64
        exact_addrs = (1 << 19) + rng.integers(0, 1 << 12, n - n // 2) * 64
        addrs = np.empty(n, dtype=np.int64)
        addrs[0::2] = approx_addrs
        addrs[1::2] = exact_addrs
        cores.append(
            make_trace(addrs, rng.random(n) < 0.5, rng.integers(0, 30, n))
        )
    trace = GeneratedTrace(cores=cores, iterations_simulated=1, iterations_total=1)
    return layout, trace


@pytest.mark.parametrize("variant", ["full", "no-dbuf", "pfe-disabled"])
def test_avr_multicore_mixed_regions_bit_identical(variant):
    """Approx + exact interleaved across 4 cores, write-heavy."""
    layout, trace = _mixed_trace()
    config = SystemConfig.scaled(num_cores=4)
    options = AVR_VARIANTS[variant]
    ref = run_reference(
        build_system(
            Design.AVR, config, layout, 1 << 19, avr_options=dict(options)
        ),
        trace,
    )
    vec = build_system(
        Design.AVR, config, layout, 1 << 19, avr_options=dict(options)
    ).run(trace)
    assert ref.metrics_equal(vec), ref.metric_diffs(vec)


def test_avr_replay_then_scalar_handoff():
    """Scalar calls after a batch see exactly the event-by-event state."""
    layout, trace = _mixed_trace(num_cores=2, n=1_200)
    config = SystemConfig.scaled(num_cores=2)
    fast = build_system(Design.AVR, config, layout, 1 << 19)
    slow = build_system(Design.AVR, config, layout, 1 << 19)
    fast.run(trace)
    run_reference(slow, trace)
    assert fast.llc.check_invariants() == []
    # identical follow-up traffic must behave identically on both
    followups = [0, 64 * 5, 1024 * 7 + 128, (1 << 19) + 64 * 3]
    for addr in followups:
        assert fast.llc.read(addr) == slow.llc.read(addr)
        fast.llc.writeback(addr)
        slow.llc.writeback(addr)
    assert fast.llc.stats.as_dict() == slow.llc.stats.as_dict()
    assert fast.llc._slot_of == slow.llc._slot_of
    assert fast.llc.check_invariants() == []


def test_avr_replay_batch_requires_pristine_state():
    from repro.cache.llc_avr import AVRLLC
    from repro.common.config import CacheConfig, DRAMConfig
    from repro.memory import DRAM

    llc = AVRLLC(
        CacheConfig(64 * 8 * 64, 8, 15),
        DRAM(DRAMConfig()),
        block_size_of=lambda addr: 2,
        is_approx=lambda addr: False,
    )
    llc.read(0)
    with pytest.raises(ValueError, match="empty LLC"):
        llc.replay_batch(
            np.array([0], dtype=np.int64), np.array([True])
        )


def test_avr_misaligned_region_bit_identical():
    """A region start inside a block makes blocks half approx, half
    exact; the fast replay must then give up per-block classification
    and run batching, staying bit-identical to the oracle."""
    from repro.system.layout import AddressLayout
    from repro.trace.events import make_trace
    from repro.trace.generator import GeneratedTrace

    rng = np.random.default_rng(23)
    layout = AddressLayout()
    layout.add_region(8 * 1024 + 512, 64 * 1024, 3)  # mid-block start
    n = 3_000
    cores = []
    for c in range(2):
        # hammer the boundary blocks so same-block runs form
        addrs = (8 * 1024 + rng.integers(0, 64, n) * 64).astype(np.int64)
        cores.append(
            make_trace(addrs, rng.random(n) < 0.5, rng.integers(0, 20, n))
        )
    trace = GeneratedTrace(cores=cores, iterations_simulated=1, iterations_total=1)
    ref = run_reference(build_system(Design.AVR, CONFIG, layout, 1 << 18), trace)
    vec = build_system(Design.AVR, CONFIG, layout, 1 << 18).run(trace)
    assert ref.metrics_equal(vec), ref.metric_diffs(vec)


@pytest.mark.parametrize("flavor", ["plain", "truncate"])
def test_baseline_llc_replay_batch_bit_identical(flavor):
    """BaselineLLC.replay_batch vs the per-event read()/writeback() loop.

    Covers both the always-exact fast path and the Truncate-style
    half-width approx traffic split.
    """
    from repro.cache.llc_baseline import BaselineLLC
    from repro.common.config import CacheConfig, DRAMConfig
    from repro.memory import DRAM

    rng = np.random.default_rng(7)
    n = 2_000
    addrs = (rng.integers(0, 1 << 11, size=n) * 64).astype(np.int64)
    is_read = rng.random(n) < 0.7
    boundary = 64 * (1 << 10)

    def build():
        config = CacheConfig(64 * 8 * 16, 8, 15)  # 16 sets: force evictions
        if flavor == "plain":
            return BaselineLLC(config, DRAM(DRAMConfig()))
        return BaselineLLC(
            config,
            DRAM(DRAMConfig()),
            is_approx=lambda addr: addr < boundary,
            approx_line_bytes=32,
            is_approx_batch=lambda a: a < boundary,
        )

    fast, slow = build(), build()
    batch_latency = fast.replay_batch(addrs, is_read)
    ref_latency = np.zeros(n, dtype=batch_latency.dtype)
    for i in range(n):
        if is_read[i]:
            ref_latency[i] = slow.read(int(addrs[i]))
        else:
            slow.writeback(int(addrs[i]))
    assert np.array_equal(batch_latency[is_read], ref_latency[is_read])
    assert fast.stats.as_dict() == slow.stats.as_dict()
    assert fast.dram.stats.as_dict() == slow.dram.stats.as_dict()
    assert fast.cache._sets == slow.cache._sets


def test_interval_core_replay_batch_bit_identical():
    """IntervalCore.replay_batch vs the advance()/memory_event() loop.

    The cycle counter is a sequential float chain, so equality here is
    exact (``==`` on float64), not approximate.
    """
    from repro.common.config import CoreConfig
    from repro.cpu.interval import IntervalCore

    rng = np.random.default_rng(11)
    n = 5_000
    gaps = rng.integers(0, 50, size=n).astype(np.int64)
    latencies = rng.choice(
        np.array([15.0, 47.0, 233.0, 350.0]), size=n
    )
    l1_hit = rng.random(n) < 0.6

    fast, slow = IntervalCore(CoreConfig()), IntervalCore(CoreConfig())
    fast.replay_batch(gaps, latencies, l1_hit)
    for gap, latency, hit in zip(gaps, latencies, l1_hit):
        slow.advance(int(gap))
        slow.memory_event(float(latency), bool(hit))
    assert fast.cycles == slow.cycles
    assert fast.instructions == slow.instructions
    assert fast.mem_accesses == slow.mem_accesses
    assert fast.mem_latency_total == slow.mem_latency_total
    assert fast.amat == slow.amat
