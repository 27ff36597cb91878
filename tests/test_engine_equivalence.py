"""The timing replay's equivalence contract, end to end.

:meth:`TimingSystem.run` must produce a :class:`SimResult` whose every
metric — cycles, instructions, AMAT, MPKI, DRAM byte counts, energy,
the full LLC/DRAM stat dictionaries — is **bit-identical** (``==`` on
floats, no tolerance) to the access-at-a-time oracle's
(:func:`oracles.run_reference`), for real workload traces under every
design.  This is what lets the batched replay be the only production
path.  Component by component, the suite pins ``AVRLLC``,
``BaselineLLC`` and ``IntervalCore`` ``replay_batch`` against their
per-event oracle twins.
"""

import numpy as np
import pytest

from oracles import IntervalCoreReference, replay_llc, run_reference
from repro.common.config import SystemConfig
from repro.designs import AVR, BASELINE, PAPER_DESIGNS, TRUNCATE
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
    reference = run_functional_job(point, BASELINE)
    avr = run_functional_job(point, AVR)
    layout = _build_layout(workload, avr)
    trace = generate_trace(
        workload.trace_spec(),
        reference.memory,
        num_cores=CONFIG.num_cores,
        max_accesses_per_core=ACCESSES,
        seed=point.seed,
    )
    return layout, trace, reference.memory.footprint_bytes


@pytest.mark.parametrize("design", PAPER_DESIGNS, ids=lambda d: d.name)
def test_engines_bit_identical(workload_context, design):
    layout, trace, footprint = workload_context
    ref = run_reference(build_system(design, CONFIG, layout, footprint), trace)
    vec = build_system(design, CONFIG, layout, footprint).run(trace)
    diffs = ref.metric_diffs(vec)
    assert not diffs, f"replay diverges from the oracle on {design.name}: {diffs}"
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
    for design in (BASELINE, AVR, TRUNCATE):
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
        build_system(BASELINE, CONFIG, AddressLayout(), 1 << 20), empty
    )
    vec = build_system(BASELINE, CONFIG, AddressLayout(), 1 << 20).run(
        empty
    )
    assert ref.metrics_equal(vec)
    assert vec.cycles == 0.0 and vec.instructions == 0


def test_coreless_trace_both_engines():
    from repro.system.layout import AddressLayout
    from repro.trace.generator import GeneratedTrace

    bare = GeneratedTrace(cores=[], iterations_simulated=1, iterations_total=1)
    ref = run_reference(
        build_system(BASELINE, CONFIG, AddressLayout(), 1 << 20), bare
    )
    vec = build_system(BASELINE, CONFIG, AddressLayout(), 1 << 20).run(
        bare
    )
    assert ref.metrics_equal(vec)


# ----------------------------------------------------------------------
# AVR fast-replay differentials: ablation flags, mixed traces
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
    reference = run_functional_job(point, BASELINE)
    avr = run_functional_job(point, AVR)
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
            AVR, CONFIG, layout, footprint, avr_options=dict(options)
        ),
        trace,
    )
    vec = build_system(
        AVR, CONFIG, layout, footprint, avr_options=dict(options)
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
            AVR, config, layout, 1 << 19, avr_options=dict(options)
        ),
        trace,
    )
    vec = build_system(
        AVR, config, layout, 1 << 19, avr_options=dict(options)
    ).run(trace)
    assert ref.metrics_equal(vec), ref.metric_diffs(vec)


@pytest.mark.parametrize(
    "design", [BASELINE, TRUNCATE, AVR], ids=lambda d: d.name
)
def test_one_replay_per_llc(design):
    """An LLC replays one event stream, its whole traffic: a second
    replay_batch, or a second run of its system, raises."""
    layout, trace = _mixed_trace(num_cores=2, n=600)
    config = SystemConfig.scaled(num_cores=2)
    llc = build_system(design, config, layout, 1 << 19).llc
    addrs = np.array([0, 64, 1 << 19], dtype=np.int64)
    is_read = np.array([True, False, True])
    llc.replay_batch(addrs, is_read)
    with pytest.raises(ValueError, match="once per LLC"):
        llc.replay_batch(addrs, is_read)

    system = build_system(design, config, layout, 1 << 19)
    system.run(trace)
    with pytest.raises(ValueError, match="once per LLC"):
        system.run(trace)


def test_misaligned_region_rejected():
    """Regions start on a block boundary, so every block is approximate
    or exact as a whole — the AVR replay classifies per block."""
    from repro.system.layout import AddressLayout

    layout = AddressLayout()
    with pytest.raises(ValueError, match="block"):
        layout.add_region(8 * 1024 + 512, 64 * 1024, 3)  # mid-block start
    with pytest.raises(ValueError, match="block"):
        AddressLayout().shifted(512)
    assert layout.ranges == []


@pytest.mark.parametrize("flavor", ["plain", "truncate"])
def test_baseline_llc_replay_batch_bit_identical(flavor):
    """BaselineLLC.replay_batch vs the per-event read()/writeback() twin.

    Covers both the all-exact plain cache and the Truncate-style
    half-width approx traffic split.
    """
    from repro.cache.llc_baseline import BaselineLLC
    from repro.common.config import CacheConfig
    from repro.system.layout import AddressLayout

    rng = np.random.default_rng(7)
    n = 2_000
    addrs = (rng.integers(0, 1 << 11, size=n) * 64).tolist()
    is_read = (rng.random(n) < 0.7).tolist()
    events = [("r" if rd else "w", a) for a, rd in zip(addrs, is_read)]
    config = CacheConfig(64 * 8 * 16, 8, 15)  # 16 sets: force evictions
    layout = AddressLayout()
    options = {}
    if flavor == "truncate":
        layout.add_region(0, 64 * (1 << 10), 16)
        options["approx_line_bytes"] = 32
    outcome = replay_llc(BaselineLLC, events, config, layout, **options)
    assert outcome.stats["llc_misses"] > 0 and outcome.stats["writebacks"] > 0
    if flavor == "truncate":
        assert outcome.stats["bytes_approx"] > 0


def test_interval_core_replay_batch_bit_identical():
    """IntervalCore.replay_batch vs the advance()/memory_event() twin.

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

    fast = IntervalCore(CoreConfig())
    slow = IntervalCoreReference(CoreConfig())
    fast.replay_batch(gaps, latencies, l1_hit)
    for gap, latency, hit in zip(gaps, latencies, l1_hit):
        slow.advance(int(gap))
        slow.memory_event(float(latency), bool(hit))
    assert fast.cycles == slow.cycles
    assert fast.instructions == slow.instructions
    assert fast.mem_accesses == slow.mem_accesses
    assert fast.mem_latency_total == slow.mem_latency_total
    assert fast.amat == slow.amat
