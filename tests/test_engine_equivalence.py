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

from dataclasses import replace

import numpy as np
import pytest

from oracles import IntervalCoreReference, replay_llc, run_reference
from repro.common.config import CacheConfig, SystemConfig
from repro.common.constants import BLOCK_BYTES, CACHELINE_BYTES
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
    from oracles import make_trace
    from repro.system.layout import AddressLayout
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
    design = replace(AVR, avr_options=AVR_VARIANTS[variant])
    ref = run_reference(build_system(design, CONFIG, layout, footprint), trace)
    vec = build_system(design, CONFIG, layout, footprint).run(trace)
    diffs = ref.metric_diffs(vec)
    assert not diffs, f"AVR[{variant}] replay diverges from the oracle: {diffs}"


def _mixed_trace(num_cores=4, n=3_000, seed=11):
    """Synthetic multi-core trace over mixed approx + exact regions."""
    from oracles import make_trace
    from repro.system.layout import AddressLayout
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
    design = replace(AVR, avr_options=AVR_VARIANTS[variant])
    ref = run_reference(build_system(design, config, layout, 1 << 19), trace)
    vec = build_system(design, config, layout, 1 << 19).run(trace)
    assert ref.metrics_equal(vec), ref.metric_diffs(vec)


# ----------------------------------------------------------------------
# AVR resident windows: crafted streams under every window setting
# ----------------------------------------------------------------------
#: static sizes of the crafted streams' approximable blocks 0-7: the
#: compressible ones own CMS groups, the size-16 ones cannot
WINDOW_BLOCK_SIZES = np.array([2, 3, 16, 1, 4, 16, 2, 5], dtype=np.int64)
#: the crafted streams' exact blocks
WINDOW_EXACT_BLOCKS = (70, 71)
#: 16 sets x 16 ways: line ``off`` of every block and sub-block ``k`` of
#: block ``b``'s CMS group share set ``off == b + k``, so a block's UCLs
#: and CMS entries compete for the same ways.  Warm-up and windows evict
#: nothing; the pressure phase evicts everything, in LRU order.
WINDOW_CONFIG = CacheConfig(16 * 16 * 64, 16, 15)

#: module constants per setting: every resident stretch takes the window
#: path (also split into 3-event passes), none does, or the defaults
WINDOW_SETTINGS = {
    "every": {"_WINDOW_MIN": 1, "_PROBE": 1, "_PROBE_CAP": 1},
    "every-split": {
        "_WINDOW_MIN": 1, "_PROBE": 1, "_PROBE_CAP": 1, "_WINDOW_MAX": 3,
    },
    "none": {"_WINDOW_MIN": 1 << 62},  # longer than any stream
    "default": {},
}


def _line(block, off):
    return block * BLOCK_BYTES + off * CACHELINE_BYTES


def _warm_up():
    """Lines 0-3 of every block resident (line 2 dirty); the DBUF ends
    on compressible block 1, whose lines 1-3 share sets with its CMS
    group.  Line 3 of block 3 is written back first, so it takes a
    lower way of set 3 than the block's CMS entry: an age tie between
    the two would evict the line first."""
    events = [("w", _line(3, 3))]
    for block in (0, 2, 3, 4, 5, 6, 7, 1, *WINDOW_EXACT_BLOCKS):
        events += [("r", _line(block, off)) for off in range(4)]
        events.append(("w", _line(block, 2)))
    return events


#: a resident stretch longer than the default probe back-off cap plus
#: the window floor, so the default setting takes the window path too
STRETCH = 1_500


def _resident(seed, n=STRETCH,
              blocks=(0, 1, 2, 3, 4, 5, 6, 7, *WINDOW_EXACT_BLOCKS),
              lines=4, writebacks=0.3):
    """``n`` reads and writebacks of resident lines ``0 .. lines-1``."""
    rng = np.random.default_rng(seed)
    return [
        ("w" if rng.random() < writebacks else "r",
         _line(blocks[rng.integers(len(blocks))], int(rng.integers(lines))))
        for _ in range(n)
    ]


def _pressure():
    """Exact misses flooding one set at a time, the sets holding a
    block's UCL beside its CMS group first: evicts the whole cache in
    LRU order, so the windows' ages and dirty bits decide the victim
    order and the eviction flows (recompress vs lazy writeback)."""
    return [
        ("r", _line(200 + rnd, set_idx))
        for set_idx in (3, 2, 1, 0, *range(4, 16)) for rnd in range(24)
    ]


def _cms_order(last):
    """Block 3's last touch inside a window is ``last`` on line 3,
    which shares set 3 with the block's resident CMS entry (and was
    dirtied first, see :func:`_warm_up`).  The CMS refresh comes before
    the UCL touch for a DBUF read or a writeback and after it for a
    plain hit; flooding set 3 then evicts the older of the two first,
    and the dirty line's eviction flow (recompress in place or lazy
    writeback) shows which one that was."""
    events = _warm_up() + _resident(9, 300, blocks=(0, 1, 3, 4, 6, 7))
    if last == "dbuf-read":
        events.append(("r", _line(3, 9)))  # compressed hit: DBUF on block 3
    events += _resident(10, blocks=(0, 1, 4, 6, 7))
    events.append(("w" if last == "writeback" else "r", _line(3, 3)))
    return events + [("r", _line(200 + rnd, 3)) for rnd in range(24)]


WINDOW_STREAMS = {
    # a warm-up, then one resident stretch to the end of the stream
    "resident-to-end": lambda: _warm_up() + _resident(1),
    # a window ending on a DBUF read (block 1) whose UCL is absent
    "ends-dbuf-absent": lambda: (
        _warm_up() + _resident(2) + [("r", _line(1, 9))]
        + _resident(3) + _pressure()
    ),
    # a window ending on a writeback to an absent line
    "ends-writeback-absent": lambda: (
        _warm_up() + _resident(4) + [("w", _line(5, 11))]
        + _resident(5) + _pressure()
    ),
    # blocks with resident CMS groups: the refresh order in one event
    **{f"cms-order-{last}": (lambda last=last: _cms_order(last))
       for last in ("read", "dbuf-read", "writeback")},
    # lines 4-12 of block 6 made resident while the DBUF holds block 1,
    # a compressed hit loads block 6 with one line requested, a window
    # reads and writes back its resident lines, then a compressed hit on
    # block 0 replaces the DBUF: the PFE reads the window's masks
    "dbuf-writebacks": lambda: (
        _warm_up() + [("w", _line(6, off)) for off in range(4, 13)]
        + [("r", _line(6, 13))]
        + _resident(7, blocks=(6,), lines=13, writebacks=0.5)
        + [("r", _line(0, 9))] + _pressure()
    ),
}


def _replay_windows(monkeypatch, events, setting, variant, config, sizes):
    """``replay_llc`` of ``events`` under one window setting."""
    from repro.cache import llc_avr
    from repro.system.layout import AddressLayout

    for name, value in WINDOW_SETTINGS[setting].items():
        monkeypatch.setattr(llc_avr, name, value)
    layout = AddressLayout()
    layout.add_region(0, sizes.size * BLOCK_BYTES, sizes)
    return replay_llc(llc_avr.AVRLLC, events, config, layout, **AVR_VARIANTS[variant])


@pytest.mark.parametrize("setting", sorted(WINDOW_SETTINGS))
@pytest.mark.parametrize("stream", sorted(WINDOW_STREAMS))
@pytest.mark.parametrize("variant", sorted(AVR_VARIANTS))
def test_avr_resident_windows_match_oracle(monkeypatch, variant, stream, setting):
    """Resident windows replay bit-identically to the per-event oracle,
    whichever stretches take the window path."""
    events = WINDOW_STREAMS[stream]()
    outcome = _replay_windows(
        monkeypatch, events, setting, variant, WINDOW_CONFIG, WINDOW_BLOCK_SIZES
    )
    # the stretches are resident: every read of a warmed line hits
    warmed = {addr for _, addr in _warm_up()}
    stretch_reads = sum(
        kind == "r" and addr in warmed for kind, addr in events[len(_warm_up()):]
    )
    assert outcome.stats["llc_hits"] >= stretch_reads > 0


@pytest.mark.parametrize("setting", sorted(WINDOW_SETTINGS))
@pytest.mark.parametrize("variant", sorted(AVR_VARIANTS))
def test_avr_window_skips_partial_cms_group(monkeypatch, variant, setting):
    """A CMS group whose first sub-block is absent is not refreshed.

    In 4 sets x 2 ways, block 0 (10 sub-blocks) wraps its CMS group
    around the sets: allocating sub-block 8 evicts sub-block 0 and with
    it the group, leaving sub-blocks 8 and 9 resident.  A window of hits
    on line 0 (set 0, beside sub-block 8) must leave the partial group's
    ages alone, which decides the victim of the miss that follows.
    """
    exact = [_line(70, off) for off in (1, 2, 3)]
    events = [("r", _line(0, 0)), *(("r", addr) for addr in exact)]
    rng = np.random.default_rng(8)
    events += [
        ("w" if rng.random() < 0.3 else "r",
         (_line(0, 0), *exact)[rng.integers(4)])
        for _ in range(STRETCH)
    ]
    # one miss in set 0 evicts the older of sub-block 8 and line 0
    events += [("r", _line(80, 0)), ("r", _line(0, 0))]
    outcome = _replay_windows(
        monkeypatch, events, setting, variant,
        CacheConfig(4 * 2 * 64, 2, 15), np.array([10], dtype=np.int64),
    )
    assert outcome.stats["cms_block_evictions"] >= 1


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
