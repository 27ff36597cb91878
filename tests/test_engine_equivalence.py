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

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import IntervalCoreReference, replay, replay_llc, run_reference
from repro.cache import llc_avr, llc_baseline
from repro.cache.array_lru import BatchedLRUMatrix
from repro.cache.llc_avr import AVRLLC
from repro.common.config import CacheConfig, SystemConfig
from repro.common.constants import BLOCK_BYTES, CACHELINE_BYTES
from repro.designs import (
    AVR,
    BASELINE,
    PAPER_DESIGNS,
    TRUNCATE,
    list_designs,
    resolve_designs,
)
from repro.harness.runner import _build_layout
from repro.harness.sweep import SweepPoint, run_functional_job
from repro.system import simulator
from repro.system.factory import build_system
from repro.system.frontend import compute_front_end
from repro.system.layout import AddressLayout
from repro.trace.generator import GeneratedTrace, generate_trace
from test_frontend_equivalence import repeating_trace

CONFIG = SystemConfig.scaled(num_cores=2)
ACCESSES = 3_000


def _workload_context(name, scale, accesses, num_cores=CONFIG.num_cores):
    """Layout, trace and footprint of one workload at seed 0 (its
    functional layer run once)."""
    point = SweepPoint(workload=name, scale=scale, max_accesses_per_core=accesses)
    workload = point.make()
    reference = run_functional_job(point, BASELINE)
    avr = run_functional_job(point, AVR)
    layout = _build_layout(workload, avr)
    trace = generate_trace(
        workload.trace_spec(),
        reference.memory,
        num_cores=num_cores,
        max_accesses_per_core=accesses,
        seed=point.seed,
    )
    return layout, trace, reference.memory.footprint_bytes


@pytest.fixture(scope="module", params=["heat", "kmeans", "orbit"])
def workload_context(request):
    """Layout + trace of one small workload (functional layer run once)."""
    return _workload_context(request.param, 0.15, ACCESSES)


@pytest.mark.parametrize("design", PAPER_DESIGNS, ids=lambda d: d.name)
def test_engines_bit_identical(workload_context, design):
    layout, trace, footprint = workload_context
    ref = run_reference(build_system(design, CONFIG, layout, footprint), trace)
    vec = replay(build_system(design, CONFIG, layout, footprint), trace)
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
        vec = replay(build_system(design, CONFIG, layout, 1 << 20), trace)
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
    vec = replay(build_system(BASELINE, CONFIG, AddressLayout(), 1 << 20), empty)
    assert ref.metrics_equal(vec)
    assert vec.cycles == 0.0 and vec.instructions == 0


def test_coreless_trace_both_engines():
    from repro.system.layout import AddressLayout
    from repro.trace.generator import GeneratedTrace

    bare = GeneratedTrace(cores=[], iterations_simulated=1, iterations_total=1)
    ref = run_reference(
        build_system(BASELINE, CONFIG, AddressLayout(), 1 << 20), bare
    )
    vec = replay(build_system(BASELINE, CONFIG, AddressLayout(), 1 << 20), bare)
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
    return _workload_context("heat", 0.15, 2_500)


@pytest.mark.parametrize("variant", sorted(AVR_VARIANTS))
def test_avr_ablations_bit_identical(heat_context, variant):
    """Every ablation flag must survive the fast replay unchanged."""
    layout, trace, footprint = heat_context
    design = replace(AVR, avr_options=AVR_VARIANTS[variant])
    ref = run_reference(build_system(design, CONFIG, layout, footprint), trace)
    vec = replay(build_system(design, CONFIG, layout, footprint), trace)
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
    vec = replay(build_system(design, config, layout, 1 << 19), trace)
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
    front_end = compute_front_end(trace, config)
    system.run(front_end)
    with pytest.raises(ValueError, match="once per LLC"):
        system.run(front_end)


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


# ----------------------------------------------------------------------
# Repeating LLC streams: replays that tile, against the oracle
# ----------------------------------------------------------------------
#: every registered design, and AVR under each ablation flag
TILING_DESIGNS = (
    *resolve_designs(list_designs()),
    *(
        replace(AVR, avr_options=options)
        for options in AVR_VARIANTS.values()
        if options
    ),
)

#: one 2-way L1 set over a 4-set, 2-way L2, so most accesses reach the
#: LLC, and an LLC of 16 sets x 4 ways, which streams of 48 lines per
#: core overflow
TILING_CONFIG = SystemConfig(
    num_cores=4,
    l1=CacheConfig(2 * 64, 2, 1),
    l2=CacheConfig(8 * 64, 2, 8),
    llc=CacheConfig(16 * 4 * 64, 4, 15),
)
TILING_FOOTPRINT = 4 << 20

#: per-core periods in accesses: multiples of the 12-access interleave
#: chunk (12, 24, 60, 96) and not (5, 8, 13); 0 leaves a core without
#: accesses
PERIODS = (0, 5, 8, 12, 13, 24, 60, 96)


def tiling_layout(seed):
    """The first 32 KB of each core's 1 MB window approximable, its
    blocks compressing to 1, 3 or 16 lines."""
    rng = np.random.default_rng(seed)
    layout = AddressLayout()
    for core in range(4):
        sizes = rng.choice([1, 3, 16], size=32).astype(np.int64)
        layout.add_region(core << 20, 1 << 15, sizes)
    return layout


def emptied(trace, cores):
    """``trace`` with every core but ``cores`` emptied: what the oracle
    replays for a front end restricted to ``cores``."""
    return GeneratedTrace(
        cores=[t if c in cores else t[:0] for c, t in enumerate(trace.cores)],
        iterations_simulated=trace.iterations_simulated,
        iterations_total=trace.iterations_total,
    )


def assert_designs_match_oracle(trace, front_end, config, layout, footprint,
                                designs=TILING_DESIGNS):
    """``front_end``'s replay equals the oracle's replay of ``trace``
    under every design."""
    for design in designs:
        ref = run_reference(build_system(design, config, layout, footprint), trace)
        got = build_system(design, config, layout, footprint).run(front_end)
        diffs = ref.metric_diffs(got)
        assert not diffs, f"{design.name} {dict(design.avr_options)}: {diffs}"


@settings(max_examples=80)
@given(
    periods=st.lists(st.sampled_from(PERIODS), min_size=1, max_size=4),
    equal=st.booleans(),
    copies=st.integers(6, 14),
    seed=st.integers(0, 2**32 - 2),
    pool=st.sampled_from([3, 12, 48]),
    stride=st.sampled_from([1, 32]),
    write_frac=st.sampled_from([0.0, 0.3, 1.0]),
    shared=st.booleans(),
    subset=st.none() | st.sets(st.integers(0, 3)),
)
def test_tiled_llc_replays_match_oracle(
    periods, equal, copies, seed, pool, stride, write_frac, shared, subset
):
    """Repeating traces, as generated ones are, restricted to a core
    subset or not: every design's replay, which tiles the LLC stream
    wherever it repeats at least twice, equals the oracle's.  Periods
    that are not whole chunks, or that differ between cores, make
    superperiods of several periods, and copy counts that are not a
    whole number of them leave a partial last superperiod."""
    if equal:
        periods = [periods[0]] * len(periods)
    trace = repeating_trace(periods, copies, seed, pool, stride, write_frac, shared)
    config = replace(TILING_CONFIG, num_cores=len(periods))
    front_end = compute_front_end(trace, config)
    if subset is not None:
        cores = sorted(c for c in subset if c < len(periods))
        trace = emptied(trace, cores)
        front_end = front_end.restrict(cores)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "MIN_LLC_REPEATS", 2)
        assert_designs_match_oracle(
            trace, front_end, config, tiling_layout(seed), TILING_FOOTPRINT
        )


class CountingMatrix(BatchedLRUMatrix):
    """An LRU matrix that counts the ops it replays: the baseline
    LLC's data array, patched in."""

    instances: list[CountingMatrix] = []

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self.ops = 0
        CountingMatrix.instances.append(self)

    def replay(self, set_idx, *args, **kwargs):
        self.ops += int(set_idx.size)
        return super().replay(set_idx, *args, **kwargs)


class CountingAVRLLC(AVRLLC):
    """An AVR LLC that counts the events its scan decodes, which are the
    events it scans."""

    def _scan(self, ev_read, ev_dline, ev_apx, ev_refresh, decode, *rest):
        self.scanned = 0

        def counting(a, b):
            self.scanned += b - a
            decode(a, b)

        return super()._scan(ev_read, ev_dline, ev_apx, ev_refresh, counting, *rest)


@pytest.fixture
def counting_llcs(monkeypatch):
    """LLCs built from here on count the events they replay; returns
    the count of a system's LLC after its run."""
    monkeypatch.setattr(CountingMatrix, "instances", [])
    monkeypatch.setattr(llc_baseline, "BatchedLRUMatrix", CountingMatrix)
    monkeypatch.setattr(llc_avr, "AVRLLC", CountingAVRLLC)

    def replayed(system):
        if isinstance(system.llc, CountingAVRLLC):
            return system.llc.scanned
        return CountingMatrix.instances[-1].ops

    return replayed


#: (periods, copies, kept cores or None): streams whose LLC replays
#: tile, checked to tile
TILING_SHAPES = {
    # every core's period two whole chunk turns, so a superperiod is
    # one period, as on avr-stream's trace (54 turns)
    "equal-chunk-multiples": ([24, 24, 24], 12, None),
    # superperiods of 2 turns: 3 of core 1's periods, 2 of core 0's,
    # and 13 copies leave a partial last one
    "unequal-periods": ([12, 8], 13, None),
    # core 2 never runs and cores 0 and 2 are emptied, so only
    # cores 1 and 3 set the superperiod
    "restricted": ([24, 36, 0, 12], 12, [1, 3]),
}


@pytest.mark.parametrize("shape", sorted(TILING_SHAPES))
def test_repeating_llc_streams_tile(monkeypatch, counting_llcs, shape):
    """Each shape's LLC stream repeats (at least twice, the bound the
    property test uses too), both LLC families replay fewer events than
    it holds, and every design matches the oracle."""
    monkeypatch.setattr(simulator, "MIN_LLC_REPEATS", 2)
    periods, copies, kept = TILING_SHAPES[shape]
    trace = repeating_trace(periods, copies, 1, 12, 1, 0.3, False)
    config = replace(TILING_CONFIG, num_cores=len(periods))
    front_end = compute_front_end(trace, config)
    if kept is not None:
        trace = emptied(trace, kept)
        front_end = front_end.restrict(kept)
    repeat = simulator._event_repeat(front_end)
    assert repeat is not None
    layout = tiling_layout(1)
    for design in (BASELINE, AVR):
        system = build_system(design, config, layout, TILING_FOOTPRINT)
        system.run(front_end)
        assert counting_llcs(system) < front_end.event_addr.size, design.name
    assert_designs_match_oracle(trace, front_end, config, layout, TILING_FOOTPRINT)


@pytest.fixture(scope="module")
def tiling_heat_context():
    """heat at scale 0.12 on 2 cores, 12,000 accesses per core: 30
    periods of 400 accesses, so superperiods of 3 periods (100 chunk
    turns), and an LLC stream of a 3,200-event first superperiod then
    9 copies of a 3,600-event one."""
    layout, trace, footprint = _workload_context("heat", 0.12, 12_000)
    return layout, trace, footprint, compute_front_end(trace, CONFIG)


def test_repeating_heat_trace_tiles_and_matches_oracle(
    counting_llcs, tiling_heat_context
):
    """A real trace whose LLC stream tiles: both LLC families replay the
    first superperiod and at most three copies, and every design and
    AVR ablation matches the oracle."""
    layout, trace, footprint, front_end = tiling_heat_context
    assert trace.iterations_simulated == 30
    repeat = simulator._event_repeat(front_end)
    assert repeat == (3_200, 3_600, 9)
    for design in (BASELINE, AVR):
        system = build_system(design, CONFIG, layout, footprint)
        system.run(front_end)
        assert counting_llcs(system) <= repeat.start + 3 * repeat.width
    assert_designs_match_oracle(trace, front_end, CONFIG, layout, footprint)


def test_perturbed_llc_stream_replays_in_one_batch(tiling_heat_context):
    """One late access of core 1 moved to a fresh line changes one late
    LLC event: the stream no longer repeats to its end, so no LLC
    tiles, and every design still matches the oracle.  A late event
    whose read flag alone flips stops the repeat too."""
    layout, trace, footprint, whole = tiling_heat_context
    flipped = whole.event_is_read.copy()
    flipped[-5] = not flipped[-5]
    assert simulator._event_repeat(replace(whole, event_is_read=flipped)) is None
    core = trace.cores[1].copy()
    core["addr"][-5] = 1 << 32
    perturbed = GeneratedTrace(
        cores=[trace.cores[0], core],
        iterations_simulated=trace.iterations_simulated,
        iterations_total=trace.iterations_total,
    )
    front_end = compute_front_end(perturbed, CONFIG)
    assert simulator._event_repeat(front_end) is None
    assert_designs_match_oracle(
        perturbed, front_end, CONFIG, layout, footprint,
        designs=resolve_designs(list_designs()),
    )


def test_unsettled_llc_replays_the_rest(
    monkeypatch, counting_llcs, tiling_heat_context
):
    """With a settle bound of one copy no LLC compares two copies'
    states, so both replay every event after the first copy without
    tiling, and every design matches the oracle."""
    monkeypatch.setattr(llc_baseline, "LLC_SETTLE_COPIES", 1)
    monkeypatch.setattr(llc_avr, "LLC_SETTLE_COPIES", 1)
    layout, trace, footprint, front_end = tiling_heat_context
    assert simulator._event_repeat(front_end) is not None
    for design in (BASELINE, AVR):
        system = build_system(design, CONFIG, layout, footprint)
        system.run(front_end)
        assert counting_llcs(system) == front_end.event_addr.size
    assert_designs_match_oracle(
        trace, front_end, CONFIG, layout, footprint,
        designs=resolve_designs(list_designs()),
    )


def test_avr_stream_llcs_replay_four_superperiods(monkeypatch, counting_llcs):
    """benchsuite's avr-stream trace (heat at scale 0.2, 4 cores, 100k
    accesses per core): a 2,864-event first superperiod, then 149
    copies of a 3,888-event one.  Each LLC replays the first
    superperiod and at most three copies, and every design's
    ``SimResult`` equals a replay that does not tile."""
    layout, trace, footprint = _workload_context("heat", 0.2, 100_000, num_cores=4)
    config = SystemConfig.scaled(num_cores=4)
    front_end = compute_front_end(trace, config)
    repeat = simulator._event_repeat(front_end)
    assert repeat == (2_864, 3_888, 149)
    assert repeat.start + repeat.copies * repeat.width == front_end.event_addr.size
    tiled = {}
    for design in resolve_designs(list_designs()):
        system = build_system(design, config, layout, footprint)
        tiled[design.name] = system.run(front_end)
        assert counting_llcs(system) <= repeat.start + 3 * repeat.width, design.name
    monkeypatch.setattr(simulator, "_event_repeat", lambda front_end: None)
    for design in resolve_designs(list_designs()):
        whole = build_system(design, config, layout, footprint).run(front_end)
        assert tiled[design.name].metrics_equal(whole), design.name
