"""Differential tests: the timing front end against its oracle.

:func:`repro.system.frontend.compute_front_end` places the private
filter's LLC events by position and the chunk interleave by counting;
:func:`oracles.compute_front_end_reference` is the masked, staged and
sorted pipeline it replaced.  Every column must match in dtype and
value, on the full trace and on every core subset
(:meth:`~repro.system.frontend.TimingFrontEnd.restrict`), also on
traces whose cores repeat a template, as generated traces do, which
the private filter replays until its state repeats and then tiles.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import compute_front_end_reference, make_trace
from repro.approx import ApproxMemory
from repro.cache.array_lru import MIN_REPEATS, BatchedPrivateFilter
from repro.common.config import CacheConfig, SystemConfig
from repro.system import frontend
from repro.system.frontend import INTERLEAVE_CHUNK, TimingFrontEnd, compute_front_end
from repro.trace.generator import GeneratedTrace, generate_trace
from repro.workloads import make_workload

#: per-core lengths around the 12-access chunk: empty, one access, a
#: partial chunk, exactly one, one more, two and a partial, many
LENGTHS = (0, 1, 11, 12, 13, 25, 300)
#: the scaled machine (16 L1 sets, 32 L2 sets) and one with a single
#: 2-way L1 set over a 4-set, 2-way L2, where nearly every access evicts
CONFIGS = {
    "scaled": SystemConfig.scaled(num_cores=8),
    "one-l1-set": SystemConfig(
        num_cores=8,
        l1=CacheConfig(2 * 64, 2, 1),
        l2=CacheConfig(8 * 64, 2, 8),
    ),
}


def build_trace(
    lengths: list[int],
    seed: int,
    pool: int,
    stride: int,
    write_frac: float,
    shared: bool,
) -> GeneratedTrace:
    """Per-core streams over ``pool`` lines ``stride`` lines apart.

    A stride of 32 lines puts every line in one set of both scaled
    levels.  With ``shared`` every core draws from the same lines;
    otherwise each core's lines sit in their own 1 MB window.
    """
    rng = np.random.default_rng(seed)
    cores = []
    for c, length in enumerate(lengths):
        base = 0 if shared else c << 20
        lines = rng.integers(0, pool, length) * stride
        addrs = base + lines * 64 + rng.integers(0, 8, length) * 8
        writes = rng.random(length) < write_frac
        gaps = rng.integers(0, 50, length)
        cores.append(make_trace(addrs, writes, gaps))
    return GeneratedTrace(cores=cores, iterations_simulated=1, iterations_total=1)


def repeating_trace(
    lengths: list[int],
    copies: int,
    seed: int,
    pool: int,
    stride: int,
    write_frac: float,
    shared: bool,
) -> GeneratedTrace:
    """:func:`build_trace`'s per-core streams as templates, each
    repeated ``copies`` times, as a generated trace's iterations are.
    Gaps are drawn afresh for every access: they never repeat, and the
    filter never reads them."""
    template = build_trace(lengths, seed, pool, stride, write_frac, shared)
    rng = np.random.default_rng(seed + 1)
    cores = []
    for t in template.cores:
        tiled = np.tile(t, copies)
        tiled["gap"] = rng.integers(0, 50, tiled.size)
        cores.append(tiled)
    return GeneratedTrace(
        cores=cores, iterations_simulated=copies, iterations_total=copies
    )


def assert_same_front_end(got: TimingFrontEnd, want: TimingFrontEnd) -> None:
    for name, column in want.columns().items():
        other = got.columns()[name]
        assert other.dtype == column.dtype, name
        assert np.array_equal(other, column), name


def writeback_slots(front_end: TimingFrontEnd) -> np.ndarray:
    """Per access, how many writebacks it issued."""
    writebacks = front_end.event_access[~front_end.event_is_read]
    return np.bincount(writebacks, minlength=front_end.l1_accesses)


@given(
    lengths=st.lists(st.sampled_from(LENGTHS), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    pool=st.sampled_from([3, 12, 48, 400]),
    stride=st.sampled_from([1, 32]),
    write_frac=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    shared=st.booleans(),
    config=st.sampled_from(sorted(CONFIGS)),
    subset=st.sets(st.integers(0, 7)),
)
def test_front_end_matches_oracle(
    lengths, seed, pool, stride, write_frac, shared, config, subset
):
    trace = build_trace(lengths, seed, pool, stride, write_frac, shared)
    got = compute_front_end(trace, CONFIGS[config])
    want = compute_front_end_reference(trace, CONFIGS[config])
    assert_same_front_end(got, want)
    cores = sorted(c for c in subset if c < len(lengths))
    assert_same_front_end(got.restrict(cores), want.restrict(cores))


def all_subsets(num_cores: int) -> list[tuple[int, ...]]:
    return [
        cores
        for k in range(num_cores + 1)
        for cores in itertools.combinations(range(num_cores), k)
    ]


@given(
    lengths=st.lists(st.sampled_from((0, 1, 5, 12, 13, 40)), min_size=1, max_size=4),
    copies=st.integers(MIN_REPEATS, 12),
    seed=st.integers(0, 2**32 - 2),
    pool=st.sampled_from([3, 12, 48]),
    stride=st.sampled_from([1, 32]),
    write_frac=st.sampled_from([0.0, 0.3, 1.0]),
    shared=st.booleans(),
    config=st.sampled_from(sorted(CONFIGS)),
)
def test_repeating_front_end_matches_oracle(
    lengths, copies, seed, pool, stride, write_frac, shared, config
):
    """Traces whose cores repeat a template, as generated ones do: the
    filter tiles them, and every column still equals the oracle's, on
    the full trace and on every core subset."""
    trace = repeating_trace(
        lengths, copies, seed, pool, stride, write_frac, shared
    )
    got = compute_front_end(trace, CONFIGS[config])
    want = compute_front_end_reference(trace, CONFIGS[config])
    assert_same_front_end(got, want)
    for cores in all_subsets(len(lengths)):
        assert_same_front_end(got.restrict(cores), want.restrict(cores))


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("shared", [False, True], ids=["private", "shared"])
def test_mixed_trace_exercises_every_event_slot(config, shared):
    """A crafted mix whose reference output holds L1 hits, accesses with
    both writebacks, and cores at every length: the orders the
    differential test pins all occur."""
    lengths = [300, 0, 13, 300, 11, 25, 12, 1]
    trace = build_trace(lengths, 5, 48, 32, 0.5, shared)
    want = compute_front_end_reference(trace, CONFIGS[config])
    assert want.l1_hit.any() and not want.l1_hit.all()
    assert (writeback_slots(want) == 2).any()
    # two cores take turns within one chunk pass
    assert want.event_access.size > 2 * INTERLEAVE_CHUNK
    got = compute_front_end(trace, CONFIGS[config])
    assert_same_front_end(got, want)
    for cores in ([], [0], [1], [0, 3], [2, 4, 5, 6, 7], list(range(8))):
        assert_same_front_end(got.restrict(cores), want.restrict(cores))


@pytest.mark.parametrize("lengths", [[0], [0, 0, 0], [1, 0, 1], [0, 40]])
def test_empty_and_single_event_streams(lengths):
    """No access (n = m = 0), and streams whose every access after its
    first hits one L1 line: one event per populated core."""
    config = CONFIGS["scaled"]
    trace = build_trace(lengths, 0, 1, 1, 0.0, False)
    got = compute_front_end(trace, config)
    assert got.event_access.size == sum(1 for n in lengths if n)
    assert_same_front_end(got, compute_front_end_reference(trace, config))


def streaming_trace(cores: int, per_core: int) -> GeneratedTrace:
    """avr-stream's shape: every access a new line, every other one a
    write, so every access misses L1 and L2 and half the L2 victims are
    dirty writebacks."""
    streams = []
    for c in range(cores):
        addrs = (c << 28) + np.arange(per_core, dtype=np.int64) * 64
        writes = np.arange(per_core) % 2 == 1
        streams.append(make_trace(addrs, writes, np.zeros(per_core, np.int64)))
    return GeneratedTrace(cores=streams, iterations_simulated=1, iterations_total=1)


def test_front_end_transient_memory_per_access():
    """Guard the front end's transient peak on streaming traffic: events
    are written to their positions and placed by counting, with no
    ``(n, 3)`` staging or sort, and the gap column is gathered after the
    private filter, so the peak stays at or below 156 bytes per access
    (135.1 measured; 139.1 with the gaps held through the filter, and
    the staged, sorted pipeline took 220)."""
    trace = streaming_trace(4, 50_000)
    n = trace.total_accesses
    config = SystemConfig.scaled(num_cores=4)
    tracemalloc.start()
    try:
        front_end = compute_front_end(trace, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not front_end.l1_hit.any() and front_end.needs_llc.all()
    assert peak / n <= 156, f"{peak / n:.1f} B/access"


def test_repeating_front_end_transient_memory_per_access():
    """The same guard on streaming traffic that repeats: each core's
    stream is 100 copies of 500 new lines, so the filter replays a few
    periods and tiles the rest straight into the front end's columns.
    The peak, now set by the event interleave rather than the filter,
    stays at or below 80 bytes per access (69.0 measured; 137.9 when
    the same trace replays in one batch)."""
    template = streaming_trace(4, 500)
    trace = GeneratedTrace(
        cores=[np.tile(core, 100) for core in template.cores],
        iterations_simulated=100,
        iterations_total=100,
    )
    n = trace.total_accesses
    config = SystemConfig.scaled(num_cores=4)
    tracemalloc.start()
    try:
        front_end = compute_front_end(trace, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not front_end.l1_hit.any() and front_end.needs_llc.all()
    assert peak / n <= 80, f"{peak / n:.1f} B/access"


class CountingFilter(BatchedPrivateFilter):
    """A private filter that counts the accesses its L1 replays."""

    instances: list[CountingFilter] = []

    def __init__(self, config: SystemConfig, num_cores: int) -> None:
        super().__init__(config, num_cores)
        self.l1_ops = 0
        replay = self.l1.replay

        def counting(set_idx, *args, **kwargs):
            self.l1_ops += int(set_idx.size)
            return replay(set_idx, *args, **kwargs)

        self.l1.replay = counting
        CountingFilter.instances.append(self)


def test_avr_stream_trace_takes_the_fast_path(monkeypatch):
    """benchsuite's avr-stream trace (heat at scale 0.2, 4 cores, 100k
    accesses per core) repeats one period 150 times per core.  The
    front end filters it once, its L1 replays no more than three
    periods of it, and every column equals the oracle's."""
    workload = make_workload("heat", scale=0.2)
    mem = ApproxMemory()
    workload.allocate(mem)
    trace = generate_trace(
        workload.trace_spec(), mem, num_cores=4, max_accesses_per_core=100_000
    )
    assert trace.iterations_simulated == 150
    config = SystemConfig.scaled(num_cores=4)
    monkeypatch.setattr(CountingFilter, "instances", [])
    monkeypatch.setattr(frontend, "BatchedPrivateFilter", CountingFilter)
    got = compute_front_end(trace, config)
    (filt,) = CountingFilter.instances
    period = trace.total_accesses // trace.iterations_simulated
    assert filt.l1_ops <= 3 * period
    assert_same_front_end(got, compute_front_end_reference(trace, config))
