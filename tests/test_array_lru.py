"""Differential tests: batched array-LRU vs the dict-based reference.

:class:`BatchedLRUMatrix` and :class:`BatchedPrivateFilter` must
reproduce :class:`SetAssocCache` / :class:`PrivateCaches` *exactly* —
per-op hits, victims, victim dirty flags, counters and final contents —
because the vectorized timing engine's bit-identical guarantee rests on
them.  These tests replay the same randomized op streams through both
models and compare everything.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PrivateCaches, SetAssocCache, matrix_lru_state
from repro.cache.array_lru import EMPTY, BatchedLRUMatrix, BatchedPrivateFilter
from repro.common.config import CacheConfig, SystemConfig


def _random_ops(rng, n, num_lines, insert_frac=0.0):
    lines = rng.integers(0, num_lines, n)
    flags = rng.random(n) < 0.4
    is_access = rng.random(n) >= insert_frac
    return lines, flags, is_access


def _replay_reference(cache: SetAssocCache, lines, flags, is_access):
    """Drive the dict model op by op, collecting per-op outcomes."""
    present = np.zeros(len(lines), dtype=bool)
    victim_line = np.full(len(lines), EMPTY, dtype=np.int64)
    victim_dirty = np.zeros(len(lines), dtype=bool)
    for i, (line, flag, acc) in enumerate(zip(lines, flags, is_access)):
        addr = int(line) << cache.line_shift
        if acc:
            hit, victim = cache.access(addr, bool(flag))
            present[i] = hit
        else:
            present[i] = cache.probe(addr)
            victim = cache.insert(addr, bool(flag))
        if victim is not None:
            victim_line[i] = victim[0] >> cache.line_shift
            victim_dirty[i] = victim[1]
    return present, victim_line, victim_dirty


def _random_batches(num_lines):
    """Three batches of 500 random ops over ``num_lines`` lines, 30% inserts."""
    def build(rng):
        return [_random_ops(rng, 500, num_lines, insert_frac=0.3) for _ in range(3)]
    return build


def _batch(lines, writes=(), inserts=()):
    """One crafted batch: ``lines`` in order; the ops at the indices in
    ``writes`` carry a set flag, those in ``inserts`` are inserts."""
    lines = np.asarray(lines, dtype=np.int64)
    flags = np.zeros(lines.size, dtype=bool)
    flags[list(writes)] = True
    is_access = np.ones(lines.size, dtype=bool)
    is_access[list(inserts)] = False
    return lines, flags, is_access


def _crafted(*batches):
    return lambda rng: list(batches)


def _matrix_reference(num_sets, ways, batches):
    """The matrices an op-by-op replay leaves, way positions included.

    A hit ORs its flag into its way; a miss takes the lowest-index
    empty way, else the way with the smallest age; either way the op's
    position on the clock becomes the way's age.
    """
    tags = np.full((num_sets, ways), EMPTY, dtype=np.int64)
    dirty = np.zeros((num_sets, ways), dtype=bool)
    ages = np.full((num_sets, ways), EMPTY, dtype=np.int64)
    clock = 0
    for lines, flags, _ in batches:
        for line, flag in zip(lines.tolist(), flags.tolist()):
            s = line % num_sets
            row = tags[s].tolist()
            if line in row:
                way = row.index(line)
                dirty[s, way] |= flag
            else:
                way = int(np.argmin(ages[s]))
                tags[s, way] = line
                dirty[s, way] = flag
            ages[s, way] = clock
            clock += 1
    return tags, dirty, ages


def _assert_matrices_equal(mat, num_sets, ways, batches):
    tags, dirty, ages = _matrix_reference(num_sets, ways, batches)
    assert np.array_equal(tags, mat.tags)
    assert np.array_equal(dirty, mat.dirty)
    assert np.array_equal(ages, mat.ages)


@pytest.mark.parametrize("num_sets,ways,build", [
    # tiny, heavy conflict
    pytest.param(4, 2, _random_batches(32), id="4-2-32"),
    # the scaled L1 geometry, working set == capacity
    pytest.param(16, 4, _random_batches(64), id="16-4-64"),
    # streaming: mostly misses
    pytest.param(16, 4, _random_batches(4096), id="16-4-4096"),
    # single set: fully serial LRU order
    pytest.param(1, 3, _random_batches(9), id="1-3-9"),
    # Crafted streams for the fold and the streaming prefix.
    # Pure streaming: every op misses and evicts the op `ways` back.
    pytest.param(
        4, 2, _crafted(_batch(range(400), writes=range(0, 400, 3))),
        id="streaming",
    ),
    # Line 0 returns after exactly ways - 1 = 3 other lines: each
    # return folds, and the chain's last touch decides its eviction.
    pytest.param(
        1, 4,
        _crafted(_batch([0, 1, 2, 3, 0, 4, 5, 6, 0, 7, 8, 9, 0, 10, 11, 12, 13])),
        id="reuse-gap-ways-minus-1",
    ),
    # Line 0 returns after exactly ways = 4 other lines: a miss each time.
    pytest.param(
        1, 4, _crafted(_batch([0, 1, 2, 3, 4, 0, 5, 6, 7, 8, 0, 9])),
        id="reuse-gap-ways",
    ),
    # Set 0's chain on line 0 spans the misses of 50 and 52, and only a
    # later member writes: its eviction must carry the chain's OR.
    pytest.param(
        2, 3,
        _crafted(_batch(
            [100, 101, 102, 103, 104, 105, 0, 1, 50, 51, 0, 1, 52, 53, 0, 1,
             54, 55, 56, 57, 58, 59, 60, 61],
            writes=(10, 7),
        )),
        id="chain-spans-miss-dirty",
    ),
    # The chain on line 0 outlives line 1's head, so head ages fall at
    # line 1: the prefix stops there and rounds evict line 1, not 0.
    pytest.param(
        1, 2, _crafted(_batch([0, 1, 0, 2, 3, 1, 4, 2], writes=(2,))),
        id="falling-ages",
    ),
    pytest.param(
        2, 2,
        _crafted(_batch([0, 1, 2, 3, 0, 1, 4, 5, 6, 7, 2, 3, 8, 9, 4, 5])),
        id="falling-ages-two-sets",
    ),
    # After 100 streaming misses, 96 returns 4 ops of set 0 later (no
    # fold) but only 2 heads later, since 98's repeats fold: a hit.
    pytest.param(
        2, 2,
        _crafted(_batch([*range(100), 98, 98, 98, 96, 99, 97, 0], writes=(101,))),
        id="hit-after-long-prefix",
    ),
    # Second and third batches replay onto sets that hold lines.
    pytest.param(
        4, 2,
        _crafted(
            _batch(range(40), writes=range(0, 40, 5)),
            _batch([36, 37, 38, 39, 40, 41, 36, 100, 101, 102, 103, 104],
                   writes=(4,), inserts=(5, 9)),
            _batch([*range(200, 216), 104, 103, 40], inserts=(0, 1)),
        ),
        id="later-batches",
    ),
])
def test_matrix_matches_dict_cache(num_sets, ways, build):
    rng = np.random.default_rng(num_sets * 1000 + ways)
    config = CacheConfig(num_sets * ways * 64, ways, 1)
    ref = SetAssocCache(config)
    mat = BatchedLRUMatrix(num_sets, ways)

    # Several batches, so the op clock carries across replay() calls.
    batches = build(rng)
    for lines, flags, is_access in batches:
        ref_out = _replay_reference(ref, lines, flags, is_access)
        set_idx = lines % num_sets
        mat_out = mat.replay(set_idx, lines, flags, is_access=is_access)

        # Per-op outcomes: residency, victim line, victim dirty flag.
        assert np.array_equal(ref_out[0], mat_out[0])
        assert np.array_equal(ref_out[1], mat_out[1])
        assert np.array_equal(ref_out[2], mat_out[2])

    assert (ref.hits, ref.misses) == (mat.hits, mat.misses)
    # Final contents in LRU→MRU order must agree set by set.
    assert [
        [(line, dirty) for line, dirty in s] for s in ref.lru_state()
    ] == matrix_lru_state(mat)
    # ...and the matrices themselves, way by way.
    _assert_matrices_equal(mat, num_sets, ways, batches)


@settings(max_examples=150)
@given(
    num_sets=st.integers(1, 8),
    ways=st.integers(1, 5),
    data=st.data(),
)
def test_matrix_matches_dict_cache_property(num_sets, ways, data):
    """Random geometries, 1–3 batches, access/insert mixes: per-op
    outcomes, counters and final state equal the dict model's, and the
    matrices equal an op-by-op replay's."""
    span = data.draw(st.integers(1, 3 * num_sets * ways + 2), label="lines")
    op = st.tuples(st.integers(0, span - 1), st.booleans(), st.booleans())
    drawn = data.draw(
        st.lists(st.lists(op, max_size=60), min_size=1, max_size=3),
        label="batches",
    )
    batches = [
        (
            np.array([line for line, _, _ in ops], dtype=np.int64),
            np.array([flag for _, flag, _ in ops], dtype=bool),
            np.array([acc for _, _, acc in ops], dtype=bool),
        )
        for ops in drawn
    ]
    ref = SetAssocCache(CacheConfig(num_sets * ways * 64, ways, 1))
    mat = BatchedLRUMatrix(num_sets, ways)
    for lines, flags, is_access in batches:
        ref_out = _replay_reference(ref, lines, flags, is_access)
        mat_out = mat.replay(lines % num_sets, lines, flags, is_access=is_access)
        for want, got in zip(ref_out, mat_out):
            assert np.array_equal(want, got)
    assert (ref.hits, ref.misses) == (mat.hits, mat.misses)
    assert [list(s) for s in ref.lru_state()] == matrix_lru_state(mat)
    _assert_matrices_equal(mat, num_sets, ways, batches)


def test_rows_sharing_line_numbers_stay_apart():
    """Two rows replaying the same lines, as the private filter's cores
    do: the fold keys on the (set, line) pair, so core 1's first touch
    of a line core 0 just used is still a miss."""
    lines = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
    rows = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
    mat = BatchedLRUMatrix(2, 4)
    present, victim_line, _ = mat.replay(rows, lines, np.zeros(6, dtype=bool))
    assert not present.any()
    assert (victim_line == EMPTY).all()
    assert mat.tags[:, :3].tolist() == [[0, 1, 2], [0, 1, 2]]


@pytest.mark.parametrize("kind", ["streaming", "short-reuse"])
def test_replay_transient_memory_per_op(kind):
    """Guard the replay's transient peak: the passes free each
    batch-sized temporary before building the next, so a 240k-op replay
    peaks at no more than 60 bytes per op (the rounds alone needed 59;
    keeping the passes' temporaries alive needed 110–194)."""
    n = 240_000
    lines = np.arange(n, dtype=np.int64)
    if kind == "short-reuse":
        lines //= 3  # each line touched three times in a row
    flags = (lines % 3) == 0
    mat = BatchedLRUMatrix(128, 8)
    set_idx = lines % 128
    tracemalloc.start()
    try:
        mat.replay(set_idx, lines, flags)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n <= 60, f"{peak / n:.1f} B/op"


def test_empty_batch_is_a_noop():
    mat = BatchedLRUMatrix(4, 2)
    present, vline, vdirty = mat.replay(
        np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, bool)
    )
    assert present.size == vline.size == vdirty.size == 0
    assert mat.hits == mat.misses == 0


def _assert_filter_matches_private_caches(config, streams):
    """Filter per-core ``(addrs, writes)`` streams in one batched pass
    and compare it with one :class:`PrivateCaches` per core."""
    num_cores = len(streams)
    # Reference: one PrivateCaches per core, accesses in core order.
    ref_privates = [PrivateCaches(config) for _ in range(num_cores)]
    ref_needs, ref_wbs = [], []
    for (addrs, writes), priv in zip(streams, ref_privates):
        for addr, write in zip(addrs.tolist(), writes.tolist()):
            latency, needs_llc, wbs = priv.access(addr, write)
            ref_needs.append(needs_llc)
            ref_wbs.append(list(wbs))

    core_ids = np.repeat(np.arange(num_cores), [a.size for a, _ in streams])
    all_addrs = np.concatenate([a for a, _ in streams])
    all_writes = np.concatenate([w for _, w in streams])
    bpf = BatchedPrivateFilter(config, num_cores)
    filt = bpf.filter(core_ids, all_addrs, all_writes)

    assert np.array_equal(np.array(ref_needs), filt.needs_llc)
    # The events are core-major: each access's demand read, then its
    # writebacks in the order PrivateCaches hands them over.
    assert np.all(np.diff(filt.event_access) >= 0)
    bounds = np.searchsorted(filt.event_access, np.arange(all_addrs.size + 1))
    for i, wbs in enumerate(ref_wbs):
        ev = slice(bounds[i], bounds[i + 1])
        reads = filt.event_is_read[ev]
        kinds = [True] * ref_needs[i] + [False] * len(wbs)
        assert reads.tolist() == kinds, f"event kinds mismatch at op {i}"
        if ref_needs[i]:
            assert int(filt.event_addr[ev][0]) == int(all_addrs[i])
        got = filt.event_addr[ev][~reads].tolist()
        assert [a for a, _ in wbs] == got, f"writeback mismatch at op {i}"
    # Every access reaches L1, and every L1 miss reaches L2.
    assert filt.l1_hit.size == sum(p.l1.accesses for p in ref_privates)
    assert np.count_nonzero(~filt.l1_hit) == sum(
        p.l2.accesses for p in ref_privates
    )
    assert bpf.l1.hits == sum(p.l1.hits for p in ref_privates)
    assert bpf.l2.hits == sum(p.l2.hits for p in ref_privates)
    return ref_wbs


def test_private_filter_matches_private_caches():
    """Whole-hierarchy differential: BatchedPrivateFilter vs per-core
    PrivateCaches on a mixed random/streaming multi-core stream."""
    config = SystemConfig.scaled(num_cores=2)
    num_cores = 3
    rng = np.random.default_rng(7)
    per_core = 1500
    streams = []
    for c in range(num_cores):
        base = c * (1 << 20)
        stream = base + np.arange(per_core // 2) * 64
        rand = base + rng.integers(0, 1 << 14, per_core - per_core // 2) * 8
        addrs = np.concatenate([stream, rand]).astype(np.int64)
        writes = rng.random(per_core) < 0.35
        streams.append((addrs, writes))
    _assert_filter_matches_private_caches(config, streams)


@pytest.mark.parametrize("config", [
    SystemConfig.scaled(num_cores=3),
    # One L1 set per core, so core c's L1 row sits next to core c + 1's
    # and the end of one core's stream meets the start of the next's.
    SystemConfig(
        num_cores=3,
        l1=CacheConfig(4 * 64, 4, 1),
        l2=CacheConfig(2 * 8 * 64, 8, 8),
    ),
], ids=["scaled", "one-l1-set"])
def test_private_filter_cores_sharing_addresses(config):
    """Every core touches the same addresses: a fold keyed on the line
    alone would carry one core's reuse into another core's rows."""
    rng = np.random.default_rng(11)
    loop = np.tile(np.array([0, 64, 128]), 4)  # starts and ends the stream
    sweep = np.arange(600) * 64
    pool = rng.integers(0, 1 << 13, 600) * 8
    addrs = np.concatenate([loop, sweep, pool, loop]).astype(np.int64)
    streams = [(addrs, rng.random(addrs.size) < 0.35) for _ in range(3)]
    _assert_filter_matches_private_caches(config, streams)


def test_private_filter_orders_both_writebacks():
    """A conflict-heavy stream in which accesses hand two dirty L2
    victims to the LLC: the install's victim must come first."""
    config = SystemConfig(
        num_cores=2,
        l1=CacheConfig(2 * 64, 2, 1),
        l2=CacheConfig(4 * 64, 2, 8),
    )
    rng = np.random.default_rng(3)
    streams = [
        (rng.integers(0, 16, 400) * 64, rng.random(400) < 0.5) for _ in range(2)
    ]
    ref_wbs = _assert_filter_matches_private_caches(config, streams)
    assert sum(len(wbs) == 2 for wbs in ref_wbs) > 0


class TestFirstOfGroups:
    def test_marks_run_starts(self):
        from repro.cache.array_lru import first_of_groups

        values = np.array([3, 3, 7, 7, 7, 3, 1])
        assert first_of_groups(values).tolist() == [
            True, False, True, False, False, True, True,
        ]

    def test_empty_and_singleton(self):
        from repro.cache.array_lru import first_of_groups

        assert first_of_groups(np.array([], dtype=np.int64)).size == 0
        assert first_of_groups(np.array([42])).tolist() == [True]
