"""Differential tests: batched array-LRU vs the dict-based reference.

:class:`BatchedLRUMatrix` and :class:`BatchedPrivateFilter` must
reproduce :class:`SetAssocCache` / :class:`PrivateCaches` *exactly* —
per-op hits, victims, victim dirty flags, counters and final contents —
because the vectorized timing engine's bit-identical guarantee rests on
them.  These tests replay the same randomized op streams through both
models and compare everything.  Streams built as copies of a template
take the filter's steady-state fast path, which must match the same
way: outcomes, events and counters access by access, and each row's
LRU state at the end.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PrivateCaches, SetAssocCache, matrix_lru_state
from repro.cache import array_lru
from repro.cache.array_lru import (
    EMPTY,
    MIN_REPEATS,
    BatchedLRUMatrix,
    BatchedPrivateFilter,
)
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


def _filter_and_compare(config, calls):
    """Filter each call's per-core ``(addrs, writes)`` streams with its
    ``repeats``, call after call, through one
    :class:`BatchedPrivateFilter`, through a second one that replays
    every call in one batch, and through one :class:`PrivateCaches` per
    core; compare everything.

    Per call: every access's L1 hit and LLC need, and its events in
    order (demand read, then the writebacks in the order PrivateCaches
    hands them over), equal the references'.  At the end: both levels'
    hit and miss counters, and their clocks, equal a one-batch
    replay's, and every row holds the reference's lines and dirty bits
    in its recency order.  Returns the last call's writebacks per
    access and the sizes of the filter's L1 replays.
    """
    num_cores = len(calls[0][0])
    ref_privates = [PrivateCaches(config) for _ in range(num_cores)]
    bpf = BatchedPrivateFilter(config, num_cores)
    whole = BatchedPrivateFilter(config, num_cores)
    l1_replays = []
    replay = bpf.l1.replay

    def counting(set_idx, *args, **kwargs):
        l1_replays.append(int(set_idx.size))
        return replay(set_idx, *args, **kwargs)

    bpf.l1.replay = counting
    for streams, repeats in calls:
        # Reference: one PrivateCaches per core, accesses in core order.
        ref_hit, ref_needs, ref_wbs = [], [], []
        for (addrs, writes), priv in zip(streams, ref_privates):
            for addr, write in zip(addrs.tolist(), writes.tolist()):
                hits = priv.l1.hits
                _, needs_llc, wbs = priv.access(addr, write)
                ref_hit.append(priv.l1.hits > hits)
                ref_needs.append(needs_llc)
                ref_wbs.append(list(wbs))

        core_ids = np.repeat(np.arange(num_cores), [a.size for a, _ in streams])
        all_addrs = np.concatenate([a for a, _ in streams]).astype(np.int64)
        all_writes = np.concatenate([w for _, w in streams]).astype(bool)
        filt = bpf.filter(core_ids, all_addrs, all_writes, repeats=repeats)
        batch = whole.filter(core_ids, all_addrs, all_writes)
        for name in ("l1_hit", "needs_llc", "event_addr", "event_is_read",
                     "event_access"):
            got, want = getattr(filt, name), getattr(batch, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

        assert filt.l1_hit.tolist() == ref_hit
        assert filt.needs_llc.tolist() == ref_needs
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

    for level in ("l1", "l2"):
        fast, batched = getattr(bpf, level), getattr(whole, level)
        refs = [getattr(p, level) for p in ref_privates]
        assert fast.hits == batched.hits == sum(r.hits for r in refs), level
        assert fast.misses == batched.misses == sum(r.misses for r in refs), level
        assert fast._clock == batched._clock, level
        # LRU-equivalent: core c's rows hold its reference's lines.
        assert matrix_lru_state(fast) == [
            list(s) for r in refs for s in r.lru_state()
        ], level
    return ref_wbs, l1_replays


def _assert_filter_matches_private_caches(config, streams, repeats=1):
    """:func:`_filter_and_compare` for one call."""
    return _filter_and_compare(config, [(streams, repeats)])


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
    ref_wbs, _ = _assert_filter_matches_private_caches(config, streams)
    assert sum(len(wbs) == 2 for wbs in ref_wbs) > 0


#: one L1 set of 2 ways over one L2 set of 4: every line conflicts
ONE_SET = SystemConfig(
    num_cores=3,
    l1=CacheConfig(2 * 64, 2, 1),
    l2=CacheConfig(4 * 64, 4, 8),
)
#: machines for the repeating streams: the scaled one (16 L1 sets,
#: 32 L2 sets), ONE_SET, and 4 two-way L1 sets over 4 four-way L2 sets
REPEAT_CONFIGS = {
    "scaled": SystemConfig.scaled(num_cores=3),
    "one-set": ONE_SET,
    "small": SystemConfig(
        num_cores=3,
        l1=CacheConfig(4 * 2 * 64, 2, 1),
        l2=CacheConfig(4 * 4 * 64, 4, 8),
    ),
}


def _tiled(templates, copies):
    """Per-core streams, each ``copies`` copies of its core's
    ``(lines, writes)`` template (lines as 64-byte addresses)."""
    return [
        (np.tile(np.asarray(lines, dtype=np.int64) * 64, copies),
         np.tile(np.asarray(writes, dtype=bool), copies))
        for lines, writes in templates
    ]


@settings(max_examples=60)
@given(
    templates=st.lists(
        st.lists(st.tuples(st.integers(0, 23), st.booleans()), max_size=24),
        min_size=1,
        max_size=3,
    ),
    stride=st.sampled_from([1, 16]),
    copies=st.integers(MIN_REPEATS, 14),
    config=st.sampled_from(sorted(REPEAT_CONFIGS)),
)
def test_filter_tiles_repeating_streams(templates, stride, copies, config):
    """Streams of ``copies`` copies of drawn per-core templates (a
    stride of 16 lines puts every line in one scaled L1 set): the
    fast path matches PrivateCaches, and on a fresh filter it replays
    at most three periods (the module docstring's bound)."""
    streams = _tiled(
        [([line * stride for line, _ in t], [w for _, w in t]) for t in templates],
        copies,
    )
    _, l1_replays = _assert_filter_matches_private_caches(
        REPEAT_CONFIGS[config], streams, repeats=copies
    )
    period = sum(len(t) for t in templates)
    if period:
        assert len(l1_replays) <= 3
        assert l1_replays == [period] * len(l1_replays)


#: one core whose L1 repeats its state after the second period and
#: whose L2 only after the third: the line-0 and line-1 installs carry
#: the first period's writes into L2 once more
LATE_L2 = [([0, 1, 2], [True, True, False])]


def test_late_l2_settles_on_the_third_period():
    """On ONE_SET the template's L2 state repeats one period after its
    L1 state: the filter replays three periods of ten, then tiles."""
    streams = _tiled(LATE_L2, 10)
    _, l1_replays = _assert_filter_matches_private_caches(ONE_SET, streams, 10)
    assert l1_replays == [3, 3, 3]


def test_unsettled_state_replays_the_rest_in_one_batch(monkeypatch):
    """With a cut-off of two periods the late L2 never repeats within
    it: two single periods, then the other eight in one batch."""
    monkeypatch.setattr(array_lru, "SETTLE_PERIODS", 2)
    streams = _tiled(LATE_L2, 10)
    _, l1_replays = _assert_filter_matches_private_caches(ONE_SET, streams, 10)
    assert l1_replays == [3, 3, 24]


def _differ_at(streams, core, index, field):
    """``streams`` with one access's address or write flag changed."""
    changed = [(a.copy(), w.copy()) for a, w in streams]
    if field == "addr":
        changed[core][0][index] += 64
    else:
        changed[core][1][index] ^= True
    return changed


TEMPLATES = [([0, 5, 9, 0, 13], [True, False, False, True, False]),
             ([3, 3, 40, 7], [False, True, True, False])]


@pytest.mark.parametrize(("streams", "repeats", "tiles"), [
    # 12 copies, every other one a period: the stream still repeats
    pytest.param(_tiled(TEMPLATES, 12), 6, True, id="period-of-two-copies"),
    # 12 copies of 5 and 4 accesses do not split into 8 periods
    pytest.param(_tiled(TEMPLATES, 12), 8, False, id="repeats-does-not-divide"),
    pytest.param(_differ_at(_tiled(TEMPLATES, 8), 1, 21, "addr"), 8, False,
                 id="one-address-differs"),
    pytest.param(_differ_at(_tiled(TEMPLATES, 8), 0, 37, "write"), 8, False,
                 id="one-write-flag-differs"),
    pytest.param(_tiled(TEMPLATES, MIN_REPEATS - 1), MIN_REPEATS - 1, False,
                 id="too-few-repeats"),
])
def test_repeats_is_checked(streams, repeats, tiles):
    """A ``repeats`` the streams do not bear out, or one too small to
    pay, replays in one batch; a true one tiles."""
    _, l1_replays = _assert_filter_matches_private_caches(
        REPEAT_CONFIGS["small"], streams, repeats
    )
    n = sum(a.size for a, _ in streams)
    if tiles:
        assert sum(l1_replays) < n
    else:
        assert l1_replays == [n]


@pytest.mark.parametrize("second", ["repeating", "random"])
def test_filter_continues_after_a_fast_forward(second):
    """A second call on a filter whose first call tiled: the matrices
    the fast forward left are LRU-equivalent to a full replay's, so the
    second call's outcomes match too."""
    rng = np.random.default_rng(5)
    first = _tiled(TEMPLATES, 10)
    if second == "repeating":
        then = (_tiled([([1, 9, 0, 22, 5, 5], [False] * 5 + [True]),
                        ([40, 3, 8], [True, False, False])], 7), 7)
    else:
        then = ([(rng.integers(0, 48, 60) * 64, rng.random(60) < 0.5)
                 for _ in range(2)], 1)
    _, l1_replays = _filter_and_compare(
        REPEAT_CONFIGS["small"], [(first, 10), then]
    )
    assert sum(l1_replays) < sum(a.size for a, _ in first) + sum(
        a.size for a, _ in then[0]
    )


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
