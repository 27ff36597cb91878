"""Differential tests: batched array-LRU vs the dict-based reference.

:class:`BatchedLRUMatrix` and :class:`BatchedPrivateFilter` must
reproduce :class:`SetAssocCache` / :class:`PrivateCaches` *exactly* —
per-op hits, victims, victim dirty flags, counters and final contents —
because the vectorized timing engine's bit-identical guarantee rests on
them.  These tests replay the same randomized op streams through both
models and compare everything.
"""

import numpy as np
import pytest

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


@pytest.mark.parametrize("num_sets,ways,num_lines", [
    (4, 2, 32),      # tiny, heavy conflict
    (16, 4, 64),     # the scaled L1 geometry, working set == capacity
    (16, 4, 4096),   # streaming: mostly misses
    (1, 3, 9),       # single set: fully serial LRU order
])
def test_matrix_matches_dict_cache(num_sets, ways, num_lines):
    rng = np.random.default_rng(num_sets * 1000 + ways)
    config = CacheConfig(num_sets * ways * 64, ways, 1)
    ref = SetAssocCache(config)
    mat = BatchedLRUMatrix(num_sets, ways)

    # Several batches, so the op clock carries across replay() calls.
    for batch in range(3):
        lines, flags, is_access = _random_ops(rng, 500, num_lines, insert_frac=0.3)
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


def test_empty_batch_is_a_noop():
    mat = BatchedLRUMatrix(4, 2)
    present, vline, vdirty = mat.replay(
        np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, bool)
    )
    assert present.size == vline.size == vdirty.size == 0
    assert mat.hits == mat.misses == 0


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

    # Reference: one PrivateCaches per core, accesses in core order.
    ref_privates = [PrivateCaches(config) for _ in range(num_cores)]
    ref_needs, ref_wbs = [], []
    for (addrs, writes), priv in zip(streams, ref_privates):
        for addr, write in zip(addrs.tolist(), writes.tolist()):
            latency, needs_llc, wbs = priv.access(addr, write)
            ref_needs.append(needs_llc)
            ref_wbs.append(list(wbs))

    core_ids = np.repeat(np.arange(num_cores), per_core)
    all_addrs = np.concatenate([a for a, _ in streams])
    all_writes = np.concatenate([w for _, w in streams])
    bpf = BatchedPrivateFilter(config, num_cores)
    filt = bpf.filter(core_ids, all_addrs, all_writes)

    assert np.array_equal(np.array(ref_needs), filt.needs_llc)
    for i, wbs in enumerate(ref_wbs):
        got = []
        if filt.wb_insert_valid[i]:
            got.append(int(filt.wb_insert_addr[i]))
        if filt.wb_access_valid[i]:
            got.append(int(filt.wb_access_addr[i]))
        assert [a for a, _ in wbs] == got, f"writeback mismatch at op {i}"
    assert filt.l1_accesses == sum(p.l1.accesses for p in ref_privates)
    assert filt.l2_accesses == sum(p.l2.accesses for p in ref_privates)
    assert bpf.l1.hits == sum(p.l1.hits for p in ref_privates)
    assert bpf.l2.hits == sum(p.l2.hits for p in ref_privates)


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
