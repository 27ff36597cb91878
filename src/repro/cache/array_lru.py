"""Batched set-associative LRU over ``(sets, ways)`` tag/dirty/age matrices.

This module is the vectorized half of the timing simulator's fast path.
:class:`BatchedLRUMatrix` replays a whole *batch* of cache operations —
the complete per-core access stream of a trace — through a
set-associative LRU cache whose state lives in three dense matrices:

* ``tags``  — ``(sets, ways)`` int64, the line number held by each way
  (:data:`EMPTY` where the way is unallocated),
* ``dirty`` — ``(sets, ways)`` bool,
* ``ages``  — ``(sets, ways)`` int64, the batch position of the last
  touch; the LRU victim is the occupied way with the smallest age.

Ops targeting *different* sets are independent, so the batch is split
into **rounds**: round ``r`` contains the ``r``-th op of every set, and
each round is executed as one fancy-indexed matrix update (gather the
round's set rows, match tags, pick hit/empty/LRU ways, scatter the new
tags/dirty/ages back).  For the streaming access patterns this
reproduction simulates, sets are touched round-robin, so rounds are
wide and the Python-level loop shrinks by roughly the number of sets —
the key to the vectorized engine's speedup.

Per-op semantics are those of a true-LRU set-associative cache: an
*access* op hits (refreshing recency and ORing the write flag into the
dirty bit) or misses (allocating, evicting the LRU line when the set is
full) and counts toward ``hits``/``misses``; an *insert* op is a victim
fill from an inner level (refreshes recency when present, never counts
hits/misses).  ``tests/test_array_lru.py`` pins both op by op against
the test oracle's dict-based ``SetAssocCache``.

:class:`BatchedPrivateFilter` stacks two matrices into the private
L1+L2 hierarchy of *all* cores at once (core ``c``'s set ``s`` maps to
matrix row ``c * num_sets + s``), reproducing the oracle's per-access
``PrivateCaches`` — including the clean-victim install — for an entire
trace in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.config import SystemConfig

#: sentinel tag for an unallocated way; its age (-1) sorts below every
#: real op position, so empty ways are always allocated before any
#: occupied way is evicted — exactly the dict model's fill-then-evict.
EMPTY = -1


def first_of_groups(values: np.ndarray) -> np.ndarray:
    """Bool mask marking the first element of each run of equal values.

    The core of the rounds machinery: applied to a sorted set-index
    array it delimits the per-set op groups that become replay rounds.
    """
    n = int(values.size)
    first = np.empty(n, dtype=bool)
    if n == 0:
        return first
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


class BatchedLRUMatrix:
    """One cache level as ``(sets, ways)`` matrices with batch replay."""

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets < 1 or ways < 1:
            raise ValueError(f"need num_sets, ways >= 1, got {num_sets}, {ways}")
        self.num_sets = num_sets
        self.ways = ways
        self.tags = np.full((num_sets, ways), EMPTY, dtype=np.int64)
        self.dirty = np.zeros((num_sets, ways), dtype=bool)
        self.ages = np.full((num_sets, ways), EMPTY, dtype=np.int64)
        #: monotonically increasing op clock, carried across batches
        self._clock = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def replay(
        self,
        set_idx: np.ndarray,
        lines: np.ndarray,
        flags: np.ndarray,
        is_access: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Replay a batch of ops in order; returns per-op outcomes.

        ``set_idx``/``lines`` give each op's set and full line number;
        ``flags`` is the write flag for access ops and the incoming
        dirty flag for insert ops (the state update is identical:
        OR into dirty on presence, initial dirty on allocation).
        ``is_access`` marks which ops are accesses (default: all); only
        accesses count toward ``hits``/``misses``.

        Returns ``(present, victim_line, victim_dirty)``: whether each
        op found its line resident, and the evicted line per op
        (:data:`EMPTY` where nothing was evicted).
        """
        n = int(lines.size)
        present = np.zeros(n, dtype=bool)
        victim_line = np.full(n, EMPTY, dtype=np.int64)
        victim_dirty = np.zeros(n, dtype=bool)
        if n == 0:
            return present, victim_line, victim_dirty

        # Rounds: op k of the batch lands in round `rank(k)` = number of
        # earlier ops on the same set.  Sets within a round are distinct,
        # so each round is one conflict-free fancy-indexed update.
        order = np.argsort(set_idx, kind="stable")
        first = first_of_groups(set_idx[order])
        group = np.cumsum(first) - 1
        rank = np.arange(n, dtype=np.int64) - np.flatnonzero(first)[group]
        by_round = np.argsort(rank, kind="stable")
        op_ids = order[by_round]
        rounds = int(rank[by_round[-1]]) + 1
        bounds = np.searchsorted(
            rank[by_round], np.arange(rounds + 1, dtype=np.int64)
        )

        tags, ages = self.tags, self.ages
        # flat views: gather/scatter through one computed index instead
        # of (row, way) tuple indexing — the round loop's hot path
        tags_flat = tags.reshape(-1)
        dirty_flat = self.dirty.reshape(-1)
        ages_flat = ages.reshape(-1)
        ways = self.ways
        base = self._clock
        for r in range(rounds):
            ids = op_ids[bounds[r]:bounds[r + 1]]
            s = set_idx[ids]
            ln = lines[ids]
            t = tags[s]                       # (k, ways) gathers
            match = t == ln[:, None]
            found = match.any(axis=1)
            # Hit way where found; else the empty (age EMPTY) or LRU way.
            way = np.where(found, match.argmax(axis=1), ages[s].argmin(axis=1))
            flat = s * ways + way
            old_tag = tags_flat[flat]
            old_dirty = dirty_flat[flat]
            evicted = ~found & (old_tag != EMPTY)
            present[ids] = found
            victim_line[ids] = np.where(evicted, old_tag, EMPTY)
            victim_dirty[ids] = old_dirty & evicted
            fl = flags[ids]
            tags_flat[flat] = ln
            dirty_flat[flat] = np.where(found, old_dirty | fl, fl)
            ages_flat[flat] = base + ids

        self._clock = base + n
        if is_access is None:
            found_accesses = int(present.sum())
            total_accesses = n
        else:
            found_accesses = int(present[is_access].sum())
            total_accesses = int(is_access.sum())
        self.hits += found_accesses
        self.misses += total_accesses - found_accesses
        return present, victim_line, victim_dirty


@dataclass
class FilteredTrace:
    """Per-access outcome of the batched private L1+L2 filter.

    Arrays are parallel to the concatenated access stream (all cores,
    core-major order).  ``wb_insert_*`` is the dirty L2 victim displaced
    by the L1-victim install, ``wb_access_*`` the one displaced by the
    demand fill — the two possible L2 writebacks of one access, in
    order.
    """

    l1_hit: np.ndarray          # (n,) bool
    needs_llc: np.ndarray       # (n,) bool — missed both private levels
    wb_insert_addr: np.ndarray  # (n,) int64
    wb_insert_valid: np.ndarray  # (n,) bool
    wb_access_addr: np.ndarray  # (n,) int64
    wb_access_valid: np.ndarray  # (n,) bool


class BatchedPrivateFilter:
    """All cores' private L1+L2 stacks, replayed as two matrix caches.

    Each core's stack works as follows.  An access goes to L1; on an
    L1 miss, the L1 victim — clean or dirty — is installed in L2 with
    its dirty flag (an exclusive-style victim fill), then the demand
    access goes to L2.  A dirty L2 victim of either step is handed to
    the LLC as a writeback; a clean one is dropped.  Per-core state is
    disjoint, so core ``c``'s sets occupy rows
    ``[c * num_sets, (c + 1) * num_sets)`` of a single matrix and every
    core is filtered in the same batched pass.
    """

    def __init__(self, config: SystemConfig, num_cores: int) -> None:
        self.config = config
        self.num_cores = num_cores
        self._l1_sets = config.l1.num_sets
        self._l2_sets = config.l2.num_sets
        self._l1_shift = config.l1.line_bytes.bit_length() - 1
        self._l2_shift = config.l2.line_bytes.bit_length() - 1
        self.l1 = BatchedLRUMatrix(self._l1_sets * num_cores, config.l1.ways)
        self.l2 = BatchedLRUMatrix(self._l2_sets * num_cores, config.l2.ways)

    def filter(
        self, core_ids: np.ndarray, addrs: np.ndarray, writes: np.ndarray
    ) -> FilteredTrace:
        """Filter the concatenated access stream of all cores.

        ``core_ids``/``addrs``/``writes`` are parallel arrays in
        core-major order (each core's accesses contiguous and in trace
        order — the order :meth:`GeneratedTrace.concatenated` emits).
        Only per-core relative order matters: private-cache state never
        crosses cores, so the batched rounds interleave freely.
        """
        n = int(addrs.size)
        # --- L1: every access ------------------------------------------
        line1 = addrs >> self._l1_shift
        set1 = line1 % self._l1_sets + core_ids * self._l1_sets
        hit1, v1_line, v1_dirty = self.l1.replay(set1, line1, writes)

        # --- L2 op stream: for each L1 miss, install the L1 victim
        # (clean or dirty), then the demand access ----------------------
        miss_ids = np.flatnonzero(~hit1)
        k = int(miss_ids.size)
        op_addr = np.empty(2 * k, dtype=np.int64)
        op_addr[0::2] = v1_line[miss_ids] << self._l1_shift
        op_addr[1::2] = addrs[miss_ids]
        op_flag = np.zeros(2 * k, dtype=bool)
        op_flag[0::2] = v1_dirty[miss_ids]
        op_is_access = np.zeros(2 * k, dtype=bool)
        op_is_access[1::2] = True
        op_access_id = np.repeat(miss_ids, 2)
        op_core = np.repeat(core_ids[miss_ids], 2)
        valid = np.ones(2 * k, dtype=bool)
        valid[0::2] = v1_line[miss_ids] != EMPTY   # not every miss evicts
        op_addr, op_flag, op_is_access = (
            op_addr[valid], op_flag[valid], op_is_access[valid]
        )
        op_access_id, op_core = op_access_id[valid], op_core[valid]

        line2 = op_addr >> self._l2_shift
        set2 = line2 % self._l2_sets + op_core * self._l2_sets
        hit2, v2_line, v2_dirty = self.l2.replay(
            set2, line2, op_flag, is_access=op_is_access
        )

        # --- scatter L2 outcomes back to their accesses ----------------
        needs_llc = np.zeros(n, dtype=bool)
        acc = op_is_access
        needs_llc[op_access_id[acc]] = ~hit2[acc]

        v2_addr = v2_line << self._l2_shift
        wb_valid = (v2_line != EMPTY) & v2_dirty
        wb_insert_addr = np.zeros(n, dtype=np.int64)
        wb_insert_valid = np.zeros(n, dtype=bool)
        wb_access_addr = np.zeros(n, dtype=np.int64)
        wb_access_valid = np.zeros(n, dtype=bool)
        ins = ~acc
        wb_insert_addr[op_access_id[ins]] = v2_addr[ins]
        wb_insert_valid[op_access_id[ins]] = wb_valid[ins]
        wb_access_addr[op_access_id[acc]] = v2_addr[acc]
        wb_access_valid[op_access_id[acc]] = wb_valid[acc]

        return FilteredTrace(
            l1_hit=hit1,
            needs_llc=needs_llc,
            wb_insert_addr=wb_insert_addr,
            wb_insert_valid=wb_insert_valid,
            wb_access_addr=wb_access_addr,
            wb_access_valid=wb_access_valid,
        )
