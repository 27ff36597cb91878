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

Per-op semantics are those of a true-LRU set-associative cache: an
*access* op hits (refreshing recency and ORing the write flag into the
dirty bit) or misses (allocating, evicting the LRU line when the set is
full) and counts toward ``hits``/``misses``; an *insert* op is a victim
fill from an inner level (refreshes recency when present, never counts
hits/misses).  ``tests/test_array_lru.py`` pins both op by op against
the test oracle's dict-based ``SetAssocCache``.

Ops on *different* sets are independent, so a replay resolves its
batch set by set, in three passes.  Each is exact: per-op outcomes,
counters and the final matrices, way positions included, equal an
op-by-op replay's.

1. **Fold.**  An op whose previous op on the same (set, line) lies at
   most ``ways - 1`` ops of that set back is a hit: fewer than
   ``ways`` distinct lines were touched in between, so LRU still holds
   the line (the LRU stack property; Mattson et al., IBM Systems
   Journal 1970).  The key is the pair, not the line: the private
   filter maps one line number of different cores to different rows.
   A maximal run of such links is a *chain*, folded into its first op,
   the head: the head takes the position of the chain's last op as its
   age and the OR of the chain's flags as its flag, and every other
   member reports a hit and no victim.  A line whose chain spans
   another line's miss sits at LRU depth ``ways - 2`` or less at that
   miss, so it is never the victim: setting its age early only moves it
   further from the ``argmin``, and its final age and dirty bit are the
   op-by-op ones.
2. **Streaming prefix.**  A set whose ways are all empty at batch start
   (every set of a freshly built matrix) takes the longest prefix of
   its heads in which (a) each head's line differs from the lines of
   the set's previous ``ways`` heads and (b) the heads' ages increase.
   Every op in it misses.  Head ``r`` takes way ``r % ways`` (empty
   ways fill lowest index first, then cycle) and, from ``r = ways`` on,
   evicts head ``r - ways``, whose folded flag is the victim's dirty
   bit: under (b) that head is the ``argmin``, and its chain cannot
   span the miss, or all ``ways`` resident lines would sit at depth
   ``ways - 2`` or less.  The set's last ``ways`` prefix heads are
   scattered into the matrices once.
3. **Rounds** for the rest: the heads after their set's prefix, and
   every head of a set that holds lines at batch start (a later batch).
   Round ``r`` holds the ``r``-th remaining head of every set; sets
   within a round are distinct, so each round is one fancy-indexed
   matrix update (gather the round's set rows, match tags, pick
   hit/empty/LRU ways, scatter the new tags/dirty/ages back), starting
   from the state the prefixes left and using the folded ages and
   flags.

On streaming traffic every op is settled by the first two passes, save
a handful of rounds.  The passes sort on the narrowest key that holds
the set index or the line (16 bits makes a stable sort a radix sort),
keep positions in int32, and free each batch-sized temporary before the
next is built, so they use no more transient memory than the rounds
alone did.

:class:`BatchedPrivateFilter` stacks two matrices into the private
L1+L2 hierarchy of *all* cores at once (core ``c``'s set ``s`` maps to
matrix row ``c * num_sets + s``), reproducing the oracle's per-access
``PrivateCaches`` — including the clean-victim install — for an entire
trace in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..common.config import SystemConfig

#: sentinel tag for an unallocated way; its age (-1) sorts below every
#: real op position, so empty ways are always allocated before any
#: occupied way is evicted — exactly the dict model's fill-then-evict.
EMPTY = -1


def first_of_groups(values: np.ndarray) -> np.ndarray:
    """Bool mask marking the first element of each run of equal values.

    Applied to a sorted set-index array it delimits the per-set op
    groups that the streaming prefix and the rounds walk.
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
        op found its line resident, and the evicted line per op and its
        dirty bit (:data:`EMPTY` and False where nothing was evicted).

        The batch goes through the module docstring's three passes:
        guaranteed hits fold into the head of their chain, each set
        that starts the batch empty resolves its streaming prefix at
        once, and rounds replay the heads left — those after a set's
        prefix, and all heads of a set that starts the batch holding
        lines.
        """
        n = int(lines.size)
        present = np.zeros(n, dtype=bool)
        victim_line = np.full(n, EMPTY, dtype=np.int64)
        victim_dirty = np.zeros(n, dtype=bool)
        if n == 0:
            return present, victim_line, victim_dirty

        heads = _fold(set_idx, lines, flags, self.num_sets, self.ways, present)
        self._rounds(
            heads,
            self._stream_prefix(heads, victim_line, victim_dirty),
            present,
            victim_line,
            victim_dirty,
        )

        self._clock += n
        if is_access is None:
            found_accesses = int(present.sum())
            total_accesses = n
        else:
            found_accesses = int(present[is_access].sum())
            total_accesses = int(is_access.sum())
        self.hits += found_accesses
        self.misses += total_accesses - found_accesses
        return present, victim_line, victim_dirty

    def _stream_prefix(
        self, heads: _Heads, victim_line: np.ndarray, victim_dirty: np.ndarray
    ) -> np.ndarray:
        """Resolve every empty set's streaming prefix (pass 2).

        Writes the prefix heads' victims and the state they leave;
        returns the indices into ``heads`` of the rest, set-major.
        """
        ways = self.ways
        rank = _rank_in_runs(heads.set_of)
        # A stop ends its set's prefix: a line still resident, a fall in
        # age, or a set holding lines at batch start.  (near_reuse is
        # extended in place: nothing reads it after this pass.)
        stop = heads.near_reuse
        stop[1:] |= (rank[1:] > 0) & (heads.age[1:] < heads.age[:-1])
        stop |= (self.tags != EMPTY).any(axis=1)[heads.set_of]
        index = np.arange(rank.size, dtype=rank.dtype)
        last_stop = np.where(stop, index, -1)
        del stop
        np.maximum.accumulate(last_stop, out=last_stop)
        index -= rank  # the set's first head
        stopped = last_stop >= index
        del index, last_stop

        # Prefix head r >= ways evicts prefix head r - ways of its set.
        evicting = ~stopped
        evicting[rank < ways] = False
        source = np.zeros_like(evicting)
        source[:-ways] = evicting[ways:]
        ops = heads.op[evicting]
        victim_line[ops] = heads.line[source]
        victim_dirty[ops] = heads.flag[source]
        del ops, evicting
        source |= stopped
        held = np.flatnonzero(~source)  # prefix heads still resident
        del source
        flat = heads.set_of[held].astype(np.int64) * ways + rank[held] % ways
        self.tags.reshape(-1)[flat] = heads.line[held]
        self.dirty.reshape(-1)[flat] = heads.flag[held]
        self.ages.reshape(-1)[flat] = np.int64(self._clock) + heads.age[held]
        return np.flatnonzero(stopped).astype(heads.op.dtype)

    def _rounds(
        self,
        heads: _Heads,
        rest: np.ndarray,
        present: np.ndarray,
        victim_line: np.ndarray,
        victim_dirty: np.ndarray,
    ) -> None:
        """Replay ``heads[rest]`` (set-major) in rounds (pass 3)."""
        if rest.size == 0:
            return
        # Round r holds the r-th remaining head of every set.
        rank = _rank_in_runs(heads.set_of[rest])
        by_round = np.argsort(_narrow(rank, int(rank.max()) + 1), kind="stable")
        order = rest[by_round]
        del rest
        rank = rank[by_round]
        del by_round
        rounds = int(rank[-1]) + 1
        bounds = np.searchsorted(rank, np.arange(rounds + 1, dtype=rank.dtype))
        del rank

        tags, ages = self.tags, self.ages
        # flat views: gather/scatter through one computed index instead
        # of (row, way) tuple indexing — the round loop's hot path
        tags_flat = tags.reshape(-1)
        dirty_flat = self.dirty.reshape(-1)
        ages_flat = ages.reshape(-1)
        ways = self.ways
        base = np.int64(self._clock)
        for r in range(rounds):
            k = order[bounds[r]:bounds[r + 1]]
            ids = heads.op[k]
            s = heads.set_of[k].astype(np.int64)
            ln = heads.line[k]
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
            fl = heads.flag[k]
            tags_flat[flat] = ln
            dirty_flat[flat] = np.where(found, old_dirty | fl, fl)
            ages_flat[flat] = base + heads.age[k]


@dataclass
class _Heads:
    """The chain heads the fold keeps, in set-major order."""

    op: np.ndarray          # the head's batch position
    set_of: np.ndarray      # its set, as a narrow key
    line: np.ndarray
    flag: np.ndarray        # OR of the chain's flags
    age: np.ndarray         # batch position of the chain's last op
    near_reuse: np.ndarray  # line held by one of the set's previous ``ways`` heads


def _index_dtype(n: int) -> type[np.signedinteger[Any]]:
    """int32 for indices into ``n`` elements when it holds them."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _narrow(values: np.ndarray, span: int) -> np.ndarray:
    """``values``, all in ``[0, span)``, in the narrowest unsigned dtype
    that holds them: on a 16-bit key ``argsort(kind="stable")`` is a
    radix sort."""
    for dtype in (np.uint16, np.uint32):
        if span <= 1 << np.iinfo(dtype).bits:
            return values.astype(dtype)
    return values.astype(np.int64)


def _rank_in_runs(values: np.ndarray) -> np.ndarray:
    """Each element's index within its run of equal ``values``."""
    index = _index_dtype(values.size)
    first = first_of_groups(values)
    group = np.cumsum(first, dtype=index)
    group -= 1
    rank = np.arange(values.size, dtype=index)
    rank -= np.flatnonzero(first).astype(index)[group]
    return rank


def _fold(
    set_idx: np.ndarray,
    lines: np.ndarray,
    flags: np.ndarray,
    num_sets: int,
    ways: int,
    present: np.ndarray,
) -> _Heads:
    """Fold every guaranteed hit into the head of its chain (pass 1).

    Marks every linked op ``present``; returns the chain heads.
    """
    n = int(lines.size)
    index = _index_dtype(n)
    # Set-major order: op positions sorted by (set, position).
    set_key = _narrow(set_idx, num_sets)
    order = np.argsort(set_key, kind="stable").astype(index)
    set_of = set_key[order]
    del set_key
    # Pair-major order: set-major indices sorted by (line, set,
    # position), so the ops on one (set, line) form one run.
    line_of = lines[order]
    line_of -= line_of.min()
    line_key = _narrow(line_of, int(line_of.max()) + 1)
    del line_of
    pair = np.argsort(line_key, kind="stable").astype(index)
    same = np.zeros(n, dtype=bool)  # op has the previous op's pair
    key = line_key[pair]
    del line_key
    np.equal(key[1:], key[:-1], out=same[1:])
    key = set_of[pair]
    same[1:] &= key[1:] == key[:-1]
    del key
    # A link spans a set-major distance of at most ``ways``: at most
    # ``ways - 1`` ops of the set lie between the two ops.
    link = np.zeros(n, dtype=bool)
    np.less_equal(np.diff(pair), ways, out=link[1:])
    link &= same
    if not link.any():
        # Nothing folds: every op heads its own chain, and no line is
        # back within ``ways`` ops (heads) of its set.
        return _Heads(
            op=order,
            set_of=set_of,
            line=lines[order],
            flag=flags[order],
            age=order,
            near_reuse=np.zeros(n, dtype=bool),
        )
    present[order[pair[link]]] = True
    # Chain c is pair-major [bounds[c], bounds[c + 1]).
    m = n - int(np.count_nonzero(link))
    bounds = np.empty(m + 1, dtype=index)
    bounds[:m] = np.flatnonzero(~link)
    bounds[m] = n
    del link
    flagged = np.zeros(n + 1, dtype=index)  # flags set before each op
    np.cumsum(flags[order][pair], dtype=index, out=flagged[1:])
    chain_flag = flagged[bounds[1:]] > flagged[bounds[:-1]]
    del flagged
    head_at = pair[bounds[:-1]]
    last_at = pair[bounds[1:] - 1]
    repeat = same[bounds[:-1]]  # the chain's pair had an earlier chain
    del pair, same, bounds

    is_head = np.zeros(n, dtype=bool)
    is_head[head_at] = True
    slot = np.cumsum(is_head, dtype=index)[head_at]  # chain -> head index + 1
    slot -= 1
    del head_at
    age = np.empty(m, dtype=index)
    age[slot] = order[last_at]
    del last_at
    flag = np.empty(m, dtype=bool)
    flag[slot] = chain_flag
    del chain_flag
    # A chain whose pair's previous chain is at most ``ways`` heads of
    # the set back finds its line still resident.
    later = np.flatnonzero(repeat[1:]) + 1
    del repeat
    later = later[slot[later] - slot[later - 1] <= ways]
    near_reuse = np.zeros(m, dtype=bool)
    near_reuse[slot[later]] = True
    del later, slot
    op = order[is_head]
    return _Heads(
        op=op,
        set_of=set_of[is_head],
        line=lines[op],
        flag=flag,
        age=age,
        near_reuse=near_reuse,
    )


@dataclass
class FilteredTrace:
    """Outcome of the batched private L1+L2 filter.

    ``l1_hit`` and ``needs_llc`` are parallel to the concatenated access
    stream (all cores, core-major order).  The event columns list the
    LLC-bound events in the same core-major order.  An access issues its
    demand read if it missed both levels, then the writeback of the
    dirty L2 victim the L1-victim install displaced, then that of the
    demand fill's dirty L2 victim: the order of the oracle's per-access
    loop.
    """

    l1_hit: np.ndarray         # (n,) bool
    needs_llc: np.ndarray      # (n,) bool — missed both private levels
    event_addr: np.ndarray     # (m,) int64
    event_is_read: np.ndarray  # (m,) bool — demand read, else writeback
    event_access: np.ndarray   # (m,) int64 — the access that issued it


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
        del line1, set1

        # --- L2 op stream: for each L1 miss, the install of its L1
        # victim (clean or dirty), if it evicted one, then the demand
        # access.  Miss i's demand op sits at pos[i], its install at
        # pos[i] - 1.
        miss = np.flatnonzero(~hit1)
        victim = v1_line[miss]
        del v1_line
        has_victim = victim != EMPTY
        pos = np.add(has_victim, 1, dtype=np.int64)
        np.cumsum(pos, out=pos)
        pos -= 1
        install = pos[has_victim]
        install -= 1
        ops = int(pos[-1]) + 1 if miss.size else 0
        line2 = np.empty(ops, dtype=np.int64)
        line2[pos] = addrs[miss] >> self._l2_shift
        line2[install] = (victim[has_victim] << self._l1_shift) >> self._l2_shift
        del victim
        set2 = np.empty(ops, dtype=np.int64)
        row = core_ids[miss] * self._l2_sets
        set2[pos] = row
        set2[install] = row[has_victim]
        del row
        set2 += line2 % self._l2_sets
        flag2 = np.zeros(ops, dtype=bool)
        flag2[install] = v1_dirty[miss[has_victim]]
        del v1_dirty
        is_access = np.ones(ops, dtype=bool)
        is_access[install] = False
        del install
        hit2, v2_line, v2_dirty = self.l2.replay(
            set2, line2, flag2, is_access=is_access
        )
        del line2, set2, flag2, is_access

        # --- the LLC events, read back through the same positions ------
        needs = ~hit2[pos]
        del hit2
        needs_llc = np.zeros(n, dtype=bool)
        needs_llc[miss] = needs
        wb_access = v2_dirty[pos]
        # Without an install, pos - 1 is another op (or wraps to the
        # last one); has_victim masks it out.
        wb_install = v2_dirty[pos - 1]
        wb_install &= has_victim
        del v2_dirty
        count = np.add(needs, wb_install, dtype=np.int64)
        count += wb_access
        end = np.cumsum(count)
        event_access = np.repeat(miss, count)
        m = int(event_access.size)
        first = end - count
        del count
        event_addr = np.empty(m, dtype=np.int64)
        event_is_read = np.zeros(m, dtype=bool)
        at = first[needs]
        event_addr[at] = addrs[miss[needs]]
        event_is_read[at] = True
        at = first[wb_install] + needs[wb_install]
        event_addr[at] = v2_line[pos[wb_install] - 1] << self._l2_shift
        at = end[wb_access] - 1
        event_addr[at] = v2_line[pos[wb_access]] << self._l2_shift
        return FilteredTrace(
            l1_hit=hit1,
            needs_llc=needs_llc,
            event_addr=event_addr,
            event_is_read=event_is_read,
            event_access=event_access,
        )
