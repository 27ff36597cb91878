"""Batched set-associative LRU over ``(sets, ways)`` tag/dirty/age matrices.

This module is the vectorized half of the timing simulator's fast path.
:class:`BatchedLRUMatrix` replays a whole *batch* of cache operations —
up to the complete per-core access stream of a trace — through a
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

A generated trace repeats each core's addresses and write flags every
iteration, and the filter replays such a stream only until the caches
settle.  What an LRU op does — hit or miss, which line it evicts and
whether that line is dirty — depends only on its row's *LRU state*:
the resident lines in recency order, their dirty bits and the number
of empty ways.  Way positions do not matter (a hit is a hit in any
way, and a miss takes an empty way, all alike, or else the least
recent line), and neither do the ages themselves, only their order.
Suppose one period of ops leaves every row of both levels in the LRU
state the period before it left.  The next period then starts from the
LRU state the last one started from and replays the same L1 ops, so it
repeats every L1 outcome; those outcomes make the same L2 op stream,
which repeats its outcomes from L2's repeated state; and both levels
end as they began.  By induction every later period repeats the last
one, so the filter copies its outcomes instead of replaying them.  The
matrices it leaves are *LRU-equivalent* to an op-by-op replay's: every
row holds the same lines with the same dirty bits in the same recency
order, and every age is below the clock; only way positions and the
ages' values, which no outcome reads, may differ.

The state repeats early.  By the stack property, whether a line is
evicted between two touches within one period depends only on the ops
between them, not on the state the period began with.  So from an
empty start each L1 row ends every period with the same lines in the
same order, each with the dirty bits its own ops in that period set:
L1 repeats its state from the first period on, and its outcomes from
the second.  L2's ops then repeat from the second period on, and by the
same argument L2's state after the third period equals its state after
the second: on a fresh filter, the fast path replays at most three
periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from ..common.config import SystemConfig

#: sentinel tag for an unallocated way; its age (-1) sorts below every
#: real op position, so empty ways are always allocated before any
#: occupied way is evicted — exactly the dict model's fill-then-evict.
EMPTY = -1

#: :meth:`BatchedPrivateFilter.filter`'s steady-state fast path: the
#: fewest repeats of a stream's period for which it pays (with 5 the
#: one-batch replay was faster on four of five workload traces, with 6
#: slower on four), and the periods it replays one at a time before it
#: replays the rest in one batch (every trace measured repeated its
#: state by the third, as the module docstring's argument says it must;
#: the fourth is a spare)
MIN_REPEATS = 6
SETTLE_PERIODS = 4

#: the copies of a repeating LLC stream an LLC replays before it gives
#: up on a steady state and replays the rest whole (:class:`StreamRepeat`).
#: On every tiled trace measured (heat at scales 0.12 and 0.2, lattice
#: at 0.2, every registered design) the state after the second copy
#: equalled the state after the first; the other two are spares.
LLC_SETTLE_COPIES = 4


class StreamRepeat(NamedTuple):
    """Where an LLC event stream repeats: its events ``[start, start +
    copies * width)`` are ``copies`` copies of events ``[start, start +
    width)``.  :meth:`repro.system.simulator.TimingSystem.run` derives
    it and the LLC replays tile it (see ``docs/architecture.md``,
    "Repeating traces")."""

    start: int
    width: int
    copies: int


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

    def mark(self) -> _Mark:
        """The counters and the LRU state at this point, for
        :meth:`matches` and :meth:`skip`."""
        # Empty ways (age EMPTY) sort first and are alike, and occupied
        # ways have distinct ages, so this is each row's LRU state.
        order = np.argsort(self.ages, axis=1, kind="stable")
        return _Mark(
            clock=self._clock,
            hits=self.hits,
            misses=self.misses,
            tags=np.take_along_axis(self.tags, order, axis=1),
            dirty=np.take_along_axis(self.dirty, order, axis=1),
        )

    def matches(self, mark: _Mark) -> bool:
        """Whether every row holds the (tag, dirty) pairs it held at
        ``mark``, in the same recency order, with as many empty ways:
        equal state up to way positions, which no LRU outcome reads."""
        now = self.mark()
        return np.array_equal(now.tags, mark.tags) and np.array_equal(
            now.dirty, mark.dirty
        )

    def skip(self, mark: _Mark, times: int) -> None:
        """Count ``times`` more replays of the ops since ``mark``.

        For a state that :meth:`matches` ``mark``: those replays would
        repeat every outcome and leave the state as it is, so only the
        counters and the clock move.  Ages stay below the clock and in
        the same order within each row.
        """
        self.hits += times * (self.hits - mark.hits)
        self.misses += times * (self.misses - mark.misses)
        self._clock += times * (self._clock - mark.clock)

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


@dataclass(frozen=True)
class _Mark:
    """:meth:`BatchedLRUMatrix.mark`: counters, and each row's tags and
    dirty bits in recency order (empty ways first)."""

    clock: int
    hits: int
    misses: int
    tags: np.ndarray
    dirty: np.ndarray


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


def _period_widths(
    bounds: np.ndarray, addrs: np.ndarray, writes: np.ndarray, repeats: int
) -> np.ndarray | None:
    """Each core's period, if every core's stream is ``repeats`` copies
    of one; ``bounds`` delimits the cores' streams.  None otherwise."""
    lengths = np.diff(bounds)
    if not lengths.any() or (lengths % repeats).any():
        return None
    widths = lengths // repeats
    for s, e, w in zip(bounds[:-1].tolist(), bounds[1:].tolist(), widths.tolist()):
        if not (
            np.array_equal(addrs[s + w:e], addrs[s:e - w])
            and np.array_equal(writes[s + w:e], writes[s:e - w])
        ):
            return None
    return widths


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
        self,
        core_ids: np.ndarray,
        addrs: np.ndarray,
        writes: np.ndarray,
        repeats: int = 1,
    ) -> FilteredTrace:
        """Filter the concatenated access stream of all cores.

        ``core_ids``/``addrs``/``writes`` are parallel arrays in
        core-major order (each core's accesses contiguous and in trace
        order — the order :meth:`GeneratedTrace.concatenated` emits).
        Only per-core relative order matters: private-cache state never
        crosses cores, so the batched rounds interleave freely.

        ``repeats`` is how many times each core's stream repeats one
        pattern: a trace's ``iterations_simulated``.  It is a fact about
        the stream, checked before use: when it is at least
        :data:`MIN_REPEATS` and one shifted comparison shows that every
        core's addresses and write flags repeat with period
        ``length / repeats``, the filter replays one period of every
        core at a time.  Once a period leaves both levels in the LRU
        state the one before it left, every later period repeats its
        outcomes (the module docstring's argument), so the filter
        copies that period's ``l1_hit``, ``needs_llc`` and LLC events
        (each event's access index advanced by its core's period) into
        every remaining period, and advances both levels' hit and miss
        counters and clocks as their replay would.  The matrices then
        hold the state the last replayed period left, LRU-equivalent to
        an op-by-op replay's, so a later call continues exactly.  A
        stream that does not repeat replays in one batch, and one whose
        state has not repeated after :data:`SETTLE_PERIODS` periods
        replays the rest in one batch.  Every path returns the
        one-batch replay's outcome.
        """
        if repeats >= MIN_REPEATS:
            bounds = np.searchsorted(
                core_ids, np.arange(self.num_cores + 1, dtype=np.int64)
            )
            widths = _period_widths(bounds, addrs, writes, repeats)
            if widths is not None:
                return self._fast_forward(
                    core_ids, addrs, writes, bounds, widths, repeats
                )
        return self._replay(core_ids, addrs, writes)

    def _fast_forward(
        self,
        core_ids: np.ndarray,
        addrs: np.ndarray,
        writes: np.ndarray,
        bounds: np.ndarray,
        widths: np.ndarray,
        repeats: int,
    ) -> FilteredTrace:
        """:meth:`filter` on a stream whose core ``c`` repeats a period
        of ``widths[c]`` accesses ``repeats`` times.

        Every replayed part writes its outcome straight into the
        core-major columns; the events, whose count is known only at the
        end, are placed once every part has run.
        """
        n = int(addrs.size)
        starts = bounds[:-1]
        l1_hit = np.empty(n, dtype=bool)
        needs_llc = np.empty(n, dtype=bool)
        # each replayed part's outcome, its events' access indices global
        parts: list[FilteredTrace] = []

        def replay_periods(first: int, count: int) -> None:
            """Replay periods ``[first, first + count)`` of every core."""
            at = np.concatenate([
                np.arange(s + first * w, s + (first + count) * w, dtype=np.int64)
                for s, w in zip(starts.tolist(), widths.tolist())
            ])
            part = self._replay(core_ids[at], addrs[at], writes[at])
            l1_hit[at] = part.l1_hit
            needs_llc[at] = part.needs_llc
            part.event_access = at[part.event_access]
            parts.append(part)

        done = 0
        settled = False
        while not settled and done < min(repeats, SETTLE_PERIODS):
            marks = self.l1.mark(), self.l2.mark()
            replay_periods(done, 1)
            done += 1
            settled = self.l1.matches(marks[0]) and self.l2.matches(marks[1])
        if not settled:
            # No steady state in sight: the rest in one batch, no tiles.
            if done < repeats:
                replay_periods(done, repeats - done)
            done = repeats
        tiles = repeats - done  # periods that repeat the last replayed one

        # Events, core-major: each core's events of every part in turn,
        # then ``tiles`` copies of its events in the last part.
        splits = [np.searchsorted(p.event_access, bounds) for p in parts]
        per_core = [np.diff(split) for split in splits]
        counts = np.sum(per_core, axis=0) + tiles * per_core[-1]
        cursor = np.cumsum(counts) - counts  # each core's next free slot
        m = int(counts.sum())
        event_addr = np.empty(m, dtype=np.int64)
        event_is_read = np.empty(m, dtype=bool)
        event_access = np.empty(m, dtype=np.int64)
        for part, split, count in zip(parts, splits, per_core):
            at = np.repeat(cursor - split[:-1], count)
            at += np.arange(at.size, dtype=np.int64)
            event_addr[at] = part.event_addr
            event_is_read[at] = part.event_is_read
            event_access[at] = part.event_access
            cursor += count

        if tiles:
            self.l1.skip(marks[0], tiles)
            self.l2.skip(marks[1], tiles)
            last, split = parts[-1], splits[-1].tolist()
            advance = np.arange(1, tiles + 1, dtype=np.int64)
            for c, (s, w) in enumerate(zip(starts.tolist(), widths.tolist())):
                # core c's periods [done, repeats) copy its period done - 1
                src = slice(s + (done - 1) * w, s + done * w)
                dst = slice(s + done * w, s + repeats * w)
                l1_hit[dst].reshape(tiles, w)[:] = l1_hit[src]
                needs_llc[dst].reshape(tiles, w)[:] = needs_llc[src]
                src = slice(split[c], split[c + 1])
                e = src.stop - src.start
                dst = slice(int(cursor[c]), int(cursor[c]) + tiles * e)
                event_addr[dst].reshape(tiles, e)[:] = last.event_addr[src]
                event_is_read[dst].reshape(tiles, e)[:] = last.event_is_read[src]
                np.add.outer(
                    advance * w,
                    last.event_access[src],
                    out=event_access[dst].reshape(tiles, e),
                )
        return FilteredTrace(
            l1_hit=l1_hit,
            needs_llc=needs_llc,
            event_addr=event_addr,
            event_is_read=event_is_read,
            event_access=event_access,
        )

    def _replay(
        self, core_ids: np.ndarray, addrs: np.ndarray, writes: np.ndarray
    ) -> FilteredTrace:
        """:meth:`filter`'s stream in one batch through both levels."""
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
