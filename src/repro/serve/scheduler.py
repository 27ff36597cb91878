"""Cross-client unit scheduling for the evaluation service.

The daemon funnels every client's sweep job units through one
:class:`UnitScheduler`: a shared ``ProcessPoolExecutor`` fronted by a
priority + fair-share queue and an in-flight table keyed by the units'
content-hash cache keys.  Each submission (one ``repro submit``) gets
a :class:`JobHandle` — a :class:`~repro.harness.sweep.JobExecutor`
that ``run_sweep`` drives exactly like its private pool, except that a
unit already queued, running, or recently finished for *another*
client is **joined** rather than relaunched: both clients wait on the
same future, the unit executes at most once, and only the launching
client stores the result to the shared cache.

Queuing is fair-share across handles: a handle's *n*-th unit ranks by
``(-priority, n, arrival)``, so a late submission's early units
interleave ahead of an earlier submission's deep backlog instead of
queuing behind the whole burst.  The heap only gates dispatch — worker
slots are leased one unit at a time, so the pool's own FIFO never
reorders across priorities.

Cancellation is cooperative and drain-based: cancelling a handle
detaches it from every unit it references; units nobody else wants are
cancelled while still queued (waiters get ``CancelledError``) and left
to drain if already running (the result is discarded, the worker is
never killed mid-unit).
"""

from __future__ import annotations

import heapq
import itertools
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import AbstractContextManager, contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

from ..harness.cache import DiskUsage, GCReport, ResultCache, VerifyReport
from ..harness.sweep import JobExecutor

__all__ = [
    "JobHandle",
    "LockedResultCache",
    "ServeStats",
    "SubmissionCancelled",
    "UnitScheduler",
]


class SubmissionCancelled(RuntimeError):
    """Raised inside a sweep thread whose submission was cancelled."""


class LockedResultCache(ResultCache):
    """Thread-safe facade over a :class:`ResultCache` shared by sessions.

    The daemon hands one instance to every concurrent sweep thread;
    an ``RLock`` serializes cache operations so the shared
    :class:`~repro.harness.cache.CacheStats` counters, which one-shot
    runs update from a single thread, stay exact.  ``root``/``stats``
    mirror the inner cache so ``isinstance`` checks, trace-store
    derivation and traffic accounting all behave like the cache they
    wrap.
    """

    def __init__(self, inner: ResultCache) -> None:
        self._inner = inner
        self._lock = threading.RLock()
        self.root = inner.root
        self.stats = inner.stats

    def get(self, key: str, default: Any = None) -> Any:
        with self._lock:
            return self._inner.get(key, default)

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._inner.put(key, value)

    def get_many(self, keys: Any) -> dict[str, Any]:
        with self._lock:
            return self._inner.get_many(keys)

    def put_many(self, items: Any) -> None:
        with self._lock:
            self._inner.put_many(items)

    def keys(self) -> list[str]:
        with self._lock:
            return self._inner.keys()

    def gc(self, **kwargs: Any) -> GCReport:
        with self._lock:
            return self._inner.gc(**kwargs)

    def verify(self) -> VerifyReport:
        with self._lock:
            return self._inner.verify()

    def disk_usage(self) -> DiskUsage:
        with self._lock:
            return self._inner.disk_usage()

    def __len__(self) -> int:
        with self._lock:
            return len(self._inner)


@dataclass
class ServeStats:
    """Scheduler-lifetime rollup across every session and submission."""

    #: units this scheduler actually dispatched to the pool's workers
    units_launched: int = 0
    #: submissions that joined a unit already in flight for another
    #: handle — the cross-client dedup counter
    units_deduped: int = 0
    units_completed: int = 0
    units_failed: int = 0
    units_cancelled: int = 0

    def as_mapping(self) -> dict[str, int]:
        return asdict(self)


class _Unit:
    """One in-flight job unit, shared by every handle that wants it."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"

    __slots__ = ("key", "fn", "args", "future", "handles", "state")

    def __init__(self, key: str, fn: Callable[..., Any], args: tuple) -> None:
        self.key = key
        self.fn = fn
        self.args = args
        #: scheduler-level future every submitter waits on; resolved by
        #: :meth:`UnitScheduler._finish`, never handed to the pool
        self.future: Future = Future()
        #: handles that submitted or joined this unit and have not yet
        #: released/cancelled — keeps a finished unit joinable until
        #: the launching sweep has stored it to the shared cache
        self.handles: set["JobHandle"] = set()
        self.state = _Unit.QUEUED


class JobHandle(JobExecutor):
    """One submission's executor view onto the shared scheduler.

    ``run_sweep(..., executor=handle)`` drives this exactly like an
    in-process pool; ``launched=False`` returns mark units joined from
    another handle's in-flight execution (the sweep then skips the
    cache store — the launching run owns it).  The owning session
    calls :meth:`cancel` (client request / disconnect) or
    :meth:`release` (sweep finished) to detach from shared units.
    """

    def __init__(
        self, scheduler: "UnitScheduler", priority: int = 0, label: str = ""
    ) -> None:
        self._scheduler = scheduler
        self.priority = priority
        self.label = label
        self.units: set[_Unit] = set()
        self.cancelled = False
        self._vtime = itertools.count()

    def submit_unit(
        self, key: str, fn: Callable[..., Any], /, *args: Any
    ) -> tuple[Future, bool]:
        return self._scheduler._submit(self, key, fn, args)

    def cancel(self) -> None:
        """Detach from every unit; abort the owning sweep cooperatively."""
        self.cancelled = True
        self._scheduler._release(self)

    def release(self) -> None:
        """Drop unit references once the owning sweep has finished."""
        self._scheduler._release(self)

    def claim(self, key: str) -> AbstractContextManager[None]:
        """Hold ``key`` across every handle of the scheduler."""
        return self._scheduler.claim(key)

    def shutdown(self, cancel_futures: bool = False) -> None:
        """No-op: the scheduler owns the pool, not the handle."""


class UnitScheduler:
    """The daemon's shared executor: dedup, priorities, fair share."""

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool = ProcessPoolExecutor(max_workers=workers)
        # Start the workers before the daemon accepts a connection.  The
        # pool forks them at its first submission, and a forked worker
        # keeps a copy of every socket open at that moment: a client that
        # connected earlier and then closes never reaches EOF, so its
        # session never ends.
        self._pool.submit(int).result()
        self._slots = workers
        #: re-entrant: ``add_done_callback`` may run ``_finish`` in the
        #: submitting thread when a pool future is already resolved
        self._lock = threading.RLock()
        self._heap: list[tuple[int, int, int, _Unit]] = []
        self._units: dict[str, _Unit] = {}
        self._seq = itertools.count()
        self._closed = False
        self.stats = ServeStats()
        #: key -> (lock, sessions holding or waiting on it) for the
        #: parent-side work of :meth:`claim`
        self._claims: dict[str, tuple[threading.Lock, int]] = {}

    # ------------------------------------------------------------------
    # handle-facing API (worker threads)
    # ------------------------------------------------------------------
    def handle(self, priority: int = 0, label: str = "") -> JobHandle:
        """A fresh per-submission executor bound to this scheduler."""
        return JobHandle(self, priority=priority, label=label)

    @contextmanager
    def claim(self, key: str) -> Iterator[None]:
        """Run sessions' parent-side work for ``key`` one at a time.

        Two sessions that miss the same point both need its timing front
        end; under the claim the second waits for the first to commit it
        and then maps it, rather than filtering the trace again while
        the first session's timing units run ahead of it.
        """
        with self._lock:
            lock, users = self._claims.get(key, (threading.Lock(), 0))
            self._claims[key] = (lock, users + 1)
        try:
            with lock:
                yield
        finally:
            with self._lock:
                lock, users = self._claims[key]
                if users == 1:
                    del self._claims[key]
                else:
                    self._claims[key] = (lock, users - 1)

    def _submit(
        self, handle: JobHandle, key: str, fn: Callable[..., Any], args: tuple
    ) -> tuple[Future, bool]:
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is shut down")
            if handle.cancelled:
                raise SubmissionCancelled(handle.label or "submission cancelled")
            unit = self._units.get(key)
            if unit is not None:
                unit.handles.add(handle)
                handle.units.add(unit)
                self.stats.units_deduped += 1
                return unit.future, False
            unit = _Unit(key, fn, args)
            unit.handles.add(handle)
            handle.units.add(unit)
            self._units[key] = unit
            heapq.heappush(
                self._heap,
                (-handle.priority, next(handle._vtime), next(self._seq), unit),
            )
            self.stats.units_launched += 1
            self._pump()
            return unit.future, True

    def _release(self, handle: JobHandle) -> None:
        to_cancel: list[_Unit] = []
        with self._lock:
            for unit in handle.units:
                unit.handles.discard(handle)
                if unit.handles:
                    continue
                if unit.state == _Unit.QUEUED:
                    # nobody wants it and it never started: cancel it
                    # outright (lazy heap removal — _pump skips it)
                    unit.state = _Unit.DONE
                    self._units.pop(unit.key, None)
                    to_cancel.append(unit)
                elif unit.state == _Unit.DONE:
                    self._units.pop(unit.key, None)
                # RUNNING units drain; _finish drops the orphan
            handle.units.clear()
        for unit in to_cancel:
            if unit.future.cancel():
                with self._lock:
                    self.stats.units_cancelled += 1

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Lease free worker slots to the best-ranked queued units.

        Caller holds ``_lock``.  Dispatch order is decided *here*, one
        slot at a time — at most ``workers`` units are ever inside the
        pool, so its internal FIFO cannot invert our ranking.
        """
        while self._slots > 0 and self._heap:
            *_, unit = heapq.heappop(self._heap)
            if unit.state != _Unit.QUEUED or unit.future.cancelled():
                continue
            unit.state = _Unit.RUNNING
            self._slots -= 1
            pool_future = self._pool.submit(unit.fn, *unit.args)
            pool_future.add_done_callback(
                lambda f, u=unit: self._finish(u, f)
            )

    def _finish(self, unit: _Unit, pool_future: Future) -> None:
        with self._lock:
            self._slots += 1
            unit.state = _Unit.DONE
            if not unit.handles:
                # every submitter released/cancelled while it ran:
                # the drained result has no audience, drop the unit
                self._units.pop(unit.key, None)
            self._pump()
            exc = pool_future.exception()
            if unit.future.cancelled():
                return
            if exc is not None:
                self.stats.units_failed += 1
                unit.future.set_exception(exc)
            else:
                self.stats.units_completed += 1
                unit.future.set_result(pool_future.result())

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Queue/in-flight counts plus the lifetime stats rollup."""
        with self._lock:
            states = [u.state for u in self._units.values()]
            return {
                "workers": self.workers,
                "queue_depth": states.count(_Unit.QUEUED),
                "running": states.count(_Unit.RUNNING),
                "inflight": len(states),
                "stats": self.stats.as_mapping(),
            }

    def shutdown(self, cancel_futures: bool = True) -> None:
        """Refuse new work, cancel the queue, and reap the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            queued = [u for *_, u in self._heap if u.state == _Unit.QUEUED]
            for unit in queued:
                unit.state = _Unit.DONE
                self._units.pop(unit.key, None)
            self._heap.clear()
        for unit in queued:
            if unit.future.cancel():
                with self._lock:
                    self.stats.units_cancelled += 1
        self._pool.shutdown(wait=True, cancel_futures=cancel_futures)
