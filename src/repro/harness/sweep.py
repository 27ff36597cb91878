"""Parallel sweep engine for the evaluation harness.

The paper's evaluation (Tables 3-4, Figures 9-15) is a grid of
workloads x designs x error thresholds x seeds.  This module treats
that grid as a first-class object — a :class:`SweepSpec` enumerating
independent, picklable :class:`SweepPoint` jobs — and fans it out over
a ``concurrent.futures.ProcessPoolExecutor`` via :func:`run_sweep`.

Each grid point decomposes into two kinds of *job units*, both pure
functions of their spec (and therefore safe to execute in any process
and to cache on disk):

* :func:`run_functional_job` — one workload's functional round-trip
  under one design (output error, compression ratios, iteration
  counts).  The ``baseline`` reference run is its own job so
  that every design of a point shares one reference result, exactly as
  the serial path shares ``functional[...]``.
* :func:`run_timing_job` — one design's trace replay through the
  timing system, given the layout derived from the functional results
  and the trace's timing front end (the private filter, LLC event order
  and per-access gaps, computed once per trace in the parent and shared
  by every design and scenario subset).

``run_sweep(spec, jobs=1)`` executes the same job units in-process in
deterministic order, so the serial and parallel paths are one code
path and their results are bit-identical.  With a ``cache_dir``, job
results are memoized by a content hash of (spec point, design,
``SystemConfig``, :data:`repro.MODEL_VERSION`) — see
:mod:`repro.harness.cache` — so re-runs and overlapping ablation
sweeps skip already-computed points entirely.
"""

from __future__ import annotations

import abc
import itertools
from concurrent.futures import ProcessPoolExecutor
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import TracebackType
from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from .. import MODEL_VERSION
from ..common.config import SystemConfig
from ..common.types import ErrorThresholds
from ..designs import (
    AVR,
    BASELINE,
    PAPER_DESIGNS,
    DesignSpec,
    get_design,
    layout_source_design,
    resolve_designs,
)
from ..scenario import Scenario
from ..system.factory import build_system
from ..system.frontend import TimingFrontEnd
from ..system.layout import AddressLayout
from ..system.simulator import SimResult
from ..trace.store import FrontEndHandle, TraceStore
from ..workloads import WORKLOADS, make_workload
from ..workloads.base import Workload, WorkloadResult
from .cache import ResultCache, content_key, resolve_result_cache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..designs import DesignLike
from .runner import DesignRun, WorkloadEvaluation
from .scenario import (
    ScenarioContext,
    ScenarioEvaluation,
    ScenarioPoint,
    assemble_scenario_evaluation,
    build_scenario_context,
    scenario_functional_designs,
    scenario_subsets,
    scenario_timing_key,
)

__all__ = [
    "JobExecutor",
    "UnitCallback",
    "SweepPoint",
    "SweepSpec",
    "SweepStats",
    "SweepResult",
    "functional_designs",
    "functional_job_key",
    "run_functional_job",
    "run_timing_job",
    "run_sweep",
    "timing_job_key",
]


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a workload instance the engine evaluates.

    Frozen and hashable so it can key result dictionaries, and built
    only from picklable scalars so job arguments cross process
    boundaries.  ``workload_kwargs`` holds extra constructor arguments
    (e.g. ``(("iterations", 12),)``) as a sorted tuple of pairs.
    """

    workload: str
    scale: float = 1.0
    seed: int = 0
    #: per-point override of the workload's default error thresholds
    thresholds: ErrorThresholds | None = None
    max_accesses_per_core: int = 50_000
    workload_kwargs: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        overlap = {"scale", "seed"} & {k for k, _ in self.workload_kwargs}
        if overlap:
            raise ValueError(
                f"{sorted(overlap)} must be set via the SweepPoint fields, "
                "not workload_kwargs"
            )

    def make(self) -> Workload:
        """Instantiate the workload this point describes."""
        return make_workload(
            self.workload,
            scale=self.scale,
            seed=self.seed,
            **dict(self.workload_kwargs),
        )


@dataclass(frozen=True)
class SweepSpec:
    """The full evaluation grid, as a serializable value.

    ``points()`` enumerates the cartesian product of workloads x
    scales x seeds x thresholds in deterministic (workload-major)
    order; every point is evaluated under every design in ``designs``.
    An empty ``workloads`` tuple means "all seven paper workloads".
    """

    workloads: tuple[str, ...] = ()
    #: design points evaluated at every grid point; entries may be
    #: given as :class:`~repro.designs.DesignSpec` or registry names —
    #: normalized to specs on construction.
    designs: tuple[DesignSpec, ...] = PAPER_DESIGNS
    config: SystemConfig | None = None
    scales: tuple[float, ...] = (1.0,)
    seeds: tuple[int, ...] = (0,)
    thresholds: tuple[ErrorThresholds | None, ...] = (None,)
    max_accesses_per_core: int = 50_000
    workload_kwargs: tuple[tuple[str, Any], ...] = ()
    #: multi-programmed mixes evaluated alongside the workload grid
    #: (see :mod:`repro.harness.scenario`); each is crossed with seeds
    #: and thresholds like a workload is.
    scenarios: tuple[Scenario, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "designs", resolve_designs(self.designs))

    def resolved_config(self) -> SystemConfig:
        return self.config or SystemConfig.scaled(num_cores=8)

    def resolved_workloads(self) -> tuple[str, ...]:
        if not self.workloads and self.scenarios:
            # A pure scenario sweep: the empty tuple means "none", not
            # "all seven" — mixes bring their own workloads.
            return ()
        return self.workloads or tuple(WORKLOADS)

    def points(self) -> tuple[SweepPoint, ...]:
        """Enumerate every grid point as an independent job spec."""
        return tuple(
            SweepPoint(
                workload=name,
                scale=scale,
                seed=seed,
                thresholds=thresholds,
                max_accesses_per_core=self.max_accesses_per_core,
                workload_kwargs=self.workload_kwargs,
            )
            for name, scale, seed, thresholds in itertools.product(
                self.resolved_workloads(), self.scales, self.seeds, self.thresholds
            )
        )

    def scenario_points(self) -> tuple[ScenarioPoint, ...]:
        """Enumerate the scenario grid (scenarios x scales x seeds x
        thresholds); ``scales`` multiplies every entry's workload scale,
        mirroring what it does to workload points."""
        return tuple(
            ScenarioPoint(
                scenario=scenario.scaled(scale),
                seed=seed,
                thresholds=thresholds,
                max_accesses_per_core=self.max_accesses_per_core,
            )
            for scenario, scale, seed, thresholds in itertools.product(
                self.scenarios, self.scales, self.seeds, self.thresholds
            )
        )


def functional_designs(designs: Iterable[DesignLike]) -> tuple[DesignSpec, ...]:
    """Designs whose functional layer actually executes for a point.

    ``baseline`` is always needed (it is the reference every other
    design's error and iteration factor are measured against) and
    ``AVR`` is always needed (its measured block sizes build the
    default timing layout).  Exact designs (baseline-like, ZeroAVR)
    approximate nothing and reuse the reference, so they never appear
    on their own; designs with a custom ``layout_source`` additionally
    pull in that source's run.
    """
    needed = [BASELINE]
    for design in resolve_designs(designs):
        if design.runs_functional and design not in needed:
            needed.append(design)
        if design.layout_source is not None:
            source = layout_source_design(design)
            if source not in needed:
                needed.append(source)
    if AVR not in needed:
        needed.append(AVR)
    return tuple(needed)


# ----------------------------------------------------------------------
# Job units (module-level so they pickle into worker processes)
# ----------------------------------------------------------------------
def run_functional_job(
    point: SweepPoint,
    design: DesignLike,
    reference: WorkloadResult | None = None,
) -> WorkloadResult:
    """Job unit: one functional round-trip of one design point.

    Pure function of ``(point, design)``: the workload is freshly
    instantiated from the point's seed, so the result is bit-identical
    wherever the job runs.  Exact (reference) designs ignore threshold
    overrides (they approximate nothing), which lets threshold-ablation
    sweeps share one cached reference run.

    ``reference`` is the point's baseline result, when the caller holds
    it (:func:`run_sweep` hands it only to the units that derive).
    Where the design approximates only write-only data, the result
    is derived from it (:meth:`~repro.workloads.base.Workload.derive`)
    without running the kernel; otherwise the kernel runs.  The result,
    and so the unit's cache key, is the same either way, and
    ``reference`` is not changed.
    """
    design = get_design(design)
    workload = point.make()
    thresholds = None if design.is_reference else point.thresholds
    if reference is not None:
        derived = workload.derive(design, reference, thresholds)
        if derived is not None:
            return derived
    return workload.run(design, thresholds=thresholds)


def run_timing_job(
    design: DesignSpec,
    config: SystemConfig,
    layout: AddressLayout,
    front_end: TimingFrontEnd | FrontEndHandle,
    cores: tuple[int, ...] | None,
    footprint_bytes: int,
    dedup_factor: float = 1.0,
) -> SimResult:
    """Job unit: one design's timing replay of one point's trace.

    ``layout`` and the trace's ``front_end`` (see
    :mod:`repro.system.frontend`) are derived deterministically from
    the point's functional results, so this too is a pure function of
    its arguments.  ``front_end`` may arrive as a
    :class:`~repro.trace.store.FrontEndHandle`: a content-keyed
    reference into the memory-mapped trace store, which the job
    resolves here — so worker processes map the shared payload file
    instead of unpickling megabytes of arrays, and replay
    bit-identically either way.  ``cores`` restricts the replay to a
    scenario subset's cores (``None``: every core); the others keep
    their slots with empty streams.
    """
    if isinstance(front_end, FrontEndHandle):
        front_end = front_end.load()
    if cores is not None:
        front_end = front_end.restrict(cores)
    system = build_system(design, config, layout, footprint_bytes, dedup_factor)
    return system.run(front_end)


def functional_job_key(point: SweepPoint, design: DesignLike) -> str:
    """Cache key of a functional job.

    Normalized so equivalent jobs share an entry: the trace budget
    (``max_accesses_per_core``) does not affect functional results, and
    thresholds do not affect exact (reference) runs.  The ablations
    build their keys here too, so they can never drift from the keys
    ``run_sweep`` reads and writes.
    """
    design = get_design(design)
    normalized = replace(
        point,
        max_accesses_per_core=0,
        thresholds=None if design.is_reference else point.thresholds,
    )
    return content_key("functional", MODEL_VERSION, normalized, design)


def timing_job_key(
    point: SweepPoint, design: DesignLike, config: SystemConfig
) -> str:
    """Cache key of a timing job (config-dependent, unlike functional)."""
    # The trailing {} held runtime AVR options; it stays so keys don't move.
    return content_key(
        "timing", MODEL_VERSION, point, get_design(design), config, {}
    )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class _SerialFuture:
    """Future-alike wrapping an already-computed value."""

    __slots__ = ("_value",)

    def __init__(self, value: Any) -> None:
        self._value = value

    def result(self) -> Any:
        return self._value


class JobExecutor(abc.ABC):
    """Execution seam every sweep runs through.

    One method, keyed by the unit's content-hash cache key:
    ``submit_unit`` returns a future-alike plus whether *this call*
    launched the unit (``False`` means the executor joined an
    execution already in flight — the evaluation-service scheduler
    dedups overlapping submissions from concurrent clients this way;
    the in-process executors below always launch).  Only the launching
    submission stores the unit's result into the cache, so joined
    units are never double-written.  ``claim`` serializes parent-side
    work that is not a unit (a point's timing front end) across sweeps
    sharing one scheduler.  ``shutdown`` releases whatever the executor
    owns; ``cancel_futures=True`` is the
    KeyboardInterrupt path — queued units are dropped instead of
    drained.
    """

    #: True when units run in the submitting process, so their
    #: arguments reach them as given and are never pickled
    in_process: bool = False

    @abc.abstractmethod
    def submit_unit(
        self, key: str, fn: Callable, /, *args: Any
    ) -> tuple[Any, bool]:
        """Run ``fn(*args)`` for unit ``key``; return (future, launched)."""

    def claim(self, key: str) -> AbstractContextManager[None]:
        """Hold ``key`` while this sweep does parent-side work for it.

        Sweeps that share a scheduler (the ``repro serve`` daemon's
        sessions) run claimed work for one key one at a time, so the
        second finds what the first committed instead of repeating it.
        The in-process executors serve one sweep and claim nothing.
        """
        return nullcontext()

    def shutdown(self, cancel_futures: bool = False) -> None:
        """Release executor resources (no-op for stateless executors)."""

    def __enter__(self) -> "JobExecutor":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        # Mirror run_sweep's cleanup: an exception drops queued units
        # instead of draining them.
        self.shutdown(cancel_futures=exc_type is not None)


class _SerialExecutor(JobExecutor):
    """Drop-in executor that runs jobs eagerly in-process.

    This is the ``jobs=1`` path: same submission order, same job
    functions, no pickling — the determinism anchor the parallel path
    is tested against.
    """

    in_process = True

    def submit_unit(
        self, key: str, fn: Callable, /, *args: Any
    ) -> tuple[_SerialFuture, bool]:
        return _SerialFuture(fn(*args)), True


class _PoolExecutor(JobExecutor):
    """Process-pool execution of the sweep's picklable job units."""

    def __init__(self, workers: int) -> None:
        self._pool = ProcessPoolExecutor(max_workers=workers)

    def submit_unit(
        self, key: str, fn: Callable, /, *args: Any
    ) -> tuple[Any, bool]:
        return self._pool.submit(fn, *args), True

    def shutdown(self, cancel_futures: bool = False) -> None:
        """Shut the pool down; with ``cancel_futures`` drop queued work.

        ``cancel_futures=True`` is what makes Ctrl-C on a fanned-out
        sweep prompt instead of draining every queued job: running
        units finish (workers exit cleanly, no orphaned processes) and
        everything still queued is cancelled.
        """
        self._pool.shutdown(wait=True, cancel_futures=cancel_futures)


@dataclass
class SweepStats:
    """What one :func:`run_sweep` call actually executed vs. reused."""

    functional_executed: int = 0
    timing_executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: result-cache entries written this run, folded from the cache's
    #: own counters at collection time — with ``jobs>1`` the *work*
    #: happens in pool workers, but every store happens in the parent,
    #: so this reflects the whole run regardless of worker count
    cache_stores: int = 0
    #: timing front ends (private filter + LLC event order, one per
    #: trace) mapped from the trace store vs computed and committed this
    #: run — a warm store maps everything; both stay 0 without a store
    frontends_mapped: int = 0
    frontends_computed: int = 0
    #: cache-missed units this run *joined* instead of launching — an
    #: injected executor (the ``repro serve`` scheduler) found them
    #: already in flight for another client; always 0 for the
    #: in-process executors, which launch everything they are given
    units_deduped: int = 0

    @property
    def executed(self) -> int:
        """Total jobs that ran (i.e. were not served from the cache)."""
        return self.functional_executed + self.timing_executed


@dataclass
class SweepResult:
    """Evaluations for every grid point, plus execution accounting."""

    spec: SweepSpec
    evaluations: dict[SweepPoint, WorkloadEvaluation] = field(default_factory=dict)
    scenario_evaluations: dict[ScenarioPoint, ScenarioEvaluation] = field(
        default_factory=dict
    )
    stats: SweepStats = field(default_factory=SweepStats)

    def __len__(self) -> int:
        return len(self.evaluations) + len(self.scenario_evaluations)

    def __getitem__(self, point: SweepPoint) -> WorkloadEvaluation:
        return self.evaluations[point]

    def by_scenario(self) -> dict[str, ScenarioEvaluation]:
        """Collapse scenario results to ``{scenario name: evaluation}``.

        Like :meth:`by_workload`, only valid when names identify
        scenario points uniquely (one seed and threshold setting).
        """
        names = [p.scenario.name for p in self.scenario_evaluations]
        if len(set(names)) != len(names):
            raise ValueError(
                "sweep grid has multiple points per scenario; "
                "index scenario_evaluations by ScenarioPoint instead"
            )
        return {
            p.scenario.name: ev for p, ev in self.scenario_evaluations.items()
        }

    def by_workload(self) -> dict[str, WorkloadEvaluation]:
        """Collapse to ``{workload name: evaluation}``.

        Only valid for a singleton grid (one scale, seed and threshold
        setting), where workload names identify points uniquely.
        """
        names = [p.workload for p in self.evaluations]
        if len(set(names)) != len(names):
            raise ValueError(
                "sweep grid has multiple points per workload; "
                "index evaluations by SweepPoint instead"
            )
        return {p.workload: ev for p, ev in self.evaluations.items()}


#: per-unit completion hook: called in the parent as each unit's
#: result is collected, with the unit's cache key and whether this run
#: launched it (vs joining another client's in-flight execution or
#: re-reading it).  The evaluation service streams progress events
#: from it; raising from the hook aborts the sweep (the service's
#: cancellation path).
UnitCallback = Callable[[str, bool], None]


def _execute_jobs(
    pool: JobExecutor,
    cache: ResultCache | None,
    jobs: Iterable[tuple[str, tuple]],
    stats: SweepStats | None = None,
    on_unit_done: UnitCallback | None = None,
) -> tuple[dict[str, Any], int]:
    """Submit each ``(key, (fn, *args))`` in order, collect, store.

    ``jobs`` is consumed one unit at a time, each submitted before the
    next is taken, so a generator can build a unit's arguments just
    before its submission (and, in process, its execution).
    Returns the results by key and how many units this call actually
    *launched* — with a deduplicating executor, units joined from
    another client's in-flight execution are collected but not counted
    (and not re-stored: the launching run owns the cache write).
    Cache stores happen only in the parent process, so workers stay
    free of filesystem coordination.
    """
    futures: dict[str, Any] = {}
    launched: set[str] = set()
    for key, (fn, *args) in jobs:
        future, fresh = pool.submit_unit(key, fn, *args)
        futures[key] = future
        if fresh:
            launched.add(key)
    results: dict[str, Any] = {}
    for key, future in futures.items():
        results[key] = future.result()
        if on_unit_done is not None:
            on_unit_done(key, key in launched)
    if cache is not None and launched:
        cache.put_many({key: results[key] for key in launched})
    if stats is not None:
        stats.units_deduped += len(futures) - len(launched)
    return results, len(launched)


def _run_functional_jobs(
    pool: JobExecutor,
    cache: ResultCache | None,
    units: dict[str, tuple[SweepPoint, DesignSpec]],
    stats: SweepStats | None = None,
    on_unit_done: UnitCallback | None = None,
) -> tuple[dict[str, WorkloadResult], int]:
    """Run the functional units ``{key: (point, design)}``, cache first.

    Every point's baseline (reference) unit must be among ``units``,
    under :func:`functional_job_key`: points that differ only in their
    thresholds share it.  All keys are resolved in **one** batched
    cache pass (:meth:`~repro.harness.cache.ResultCache.get_many`).
    The missing reference units run first.  Every other missing unit
    then runs, and the parent hands it its point's reference only where
    the design approximates only write-only data
    (:meth:`~repro.workloads.base.Workload.derivable`), so that unit
    derives its result instead of running the kernel
    (:func:`run_functional_job`) and no other unit is shipped the
    reference.  Returns the results by key and the number of units
    launched (neither served from the cache nor joined in flight).
    """
    results: dict[str, WorkloadResult] = {}
    if cache is not None:
        results.update(cache.get_many(list(units)))
        if stats is not None:
            stats.cache_hits += len(results)
            stats.cache_misses += len(units) - len(results)
    missing = {key: unit for key, unit in units.items() if key not in results}
    references = {
        key: (run_functional_job, point, design)
        for key, (point, design) in missing.items()
        if design == BASELINE
    }
    executed, launched = _execute_jobs(
        pool, cache, references.items(), stats, on_unit_done
    )
    results.update(executed)
    others: dict[str, tuple] = {}
    for key, (point, design) in missing.items():
        if design == BASELINE:
            continue
        reference = results[functional_job_key(point, BASELINE)]
        derives = point.make().derivable(design, reference)
        others[key] = (
            run_functional_job, point, design, reference if derives else None
        )
    executed, launched_others = _execute_jobs(
        pool, cache, others.items(), stats, on_unit_done
    )
    results.update(executed)
    return results, launched + launched_others


def _make_pool(jobs: int) -> JobExecutor:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return _SerialExecutor()
    return _PoolExecutor(jobs)


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache_dir: str | Path | ResultCache | None = None,
    executor: JobExecutor | None = None,
    on_unit_done: UnitCallback | None = None,
) -> SweepResult:
    """Evaluate every point of ``spec`` and reassemble the results.

    ``jobs=1`` runs every job unit in-process (the deterministic serial
    path); ``jobs>1`` fans them out over a process pool.  Both paths
    submit the same jobs in the same order and produce bit-identical
    :class:`~repro.harness.runner.WorkloadEvaluation` objects.  With
    ``cache_dir`` set, job results are reused across runs; a warm cache
    re-executes nothing (``result.stats.executed == 0``).

    ``cache_dir`` may also be an already-built
    :class:`~repro.harness.cache.ResultCache` — the ``repro serve``
    daemon passes its one shared, locked instance to every session's
    sweep, so its counters span them all.

    With a cache, the composed traces' timing front ends live in the
    memory-mapped trace store ``<cache_dir>/m<MODEL_VERSION>/traces``
    (see :mod:`repro.trace.store`), so warm runs that still replay a
    trace — new designs, a cleared result cache — map its front end
    instead of regenerating and re-filtering the trace.  Stored or not,
    front ends are bit-identical, so the result-cache keys are
    unaffected.

    ``executor`` injects a caller-owned :class:`JobExecutor` in place
    of the per-run pool (``jobs`` is then ignored and the executor is
    *not* shut down here) — the ``repro serve`` daemon multiplexes
    many concurrent sweeps onto one shared scheduler this way.
    ``on_unit_done`` is invoked in the calling process as each
    executed unit's result lands (see :data:`UnitCallback`); raising
    from it aborts the sweep, which is the service's cancellation
    path.  A run that owns its pool shuts it down with
    ``cancel_futures=True`` on any error (including
    ``KeyboardInterrupt``), so interrupted sweeps drop queued units
    and leak neither worker processes nor half-written cache entries
    (stores are atomic and happen only in the parent).
    """
    config = spec.resolved_config()
    cache = resolve_result_cache(cache_dir)
    store = TraceStore(cache.root / "traces") if cache is not None else None
    cache_stores0 = cache.stats.stores if cache is not None else 0
    points = spec.points()
    scenario_points = spec.scenario_points()
    needed_functional = functional_designs(spec.designs)
    stats = SweepStats()

    # Each unit's key is hashed once per sweep: the stages below look
    # the same (point, design) up several times.
    functional_keys: dict[tuple[SweepPoint, DesignLike], str] = {}
    timing_keys: dict[tuple[SweepPoint, DesignSpec], str] = {}

    def functional_key(point: SweepPoint, design: DesignLike) -> str:
        key = functional_keys.get((point, design))
        if key is None:
            key = functional_keys[(point, design)] = functional_job_key(point, design)
        return key

    pool = executor if executor is not None else _make_pool(jobs)
    try:
        # --- stage 1: functional jobs, deduplicated by content key ----
        # Workload points and scenario instances enumerate into one unit
        # dict: a mix containing a workload that is also swept solo
        # shares the very same functional jobs and cache entries.  Each
        # point's baseline runs before its other designs, which may
        # derive their results from it.
        functional_units: dict[str, tuple[SweepPoint, DesignSpec]] = {}
        for point in points:
            for design in needed_functional:
                key = functional_key(point, design)
                functional_units.setdefault(key, (point, design))
        for spoint in scenario_points:
            for plan in spoint.plans():
                ipoint = spoint.instance_point(plan)
                for design in scenario_functional_designs(spec.designs):
                    key = functional_key(ipoint, design)
                    functional_units.setdefault(key, (ipoint, design))
        functional, executed = _run_functional_jobs(
            pool, cache, functional_units, stats, on_unit_done
        )
        stats.functional_executed += executed

        def functional_for(
            point: SweepPoint, design: DesignLike
        ) -> WorkloadResult:
            return functional[functional_key(point, design)]

        # --- stage 2: per-point composed layout + trace, then timing --
        # Every point — classic single-workload or multi-programmed mix
        # — is a scenario: a workload point becomes the trivial solo
        # scenario (one instance spanning every core), whose composed
        # layout and trace are bit-identical to the historical path.
        # Keys for *all* timing replays are enumerated first and
        # resolved in one batched cache pass; only then are misses
        # turned into pool jobs.  A point's timing front end is only
        # built (or mapped) for points with at least one timing cache
        # miss: a warm re-run reassembles everything without
        # regenerating a single address stream, without filtering one,
        # and without a single per-key cache probe.  One front end
        # serves every design and scenario subset of its point.
        contexts: list[tuple[SweepPoint, Workload, WorkloadResult, AddressLayout]] = []
        timing: dict[str, SimResult] = {}
        #: key -> how to build the job if the batched lookup misses
        descriptors: dict[str, tuple] = {}
        dedups: dict[tuple[SweepPoint, DesignSpec], float] = {}
        for point in points:
            workload = point.make()
            reference = functional_for(point, BASELINE)
            solo = ScenarioPoint(
                scenario=Scenario.solo(
                    point.workload,
                    cores=config.num_cores,
                    scale=point.scale,
                    workload_kwargs=point.workload_kwargs,
                ),
                seed=point.seed,
                thresholds=point.thresholds,
                max_accesses_per_core=point.max_accesses_per_core,
            )
            context = build_scenario_context(
                solo, config, functional_for, designs=spec.designs, store=store
            )
            contexts.append((point, workload, reference, context.layout))
            for design in spec.designs:
                func = functional.get(functional_key(point, design), reference)
                dedup = (
                    func.memory.dedup_factor() if design.measures_dedup else 1.0
                )
                dedups[(point, design)] = dedup
                key = timing_keys[(point, design)] = timing_job_key(
                    point, design, config
                )
                descriptors[key] = (
                    context,
                    design,
                    None,
                    reference.memory.footprint_bytes,
                    dedup,
                )

        # Scenario points: one co-run replay per design, plus the solo
        # and leave-one-out subset replays the contention metrics need.
        scenario_contexts = []
        for spoint in scenario_points:
            context = build_scenario_context(
                spoint, config, functional_for, designs=spec.designs, store=store
            )
            scenario_contexts.append(context)
            subsets = scenario_subsets(len(context.plans))
            for design in spec.designs:
                for active in subsets:
                    key = scenario_timing_key(spoint, design, config, active)
                    descriptors[key] = (
                        context,
                        design,
                        active,
                        context.footprint_bytes,
                        context.dedup_factors.get(design, 1.0),
                    )

        if cache is not None:
            cached_timing = cache.get_many(list(descriptors))
            timing.update(cached_timing)
            stats.cache_hits += len(cached_timing)
            stats.cache_misses += len(descriptors) - len(cached_timing)

        def timing_jobs() -> Iterator[tuple[str, tuple]]:
            # A point's replays are contiguous: its front end is built
            # (or mapped) for the first and dropped when the next point's
            # replaces it, so the sweep holds one front end at a time.
            held: ScenarioContext | None = None
            for key, descriptor in descriptors.items():
                if key in timing:
                    continue
                context, design, active, footprint, dedup = descriptor
                if context is not held:
                    held = context
                    front_end = context.front_end_payload(
                        pool.claim, pool.in_process
                    )
                yield key, (
                    run_timing_job,
                    design,
                    config,
                    context.layout_for(design),
                    front_end,
                    None if active is None else context.active_cores(active),
                    footprint,
                    dedup,
                )

        timing_results, launched = _execute_jobs(
            pool, cache, timing_jobs(), stats, on_unit_done
        )
        timing.update(timing_results)
        stats.timing_executed += launched
    except BaseException:
        # An interrupted (Ctrl-C) or cancelled sweep must not leak its
        # pool: queued units are dropped, running workers drain and
        # exit.  Injected executors are caller-owned and survive.
        if executor is None:
            pool.shutdown(cancel_futures=True)
        raise
    if executor is None:
        pool.shutdown()
    if store is not None:
        stats.frontends_mapped = store.stats.front_end_hits
        stats.frontends_computed = store.stats.front_end_stores
    if cache is not None:
        stats.cache_stores = cache.stats.stores - cache_stores0

    # --- stage 3: reassemble WorkloadEvaluations ----------------------
    result = SweepResult(spec=spec, stats=stats)
    for point, workload, reference, layout in contexts:
        evaluation = WorkloadEvaluation(
            name=point.workload,
            baseline_iterations=reference.iterations,
            footprint_bytes=reference.memory.footprint_bytes,
            timing_approx_bytes=layout.approx_bytes,
            avr_compression_ratio=layout.mean_compression_ratio(),
        )
        for design in spec.designs:
            func = functional.get(functional_key(point, design), reference)
            # A copy: the collected result may be shared (the serve
            # scheduler hands one unit's result to every joined session).
            sim = replace(
                timing[timing_keys[(point, design)]],
                iteration_factor=func.iterations / max(reference.iterations, 1),
            )
            error = (
                0.0
                if design.is_reference
                else workload.output_error(func, reference)
            )
            evaluation.runs[design] = DesignRun(
                design=design,
                output_error=error,
                iterations=func.iterations,
                compression_ratio=func.memory.compression_ratio(),
                dedup_factor=dedups[(point, design)],
                timing=sim,
            )
        result.evaluations[point] = evaluation

    for spoint, context in zip(scenario_points, scenario_contexts):
        subset_results = {
            (design, active): timing[
                scenario_timing_key(spoint, design, config, active)
            ]
            for design in spec.designs
            for active in scenario_subsets(len(context.plans))
        }
        result.scenario_evaluations[spoint] = assemble_scenario_evaluation(
            spoint, context, spec.designs, subset_results
        )
    return result
