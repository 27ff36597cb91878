"""The planning engine: multi-fidelity search over the design space.

:func:`run_plan` answers the paper's real question — *which design
configuration minimizes DRAM traffic (or any other metric) within an
output-error budget?* — without the exhaustive full-fidelity grid the
harness historically swept.  Three cooperating layers:

1. Every candidate evaluation decomposes into ordinary sweep job units
   (:func:`~repro.harness.sweep.run_sweep` on a one-point grid), so
   planner probes share the on-disk result cache — and the process
   pool, trace store, and bit-identical results — with sweeps and
   experiments of the same configurations.  A warm re-plan executes
   nothing.
2. A successive-halving loop over a trace-fidelity ladder
   (:mod:`~repro.planner.halving`): the whole population runs at a
   cheap accesses-per-core budget, survivors are promoted by Pareto
   rank + objective, and only the final rung pays full fidelity.
   Functional jobs are fidelity-independent (their cache keys
   normalize the trace budget away), so climbing a rung costs only
   timing replays.
3. A cheap numpy surrogate (:mod:`~repro.planner.surrogate`) fitted
   from already-cached sweep points seeds rung 0 when
   ``initial_candidates`` caps the starting population; with no cached
   data the seed order falls back to a shuffle drawn from the plan's
   explicitly threaded :class:`numpy.random.Generator`.

The result is the Pareto front over the plan's metrics at full
fidelity, plus recommended :class:`~repro.designs.DesignSpec`s and an
accounting of full-fidelity evaluations saved vs the exhaustive grid.
Planning is deterministic given (spec, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ..common.config import SystemConfig
from ..common.types import ErrorThresholds
from ..designs import BASELINE, DesignSpec, register_design
from ..harness.cache import resolve_result_cache
from ..harness.sweep import (
    SweepSpec,
    SweepStats,
    functional_job_key,
    run_sweep,
    timing_job_key,
)
from .halving import Rung, rank_candidates, rung_schedule
from .pareto import metric_matrix, nondominated_mask
from .space import Candidate, enumerate_candidates
from .spec import MAXIMIZE, PlanSpec
from .surrogate import Surrogate, candidate_features

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiment import ExperimentSpec
    from ..harness.runner import WorkloadEvaluation
    from ..workloads.base import Workload

__all__ = [
    "CandidateOutcome",
    "PlanResult",
    "PlanStats",
    "RungResult",
    "run_plan",
]


@dataclass
class PlanStats:
    """What one plan measured, executed, and saved."""

    #: size of the enumerated candidate space
    candidates: int = 0
    #: full-fidelity evaluations the exhaustive grid would need
    exhaustive_full_evals: int = 0
    #: distinct candidates this plan evaluated at full fidelity
    full_fidelity_evals: int = 0
    #: candidate evaluations performed below full fidelity
    low_fidelity_evals: int = 0
    #: sweep jobs actually executed (not served from the cache)
    jobs_executed: int = 0
    #: timing jobs executed inside full-fidelity rung sweeps — a warm
    #: re-plan keeps this (and ``jobs_executed``) at zero
    full_fidelity_executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: already-cached sweep points the surrogate model was fitted from
    surrogate_points: int = 0

    @property
    def savings(self) -> float:
        """Exhaustive-grid full-fidelity evals / this plan's."""
        return self.exhaustive_full_evals / max(self.full_fidelity_evals, 1)


@dataclass(frozen=True)
class CandidateOutcome:
    """One candidate's measured metrics at one fidelity."""

    candidate: Candidate
    fidelity: int
    #: every :data:`~repro.planner.spec.METRICS` entry, measured
    metrics: dict[str, float] = field(compare=False)
    feasible: bool = True

    def to_mapping(self) -> dict[str, Any]:
        """JSON-able form (reports, ``repro plan --json``)."""
        return {
            "key": self.candidate.key(),
            "design": self.candidate.design.name,
            "t2": self.candidate.t2,
            "fidelity": self.fidelity,
            "feasible": self.feasible,
            "metrics": {k: float(v) for k, v in self.metrics.items()},
        }


@dataclass(frozen=True)
class RungResult:
    """One rung of the halving loop, as run."""

    index: int
    fidelity: int
    outcomes: tuple[CandidateOutcome, ...]
    #: candidate keys promoted to the next rung (empty on the last)
    promoted: tuple[str, ...]


@dataclass
class PlanResult:
    """A finished plan: the front, the rungs, and the accounting."""

    spec: PlanSpec
    candidates: tuple[Candidate, ...]
    rungs: tuple[RungResult, ...]
    #: non-dominated, feasible full-fidelity outcomes
    front: tuple[CandidateOutcome, ...]
    #: the front ordered by the plan objective (best first)
    recommended: tuple[CandidateOutcome, ...]
    stats: PlanStats

    def recommended_designs(self) -> tuple[DesignSpec, ...]:
        """The design specs behind :attr:`recommended`, best first."""
        seen: list[DesignSpec] = []
        for outcome in self.recommended:
            if outcome.candidate.design not in seen:
                seen.append(outcome.candidate.design)
        return tuple(seen)

    def prune_experiment(self, experiment: "ExperimentSpec") -> "ExperimentSpec":
        """Narrow an experiment grid to this plan's recommendations.

        The sweep pre-pruning seam: the experiment's ``designs`` axis
        is replaced by the front's designs (derived variants are
        registered so their names resolve), and — when this plan
        searched a T2 axis — its ``t2_thresholds`` axis is replaced by
        the T2 values the front actually uses.
        """
        if not self.front:
            raise ValueError(
                "cannot prune an experiment from an empty Pareto front "
                "(no feasible candidates)"
            )
        names: list[str] = []
        for outcome in self.recommended:
            design = outcome.candidate.design
            register_design(design)
            if design.name not in names:
                names.append(design.name)
        t2s: tuple[float, ...] | None = None
        if self.spec.t2_thresholds:
            t2s = tuple(
                sorted(
                    {
                        o.candidate.t2
                        for o in self.recommended
                        if o.candidate.t2 is not None
                    }
                )
            )
        return experiment.pruned(tuple(names), t2s)

    def to_mapping(self) -> dict[str, Any]:
        """JSON-able summary of the whole plan."""
        return {
            "name": self.spec.name,
            "plan_hash": self.spec.content_hash(),
            "workload": self.spec.workload,
            "objective": self.spec.objective,
            "constraints": list(self.spec.constraints),
            "pareto_metrics": list(self.spec.pareto_metrics),
            "budget": self.spec.budget,
            "seed": self.spec.seed,
            "candidates": len(self.candidates),
            "rungs": [
                {
                    "index": rung.index,
                    "fidelity": rung.fidelity,
                    "evaluated": [o.candidate.key() for o in rung.outcomes],
                    "promoted": list(rung.promoted),
                }
                for rung in self.rungs
            ],
            "front": [o.to_mapping() for o in self.front],
            "recommended": [o.candidate.label() for o in self.recommended],
            "stats": {
                "candidates": self.stats.candidates,
                "exhaustive_full_evals": self.stats.exhaustive_full_evals,
                "full_fidelity_evals": self.stats.full_fidelity_evals,
                "low_fidelity_evals": self.stats.low_fidelity_evals,
                "jobs_executed": self.stats.jobs_executed,
                "full_fidelity_executed": self.stats.full_fidelity_executed,
                "cache_hits": self.stats.cache_hits,
                "cache_misses": self.stats.cache_misses,
                "surrogate_points": self.stats.surrogate_points,
                "savings": round(self.stats.savings, 3),
            },
        }


class _Planner:
    """One planning run's mutable state (see :func:`run_plan`)."""

    def __init__(
        self,
        spec: PlanSpec,
        jobs: int,
        cache_dir: str | Path | None,
        trace_store: str | Path | bool | None,
        executor: Any | None = None,
        on_unit_done: Any | None = None,
    ) -> None:
        self.spec = spec
        self.jobs = jobs
        self.trace_store = trace_store
        self.executor = executor
        self.on_unit_done = on_unit_done
        # One cache instance threads through every internal sweep, so
        # shard indexes loaded by one rung serve every later rung.
        self.cache = resolve_result_cache(cache_dir)
        self.config = SystemConfig.scaled(num_cores=spec.resolved_cores())
        self.constraints = spec.parsed_constraints()
        self.stats = PlanStats()
        self.rng = np.random.default_rng(spec.seed)
        self._full_keys: set[str] = set()
        self._workload: "Workload | None" = None

    # ------------------------------------------------------------------
    # measurement: candidate evaluations as sweep job units
    # ------------------------------------------------------------------
    def measure(
        self, candidates: list[Candidate], fidelity: int
    ) -> list[CandidateOutcome]:
        """Evaluate ``candidates`` at ``fidelity`` through the sweep engine.

        Candidates sharing a T2 override share one sweep grid point —
        one composed trace, one baseline replay — exactly as an
        exhaustive sweep of the same designs would.
        """
        full = fidelity == self.spec.max_accesses_per_core
        groups: dict[float | None, list[Candidate]] = {}
        for candidate in candidates:
            groups.setdefault(candidate.t2, []).append(candidate)
        outcomes: dict[Candidate, CandidateOutcome] = {}
        for t2, group in groups.items():
            designs: list[DesignSpec] = [BASELINE]
            for candidate in group:
                if candidate.design not in designs:
                    designs.append(candidate.design)
            thresholds = (
                ErrorThresholds.from_t2(t2) if t2 is not None else None
            )
            sweep = run_sweep(
                SweepSpec(
                    workloads=(self.spec.workload,),
                    designs=tuple(designs),
                    config=self.config,
                    scales=(self.spec.scale,),
                    seeds=(self.spec.trace_seed,),
                    thresholds=(thresholds,),
                    max_accesses_per_core=fidelity,
                ),
                jobs=self.jobs,
                cache_dir=self.cache,
                trace_store=self.trace_store,
                executor=self.executor,
                on_unit_done=self.on_unit_done,
            )
            self._absorb(sweep.stats, full)
            evaluation = sweep.by_workload()[self.spec.workload]
            for candidate in group:
                metrics = self._metrics(evaluation, candidate.design)
                outcomes[candidate] = CandidateOutcome(
                    candidate=candidate,
                    fidelity=fidelity,
                    metrics=metrics,
                    feasible=all(
                        c.satisfied(metrics[c.metric]) for c in self.constraints
                    ),
                )
        for candidate in candidates:
            if full:
                self._full_keys.add(candidate.key())
            else:
                self.stats.low_fidelity_evals += 1
        return [outcomes[candidate] for candidate in candidates]

    def _absorb(self, sweep_stats: SweepStats, full: bool) -> None:
        self.stats.jobs_executed += sweep_stats.executed
        self.stats.cache_hits += sweep_stats.cache_hits
        self.stats.cache_misses += sweep_stats.cache_misses
        if full:
            self.stats.full_fidelity_executed += sweep_stats.timing_executed

    @staticmethod
    def _metrics(
        evaluation: "WorkloadEvaluation", design: DesignSpec
    ) -> dict[str, float]:
        run = evaluation.runs[design]
        return {
            "traffic": evaluation.normalized(design, "traffic"),
            "time": evaluation.normalized(design, "time"),
            "amat": evaluation.normalized(design, "amat"),
            "mpki": evaluation.normalized(design, "mpki"),
            "energy": evaluation.normalized(design, "energy"),
            "error": run.output_error,
            "compression": run.compression_ratio,
        }

    # ------------------------------------------------------------------
    # surrogate: harvest already-cached sweep points
    # ------------------------------------------------------------------
    def harvest_surrogate(
        self, candidates: tuple[Candidate, ...], fidelities: tuple[int, ...]
    ) -> Surrogate | None:
        """Fit the surrogate from whatever the result cache already holds.

        Every (candidate, fidelity) pair's speculative job keys are
        enumerated up front and resolved in **one** index-backed bulk
        probe (:meth:`ResultCache.peek_many` — stats-neutral, and
        absent keys cost index lookups, not ``open()`` attempts,
        instead of the historical four ``peek`` calls per pair).
        Metrics are reconstructed from the probe's results — no
        simulation runs here, ever.
        """
        if self.cache is None:
            return None
        probes: list[tuple[Candidate, int, tuple[str, str, str, str]]] = []
        keys: set[str] = set()
        for candidate in candidates:
            for fidelity in fidelities:
                group = self._probe_keys(candidate, fidelity)
                probes.append((candidate, fidelity, group))
                keys.update(group)
        blob = self.cache.peek_many(sorted(keys))
        features: list[np.ndarray] = []
        values: list[float] = []
        for candidate, fidelity, group in probes:
            metrics = self._cached_metrics(candidate, group, blob)
            if metrics is None:
                continue
            features.append(
                candidate_features(
                    candidate, fidelity, self.spec.max_accesses_per_core
                )
            )
            values.append(metrics[self.spec.objective])
        surrogate = Surrogate.fit(features, values)
        self.stats.surrogate_points = len(values)
        return surrogate

    def _probe_keys(
        self, candidate: Candidate, fidelity: int
    ) -> tuple[str, str, str, str]:
        """The four speculative job keys one (candidate, fidelity) needs.

        (reference functional, design functional, reference timing,
        design timing) — reference designs reuse the reference
        functional key, exactly as :func:`run_sweep` deduplicates them.
        """
        point = candidate.sweep_point(self.spec, fidelity)
        design = candidate.design
        reference_key = functional_job_key(point, BASELINE)
        return (
            reference_key,
            reference_key
            if design.is_reference
            else functional_job_key(point, design),
            timing_job_key(point, BASELINE, self.config),
            timing_job_key(point, design, self.config),
        )

    def _cached_metrics(
        self,
        candidate: Candidate,
        group: tuple[str, str, str, str],
        blob: dict[str, Any],
    ) -> dict[str, float] | None:
        """Reconstruct one evaluation's metrics from the bulk probe."""
        design = candidate.design
        reference = blob.get(group[0])
        functional = blob.get(group[1])
        base_sim = blob.get(group[2])
        sim = blob.get(group[3])
        if reference is None:
            return None
        if functional is None or base_sim is None or sim is None:
            return None
        factor = functional.iterations / max(reference.iterations, 1)
        if self._workload is None:
            # Same workload instance for every candidate: the plan pins
            # (workload, scale, seed), and the trace budget does not
            # enter workload construction.
            self._workload = candidate.sweep_point(
                self.spec, self.spec.max_accesses_per_core
            ).make()
        error = (
            0.0
            if design.is_reference
            else self._workload.output_error(functional, reference)
        )
        return {
            "traffic": sim.total_bytes * factor / base_sim.total_bytes,
            "time": sim.cycles * factor / base_sim.cycles,
            "amat": sim.amat_cycles / base_sim.amat_cycles,
            "mpki": sim.llc_mpki / base_sim.llc_mpki,
            "energy": sim.energy.total * factor / base_sim.energy.total,
            "error": error,
            "compression": functional.memory.compression_ratio(),
        }

    # ------------------------------------------------------------------
    # rung 0 seeding
    # ------------------------------------------------------------------
    def seed_population(
        self,
        candidates: tuple[Candidate, ...],
        surrogate: Surrogate | None,
        count: int,
        low_fidelity: int,
    ) -> list[Candidate]:
        """Pick the rung-0 population of ``count`` candidates.

        With a fitted surrogate: the candidates predicted best on the
        objective (deterministic, keyed tie-break).  Without one: a
        shuffle drawn from the plan's seeded Generator — stochastic,
        but a pure function of (spec, seed).
        """
        if count >= len(candidates):
            return list(candidates)
        if surrogate is not None:
            sign = -1.0 if self.spec.objective in MAXIMIZE else 1.0
            scored = sorted(
                candidates,
                key=lambda c: (
                    sign
                    * surrogate.predict(
                        candidate_features(
                            c, low_fidelity, self.spec.max_accesses_per_core
                        )
                    ),
                    c.key(),
                ),
            )
            return scored[:count]
        order = self.rng.permutation(len(candidates))
        return [candidates[i] for i in order[:count]]

    # ------------------------------------------------------------------
    # the halving loop
    # ------------------------------------------------------------------
    def run(self) -> PlanResult:
        spec = self.spec
        candidates = enumerate_candidates(spec)
        self.stats.candidates = len(candidates)
        self.stats.exhaustive_full_evals = len(candidates)

        population_cap = (
            min(spec.initial_candidates, len(candidates))
            if spec.initial_candidates
            else len(candidates)
        )
        schedule = rung_schedule(
            population_cap,
            spec.budget,
            spec.eta,
            spec.max_accesses_per_core,
            spec.min_fidelity,
        )
        surrogate = self.harvest_surrogate(
            candidates, tuple(r.fidelity for r in schedule)
        )
        population = self.seed_population(
            candidates, surrogate, population_cap, schedule[0].fidelity
        )

        rungs: list[RungResult] = []
        outcomes: list[CandidateOutcome] = []
        for index, rung in enumerate(schedule):
            population = population[: rung.count]
            outcomes = self.measure(population, rung.fidelity)
            promoted: tuple[str, ...] = ()
            if index + 1 < len(schedule):
                order = rank_candidates(
                    [o.candidate.key() for o in outcomes],
                    [o.metrics for o in outcomes],
                    spec.objective,
                    self.constraints,
                    spec.pareto_metrics,
                )
                keep = schedule[index + 1].count
                population = [outcomes[i].candidate for i in order[:keep]]
                promoted = tuple(o.key() for o in population)
            rungs.append(
                RungResult(
                    index=index,
                    fidelity=rung.fidelity,
                    outcomes=tuple(outcomes),
                    promoted=promoted,
                )
            )
        self.stats.full_fidelity_evals = len(self._full_keys)

        feasible = [o for o in outcomes if o.feasible]
        front: tuple[CandidateOutcome, ...] = ()
        if feasible:
            mask = nondominated_mask(
                metric_matrix([o.metrics for o in feasible], spec.pareto_metrics)
            )
            front = tuple(o for o, keep in zip(feasible, mask) if keep)
        sign = -1.0 if spec.objective in MAXIMIZE else 1.0
        recommended = tuple(
            sorted(
                front,
                key=lambda o: (sign * o.metrics[spec.objective], o.candidate.key()),
            )
        )
        return PlanResult(
            spec=spec,
            candidates=candidates,
            rungs=tuple(rungs),
            front=front,
            recommended=recommended,
            stats=self.stats,
        )


def run_plan(
    spec: PlanSpec | str | Path,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    trace_store: str | Path | bool | None = None,
    executor: Any | None = None,
    on_unit_done: Any | None = None,
) -> PlanResult:
    """Execute a plan spec (or spec file) end to end.

    ``jobs`` / ``cache_dir`` / ``trace_store`` override the spec's
    execution settings without touching its identity, mirroring
    :func:`~repro.experiment.run_experiment`; ``executor`` /
    ``on_unit_done`` thread a caller-owned
    :class:`~repro.harness.sweep.JobExecutor` and per-unit progress
    hook through every internal sweep (the ``repro serve`` daemon's
    seam).  Planning is deterministic given (spec, seed): re-running
    the same plan yields an identical :class:`PlanResult`, and with a
    warm cache it executes zero sweep jobs.
    """
    if isinstance(spec, (str, Path)):
        spec = PlanSpec.from_file(spec)
    planner = _Planner(
        spec,
        jobs=jobs if jobs is not None else spec.jobs,
        cache_dir=cache_dir if cache_dir is not None else spec.cache_dir,
        trace_store=trace_store if trace_store is not None else spec.trace_store,
        executor=executor,
        on_unit_done=on_unit_done,
    )
    return planner.run()
