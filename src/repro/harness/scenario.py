"""Scenario evaluation: contention experiments over workload mixes.

A :class:`~repro.scenario.Scenario` assigns workload instances to
cores; this module runs the mix through the timing layer and measures
what sharing the LLC and DRAM costs each co-runner:

* **per-core slowdown vs solo** — each instance is also replayed
  *alone* on the same machine (same composed layout, same capacity
  model, only its cores populated), and every core's co-run cycle
  count is compared against its solo count;
* **weighted speedup** — the standard multiprogramming throughput
  metric ``sum_i(solo_time_i / corun_time_i)``, which equals the IPC
  ratio sum here because an instance executes the identical
  instruction stream solo and co-run;
* **shared-LLC eviction pressure per co-runner** — a leave-one-out
  replay per instance: the LLC misses the mix suffers *because
  instance i is present* (``misses(mix) - misses(mix without i)``),
  split into the instance's own solo misses and the misses it induces
  on everyone else.

All replays are sweep-engine job units (:func:`run_timing_job` on the
composed trace's one shared timing front end, restricted to each
subset's cores), cached under scenario-qualified content keys, and
bit-identical to the per-event oracle.  Completion times
fold the bandwidth bound in proportionally: when a run is
bandwidth-bound, every core's latency-bound count is stretched by
``cycles / max(core_cycles)`` so per-core comparisons still see the
DRAM-saturation effect the paper is about.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Callable, Iterable, TYPE_CHECKING

from .. import MODEL_VERSION
from ..common.config import SystemConfig
from ..common.types import ErrorThresholds
from ..designs import (
    AVR,
    BASELINE,
    DesignMap,
    DesignSpec,
    layout_source_design,
    resolve_designs,
)
from ..scenario import (
    InstancePlan,
    Scenario,
    assign_offsets,
    compose_layouts,
    compose_traces,
    get_scenario,
    plan_instances,
)
from ..system.frontend import TimingFrontEnd, compute_front_end
from ..system.layout import AddressLayout
from ..system.simulator import SimResult
from ..trace.generator import GeneratedTrace, budget_iterations, generate_trace
from ..trace.store import FrontEndHandle, TraceStore, front_end_key
from ..workloads.base import Workload, WorkloadResult
from .cache import content_key
from .runner import _build_layout

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..designs import DesignLike
    from .sweep import SweepPoint

__all__ = [
    "InstanceContention",
    "ScenarioContext",
    "ScenarioDesignRun",
    "ScenarioEvaluation",
    "ScenarioPoint",
    "build_scenario_context",
    "scenario_functional_designs",
    "scenario_subsets",
    "scenario_timing_context",
    "scenario_trace_key",
]

@dataclass(frozen=True)
class ScenarioPoint:
    """One scenario grid point: a mix instance the sweep evaluates.

    The scenario analogue of :class:`~repro.harness.sweep.SweepPoint`:
    frozen, hashable, picklable, and canonicalizable into cache keys —
    the *scenario-qualified identity* every timing replay of the mix is
    stored under.
    """

    scenario: Scenario
    seed: int = 0
    thresholds: ErrorThresholds | None = None
    max_accesses_per_core: int = 50_000

    def plans(self) -> list[InstancePlan]:
        return plan_instances(self.scenario, self.seed)

    def instance_point(self, plan: InstancePlan) -> SweepPoint:
        """The functional-layer :class:`SweepPoint` of one instance.

        Instances of identical configuration map to the *same* point
        (and therefore share functional job results and cache entries):
        the functional layer simulates values, which do not depend on
        which cores run the code or how the mix is seeded — only the
        trace jitter consumes the instance's spawned seed.
        """
        from .sweep import SweepPoint

        return SweepPoint(
            workload=plan.entry.workload,
            scale=plan.entry.scale,
            seed=self.seed,
            thresholds=self.thresholds,
            max_accesses_per_core=self.max_accesses_per_core,
            workload_kwargs=plan.entry.workload_kwargs,
        )


def scenario_functional_designs(
    designs: Iterable[DesignLike],
) -> tuple[DesignSpec, ...]:
    """Functional runs a scenario evaluation needs per instance.

    ``baseline`` (reference memory: layouts, footprints, traces) and
    ``AVR`` (measured block sizes for the default timing layout)
    always; dedup-measuring designs (Doppelgänger family) only when
    evaluated (their measured dedup factor parameterizes the capacity
    model), and custom ``layout_source`` designs pull in their source
    run.  Scenario runs report timing contention, not output error, so
    the other designs' functional layers never execute.
    """
    needed = [BASELINE, AVR]
    for design in resolve_designs(designs):
        if design.measures_dedup and design not in needed:
            needed.append(design)
        if design.layout_source is not None:
            source = layout_source_design(design)
            if source not in needed:
                needed.append(source)
    return tuple(needed)


def scenario_subsets(num_instances: int) -> tuple[tuple[int, ...], ...]:
    """Instance subsets the contention experiment replays.

    The full mix, each instance solo, and each leave-one-out
    complement — deduplicated (for a two-instance mix the solo and
    leave-one-out sets coincide) and deterministically ordered.
    """
    full = tuple(range(num_instances))
    if num_instances == 1:
        return (full,)
    subsets = {full}
    for i in range(num_instances):
        subsets.add((i,))
        subsets.add(tuple(j for j in full if j != i))
    return tuple(sorted(subsets, key=lambda s: (len(s), s)))


# ----------------------------------------------------------------------
# Context: everything derived from the functional layer
# ----------------------------------------------------------------------
@dataclass
class ScenarioContext:
    """Composed machine view of one scenario point.

    Built in the parent process from (cached) functional results; the
    composed trace's timing front end is built lazily, so a fully warm
    timing cache never pays for trace generation or the private-cache
    filter, mirroring the single-workload sweep path.
    """

    point: ScenarioPoint
    config: SystemConfig
    plans: list[InstancePlan]
    workloads: list[Workload]
    references: list[WorkloadResult]
    offsets: list[int]
    #: composed timing layout per layout-source design (the canonical
    #: ``AVR`` source is always present; see ``layout_for``)
    layouts: DesignMap
    footprint_bytes: int
    instance_footprints: list[int]
    scale_factors: list[float]
    dedup_factors: DesignMap
    #: memory-mapped store consulted for the point's front end before
    #: computing it (None = always compute in-process)
    store: TraceStore | None = field(default=None, repr=False)

    @property
    def num_cores(self) -> int:
        return self.config.num_cores

    @property
    def layout(self) -> AddressLayout:
        """The default composed layout (canonical AVR-measured sizes)."""
        return self.layouts[AVR]

    def layout_for(self, design: DesignLike) -> AddressLayout:
        """The composed layout a design's timing replay consumes."""
        return self.layouts[layout_source_design(design)]

    def trace(self) -> GeneratedTrace:
        """The composed machine-wide trace, generated in-process.

        Timing jobs replay the point's front end, so a sweep generates
        the trace only when the front end is missing from its store.
        """
        per_instance = [
            generate_trace(
                workload.trace_spec(),
                reference.memory,
                num_cores=plan.entry.cores,
                max_accesses_per_core=self.point.max_accesses_per_core,
                seed=plan.seed,
            )
            for plan, workload, reference in zip(
                self.plans, self.workloads, self.references
            )
        ]
        return compose_traces(
            per_instance, self.plans, self.offsets, self.num_cores
        )

    def front_end_payload(
        self,
        claim: Callable[[str], AbstractContextManager[None]],
        in_process: bool,
    ) -> TimingFrontEnd | FrontEndHandle:
        """What the point's timing jobs should carry as their front end.

        The composed trace's :class:`~repro.system.frontend.TimingFrontEnd`
        serves every design and instance subset of the point; the sweep
        calls this once per point and hands the payload to each of its
        replays.  With a store, a warm run maps the committed entry and
        a cold run commits it under
        :func:`~repro.trace.store.front_end_key`.  Jobs that run in this
        process (``in_process``) and jobs of a run without a store carry
        the front end itself; jobs bound for worker processes carry a
        :class:`~repro.trace.store.FrontEndHandle`, and the worker maps
        the shared payload file.  ``claim`` is the executor's
        :meth:`~repro.harness.sweep.JobExecutor.claim`: a daemon session
        that needs a front end another session is computing waits for it
        and maps it.
        """
        if self.store is None:
            return compute_front_end(self.trace(), self.config)
        key = front_end_key(scenario_trace_key(self.point, self.num_cores), self.config)
        with claim(key):
            front_end = self.store.get(key)
            if front_end is None:
                front_end = compute_front_end(self.trace(), self.config)
                self.store.put(key, front_end)
        if in_process:
            return front_end
        return FrontEndHandle(root=str(self.store.root), key=key)

    def active_cores(self, active: tuple[int, ...]) -> tuple[int, ...] | None:
        """Cores a replay of instance subset ``active`` keeps populated.

        ``None`` for the full mix: the replay needs no restriction.
        """
        if len(active) == len(self.plans):
            return None
        return tuple(sorted(c for i in active for c in self.plans[i].cores))


def scenario_trace_key(point: ScenarioPoint, num_cores: int) -> str:
    """Content key of one point's composed machine-wide trace.

    The trace itself is not stored: this key names it inside its front
    end's :func:`~repro.trace.store.front_end_key`.  It covers
    everything trace composition consumes: the mix's entries,
    placement, seed and access budget (via the point's canonical form),
    the machine width, and the model version.  Excluded, like the
    timing keys: the scenario's cosmetic ``name``, and the error
    ``thresholds`` — traces are generated from reference (exact)
    memory layouts, so every threshold setting of one mix maps the
    same stored front end.
    """
    from dataclasses import replace

    identity = replace(
        point,
        scenario=replace(point.scenario, name=""),
        thresholds=None,
    )
    return content_key("scenario-trace", MODEL_VERSION, identity, num_cores)


def build_scenario_context(
    point: ScenarioPoint,
    config: SystemConfig,
    functional_for: Callable[[SweepPoint, DesignSpec], WorkloadResult],
    designs: Iterable[DesignLike],
    store: TraceStore | None = None,
) -> ScenarioContext:
    """Compose per-instance functional results into one machine view.

    ``functional_for(sweep_point, design)`` supplies the (possibly
    cached) :class:`WorkloadResult` of one instance configuration —
    the seam that lets :func:`repro.harness.sweep.run_sweep` and
    :func:`scenario_timing_context` share this builder.  ``designs``
    are the designs the context is built for (their layout sources and
    dedup factors).  With a ``store``, the context serves its timing
    front end from (and commits it to) the memory-mapped trace store.
    """
    designs = resolve_designs(designs)
    scenario = point.scenario
    if config.num_cores < scenario.total_cores:
        raise ValueError(
            f"scenario {scenario.name!r} needs {scenario.total_cores} cores "
            f"but the machine has {config.num_cores}"
        )
    # Layout-source designs whose measured block sizes we compose, and
    # dedup-measuring designs whose functional runs we weight.
    sources = [AVR]
    for design in designs:
        source = layout_source_design(design)
        if source not in sources:
            sources.append(source)
    dedup_designs = [d for d in designs if d.measures_dedup]

    plans = point.plans()
    workloads, references, spans = [], [], []
    source_layouts = {source: [] for source in sources}
    dedup_runs = {design: [] for design in dedup_designs}
    for plan in plans:
        ipoint = point.instance_point(plan)
        workload = ipoint.make()
        reference = functional_for(ipoint, BASELINE)
        workloads.append(workload)
        references.append(reference)
        for source in sources:
            run = functional_for(ipoint, source)
            source_layouts[source].append(_build_layout(workload, run))
        spans.append(reference.memory.address_span)
        for design in dedup_designs:
            dedup_runs[design].append(functional_for(ipoint, design))

    offsets = assign_offsets(spans)
    layouts = DesignMap(
        (source, compose_layouts(per_instance, offsets))
        for source, per_instance in source_layouts.items()
    )
    footprints = [ref.memory.footprint_bytes for ref in references]
    scale_factors = []
    for plan, workload, reference in zip(plans, workloads, references):
        spec = workload.trace_spec()
        iters = budget_iterations(
            spec,
            reference.memory,
            plan.entry.cores,
            point.max_accesses_per_core,
        )
        scale_factors.append(spec.iterations / iters if iters else 1.0)

    dedup_factors = DesignMap((design, 1.0) for design in designs)
    for design in dedup_designs:
        # One machine-wide capacity multiplier: the per-instance
        # measured dedup factors, weighted by how much approximable
        # data each instance contributes to the shared LLC.
        runs = dedup_runs[design]
        weights = [run.memory.approx_bytes for run in runs]
        total = sum(weights)
        if total:
            dedup_factors[design] = (
                sum(
                    run.memory.dedup_factor() * w
                    for run, w in zip(runs, weights)
                )
                / total
            )

    return ScenarioContext(
        point=point,
        config=config,
        plans=plans,
        workloads=workloads,
        references=references,
        offsets=offsets,
        layouts=layouts,
        footprint_bytes=sum(footprints),
        instance_footprints=footprints,
        scale_factors=scale_factors,
        dedup_factors=dedup_factors,
        store=store,
    )


def scenario_timing_key(
    point: ScenarioPoint,
    design: DesignSpec,
    config: SystemConfig,
    active: tuple[int, ...],
) -> str:
    """Cache key of one subset replay: the scenario-qualified identity.

    Deliberate exclusion: the scenario's cosmetic ``name`` — the
    registry mix ``heat+lbm`` and the equivalent mix string
    ``heat@4+lbm@4`` describe the same run and must share entries, so
    the key covers only the content (entries, placement, seed, budget,
    thresholds).
    """
    from dataclasses import replace

    identity = replace(point, scenario=replace(point.scenario, name=""))
    return content_key(
        "scenario-timing", MODEL_VERSION, identity, design, config, active
    )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def _completion_stretch(sim: SimResult) -> float:
    """Bandwidth-bound stretch factor of one replay.

    ``SimResult.cycles`` is ``max(latency bound, bandwidth bound)``;
    when the bandwidth bound wins, every core's completion stretches
    proportionally so per-core comparisons still reflect the
    DRAM-saturation effect.
    """
    peak = max(sim.core_cycles, default=0.0)
    return sim.cycles / peak if peak else 1.0


@dataclass
class InstanceContention:
    """What co-running cost one workload instance."""

    index: int
    workload: str
    cores: tuple[int, ...]
    scale_factor: float
    instructions: int
    solo_cycles: float
    corun_cycles: float
    #: per-core co-run/solo cycle ratio, aligned with ``cores``
    per_core_slowdown: tuple[float, ...]
    solo_llc_misses: float
    #: LLC misses the mix suffers because this instance is present
    #: (full mix minus the leave-one-out replay)
    pressure_llc_misses: float

    @property
    def slowdown(self) -> float:
        """Instance completion-time ratio, co-run vs solo (>= ~1)."""
        return self.corun_cycles / self.solo_cycles if self.solo_cycles else 1.0

    @property
    def speedup(self) -> float:
        """This instance's contribution to the weighted speedup."""
        slowdown = self.slowdown
        return 1.0 / slowdown if slowdown else 0.0

    @property
    def induced_llc_misses(self) -> float:
        """Misses this instance inflicts on its co-runners."""
        return self.pressure_llc_misses - self.solo_llc_misses


@dataclass
class ScenarioDesignRun:
    """One design point's contention outcome on one mix."""

    design: DesignSpec
    corun: SimResult
    instances: list[InstanceContention]

    @property
    def weighted_speedup(self) -> float:
        """``sum_i(solo_time_i / corun_time_i)`` — ideal = #instances."""
        return sum(inst.speedup for inst in self.instances)

    @property
    def llc_miss_inflation(self) -> float:
        """Co-run LLC misses / sum of solo misses (capacity contention)."""
        solo = sum(inst.solo_llc_misses for inst in self.instances)
        corun = float(self.corun.llc_stats.get("llc_misses", 0))
        return corun / solo if solo else 1.0


@dataclass
class ScenarioEvaluation:
    """Everything measured for one scenario across the compared designs."""

    scenario: Scenario
    point: ScenarioPoint
    num_cores: int
    footprint_bytes: int
    runs: DesignMap = field(default_factory=DesignMap)

    @property
    def name(self) -> str:
        return self.scenario.name

    def normalized_mix_time(self, design: DesignLike) -> float:
        """Mix completion time vs the baseline design's co-run.

        NaN when the evaluation did not include the baseline design
        (nothing to normalize against).
        """
        base_run = self.runs.get(BASELINE)
        if base_run is None:
            return float("nan")
        base = base_run.corun.cycles
        return self.runs[design].corun.cycles / base if base else 1.0


def assemble_scenario_evaluation(
    point: ScenarioPoint,
    context: ScenarioContext,
    designs: tuple[DesignSpec, ...],
    timing: dict[tuple[DesignSpec, tuple[int, ...]], SimResult],
) -> ScenarioEvaluation:
    """Fold subset replays into per-design contention metrics."""
    plans = context.plans
    full = tuple(range(len(plans)))
    evaluation = ScenarioEvaluation(
        scenario=point.scenario,
        point=point,
        num_cores=context.num_cores,
        footprint_bytes=context.footprint_bytes,
    )
    for design in designs:
        corun = timing[(design, full)]
        corun_stretch = _completion_stretch(corun)
        corun_misses = float(corun.llc_stats.get("llc_misses", 0))
        instances = []
        for plan, scale_factor in zip(plans, context.scale_factors):
            solo = timing.get((design, (plan.index,)), corun)
            solo_stretch = _completion_stretch(solo)
            per_core = tuple(
                (corun.core_cycles[c] * corun_stretch)
                / (solo.core_cycles[c] * solo_stretch)
                if solo.core_cycles[c]
                else 1.0
                for c in plan.cores
            )
            corun_completion = (
                max(corun.core_cycles[c] for c in plan.cores) * corun_stretch
            )
            solo_misses = float(solo.llc_stats.get("llc_misses", 0))
            if len(plans) == 1:
                pressure = corun_misses
            else:
                loo = timing[
                    (design, tuple(j for j in full if j != plan.index))
                ]
                pressure = corun_misses - float(
                    loo.llc_stats.get("llc_misses", 0)
                )
            instances.append(
                InstanceContention(
                    index=plan.index,
                    workload=plan.workload,
                    cores=plan.cores,
                    scale_factor=scale_factor,
                    instructions=solo.instructions,
                    solo_cycles=solo.cycles,
                    corun_cycles=corun_completion,
                    per_core_slowdown=per_core,
                    solo_llc_misses=solo_misses,
                    pressure_llc_misses=pressure,
                )
            )
        evaluation.runs[design] = ScenarioDesignRun(
            design=design, corun=corun, instances=instances
        )
    return evaluation


# ----------------------------------------------------------------------
# Benchmark entry point
# ----------------------------------------------------------------------
def scenario_timing_context(
    scenario: Scenario | str,
    config: SystemConfig | None = None,
    seed: int = 0,
    max_accesses_per_core: int = 50_000,
) -> tuple[SystemConfig, AddressLayout, GeneratedTrace, int]:
    """Composed (config, layout, trace, footprint) of a mix's full co-run.

    The scenario analogue of ``bench_timing.build_context``: runs the
    functional layer serially in-process and returns everything a
    timing replay of the complete mix needs — used by the benchmarks'
    ``--scenario`` modes and the CI scenario smoke job.
    """
    from .sweep import run_functional_job

    scenario = get_scenario(scenario)
    config = config or SystemConfig.scaled(num_cores=scenario.total_cores)
    point = ScenarioPoint(
        scenario=scenario, seed=seed, max_accesses_per_core=max_accesses_per_core
    )
    cache: dict = {}

    def functional_for(ipoint: SweepPoint, design: DesignSpec) -> WorkloadResult:
        key = (ipoint, design)
        if key not in cache:
            reference = (
                None if design == BASELINE else functional_for(ipoint, BASELINE)
            )
            cache[key] = run_functional_job(ipoint, design, reference)
        return cache[key]

    context = build_scenario_context(
        point, config, functional_for, designs=(BASELINE, AVR)
    )
    return config, context.layout, context.trace(), context.footprint_bytes
