"""Experiment harness: regenerates every table and figure.

The heavy lifting happens in the sweep engine
(:mod:`repro.harness.sweep`): a :class:`SweepSpec` enumerates the
evaluation grid as independent job units, :func:`run_sweep` executes
them serially or over a process pool, and
:class:`~repro.harness.cache.ResultCache` memoizes job results on disk.
:func:`evaluate_all` / :func:`evaluate_workload` /
:func:`regenerate_all` are convenience entry points layered on top —
as is the declarative facade :func:`repro.experiment.run_experiment`,
which decomposes an :class:`~repro.experiment.ExperimentSpec` into the
same job units (and therefore the same cache entries).  Designs are
resolved through the open registry (:mod:`repro.designs`) everywhere.
"""

from .ablations import (
    COMPRESSOR_ABLATIONS,
    LLC_ABLATIONS,
    run_compressor_ablations,
    run_llc_ablations,
)
from .cache import CacheStats, ResultCache, content_key
from .experiments import (
    EVICTION_CATEGORIES,
    GEOMEAN,
    REQUEST_CATEGORIES,
    regenerate_all,
    fig09_execution_time,
    fig10_energy,
    fig11_memory_traffic,
    fig12_amat,
    fig13_mpki,
    fig14_llc_requests,
    fig15_llc_evictions,
    hardware_overheads,
    table3_output_error,
    table4_compression,
)
from .report import (
    evaluation_to_mapping,
    experiment_result_to_mapping,
    format_stacked,
    format_table,
    scenario_evaluation_to_mapping,
    sim_result_to_mapping,
    sweep_stats_to_mapping,
    transpose,
)
from .runner import (
    ALL_DESIGNS,
    DesignRun,
    WorkloadEvaluation,
    evaluate_all,
    evaluate_workload,
)
from .scenario import (
    SCENARIO_DESIGNS,
    InstanceContention,
    ScenarioDesignRun,
    ScenarioEvaluation,
    ScenarioPoint,
    evaluate_scenario,
    scenario_timing_context,
)
from .sweep import (
    SweepPoint,
    SweepResult,
    SweepSpec,
    SweepStats,
    run_functional_job,
    run_sweep,
    run_timing_job,
)

__all__ = [
    "ALL_DESIGNS",
    "CacheStats",
    "COMPRESSOR_ABLATIONS",
    "InstanceContention",
    "LLC_ABLATIONS",
    "ResultCache",
    "SCENARIO_DESIGNS",
    "ScenarioDesignRun",
    "ScenarioEvaluation",
    "ScenarioPoint",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "SweepStats",
    "content_key",
    "regenerate_all",
    "run_compressor_ablations",
    "run_functional_job",
    "run_llc_ablations",
    "run_sweep",
    "run_timing_job",
    "DesignRun",
    "EVICTION_CATEGORIES",
    "GEOMEAN",
    "REQUEST_CATEGORIES",
    "WorkloadEvaluation",
    "evaluate_all",
    "evaluate_scenario",
    "evaluate_workload",
    "scenario_timing_context",
    "fig09_execution_time",
    "fig10_energy",
    "fig11_memory_traffic",
    "fig12_amat",
    "fig13_mpki",
    "fig14_llc_requests",
    "fig15_llc_evictions",
    "evaluation_to_mapping",
    "experiment_result_to_mapping",
    "format_stacked",
    "format_table",
    "hardware_overheads",
    "scenario_evaluation_to_mapping",
    "sim_result_to_mapping",
    "sweep_stats_to_mapping",
    "table3_output_error",
    "table4_compression",
    "transpose",
]
