"""Scenario subsystem: multi-programmed workload mixes.

* :mod:`repro.scenario.spec` — the :class:`Scenario` abstraction
  (entries, placement, mix-string parsing, named registry).
* :mod:`repro.scenario.compose` — composition of per-instance layouts
  and traces into one machine-wide view (disjoint base offsets,
  instruction-count balancing, instance seed spawning).

Mixes are evaluated like workloads: name them in an
:class:`~repro.experiment.ExperimentSpec`'s ``scenarios`` (``repro
experiment --scenarios heat+lbm``) or a
:class:`~repro.harness.sweep.SweepSpec`'s; the contention experiment
itself lives in :mod:`repro.harness.scenario`.
"""

from .compose import (
    OFFSET_ALIGN,
    InstancePlan,
    assign_offsets,
    compose_layouts,
    compose_traces,
    instance_seeds,
    plan_instances,
)
from .spec import (
    PLACEMENTS,
    Scenario,
    ScenarioEntry,
    get_scenario,
    named_scenarios,
    parse_mix,
)

__all__ = [
    "InstancePlan",
    "OFFSET_ALIGN",
    "PLACEMENTS",
    "Scenario",
    "ScenarioEntry",
    "assign_offsets",
    "compose_layouts",
    "compose_traces",
    "get_scenario",
    "instance_seeds",
    "named_scenarios",
    "parse_mix",
    "plan_instances",
]
