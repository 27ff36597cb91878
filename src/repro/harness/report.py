"""Plain-text rendering of the tables and figure series.

The paper's figures are bar charts; the harness prints the underlying
series as aligned tables (one column per workload), which is what a
reproduction compares against.

This module also hosts the JSON-able serializers (``*_to_mapping``)
that turn evaluation objects into plain dicts of str/int/float/list —
what ``repro experiment --json`` prints and
what the ``repro serve`` daemon streams in its ``result`` events.  The
mappings are deterministic: identical evaluation objects serialize to
identical JSON, so a daemon result can be compared bit-for-bit against
a one-shot run.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Mapping

from ..designs import BASELINE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..system.simulator import SimResult
    from .runner import DesignRun, WorkloadEvaluation
    from .scenario import (
        InstanceContention,
        ScenarioDesignRun,
        ScenarioEvaluation,
        ScenarioPoint,
    )
    from .sweep import SweepPoint, SweepStats


def format_table(
    title: str,
    rows: Mapping[str, Mapping[str, float]],
    fmt: str = "{:.2f}",
    col_order: list[str] | None = None,
) -> str:
    """Render ``rows[row_label][col_label] = value`` as aligned text."""
    columns = col_order or sorted({c for r in rows.values() for c in r})
    widths = [max(len(c), 8) for c in columns]
    label_w = max([len(r) for r in rows] + [10])

    lines = [title, "=" * len(title)]
    header = " " * label_w + "  " + "  ".join(
        c.rjust(w) for c, w in zip(columns, widths)
    )
    lines.append(header)
    for label, row in rows.items():
        cells = []
        for c, w in zip(columns, widths):
            cells.append(
                fmt.format(row[c]).rjust(w) if c in row else "-".rjust(w)
            )
        lines.append(label.ljust(label_w) + "  " + "  ".join(cells))
    return "\n".join(lines)


def format_stacked(
    title: str,
    data: Mapping[str, Mapping[str, Mapping[str, float]]],
    fmt: str = "{:.3f}",
) -> str:
    """Render nested ``data[workload][design][part]`` tables."""
    blocks = [title, "=" * len(title)]
    for workload, designs in data.items():
        parts = sorted({p for d in designs.values() for p in d})
        blocks.append(f"\n[{workload}]")
        header = " " * 12 + "  ".join(p.rjust(12) for p in parts + ["total"])
        blocks.append(header)
        for design, values in designs.items():
            cells = [fmt.format(values.get(p, 0.0)).rjust(12) for p in parts]
            cells.append(fmt.format(sum(values.values())).rjust(12))
            blocks.append(design.ljust(12) + "  ".join(cells))
    return "\n".join(blocks)


def transpose(
    rows: Mapping[str, Mapping[str, float]]
) -> dict[str, dict[str, float]]:
    """Swap row/column orientation of a 2-level table."""
    out: dict[str, dict[str, float]] = {}
    for r, cols in rows.items():
        for c, v in cols.items():
            out.setdefault(c, {})[r] = v
    return out


#: metrics ``WorkloadEvaluation.normalized`` understands, in print order
_NORMALIZED_METRICS = ("time", "energy", "traffic", "amat", "mpki")


def sim_result_to_mapping(result: "SimResult") -> dict[str, Any]:
    """One timing replay as a plain mapping (floats kept exact)."""
    return {
        "design": result.design.name,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "seconds": result.seconds,
        "amat_cycles": result.amat_cycles,
        "llc_mpki": result.llc_mpki,
        "dram_bytes_read": result.dram_bytes_read,
        "dram_bytes_written": result.dram_bytes_written,
        "approx_bytes": result.approx_bytes,
        "exact_bytes": result.exact_bytes,
        "llc_stats": {k: result.llc_stats[k] for k in sorted(result.llc_stats)},
        "dram_stats": {k: result.dram_stats[k] for k in sorted(result.dram_stats)},
        "energy_joules": {
            k: result.energy.joules[k] for k in sorted(result.energy.joules)
        },
        "core_cycles": list(result.core_cycles),
        "scale_factor": result.scale_factor,
        "iteration_factor": result.iteration_factor,
    }


def design_run_to_mapping(run: "DesignRun") -> dict[str, Any]:
    """One design point's functional + timing outcome as a mapping."""
    return {
        "design": run.design.name,
        "output_error": run.output_error,
        "iterations": run.iterations,
        "compression_ratio": run.compression_ratio,
        "dedup_factor": run.dedup_factor,
        "timing": sim_result_to_mapping(run.timing),
    }


def evaluation_to_mapping(ev: "WorkloadEvaluation") -> dict[str, Any]:
    """A :class:`WorkloadEvaluation` as a mapping.

    ``normalized`` carries the design/baseline metric ratios the
    figures plot; it is present only when the evaluation includes the
    baseline design (nothing to normalize against otherwise).
    """
    out: dict[str, Any] = {
        "name": ev.name,
        "baseline_iterations": ev.baseline_iterations,
        "footprint_bytes": ev.footprint_bytes,
        "timing_approx_bytes": ev.timing_approx_bytes,
        "avr_compression_ratio": ev.avr_compression_ratio,
        "approx_fraction": ev.approx_fraction,
        "footprint_vs_baseline": ev.footprint_vs_baseline,
        "runs": {
            design.name: design_run_to_mapping(run)
            for design, run in ev.runs.items()
        },
    }
    if BASELINE in ev.runs:
        out["normalized"] = {
            design.name: {
                metric: ev.normalized(design, metric)
                for metric in _NORMALIZED_METRICS
            }
            for design in ev.runs
            if design != BASELINE
        }
    return out


def instance_contention_to_mapping(inst: "InstanceContention") -> dict[str, Any]:
    """One co-running instance's contention outcome as a mapping."""
    return {
        "index": inst.index,
        "workload": inst.workload,
        "cores": list(inst.cores),
        "scale_factor": inst.scale_factor,
        "instructions": inst.instructions,
        "solo_cycles": inst.solo_cycles,
        "corun_cycles": inst.corun_cycles,
        "per_core_slowdown": list(inst.per_core_slowdown),
        "solo_llc_misses": inst.solo_llc_misses,
        "pressure_llc_misses": inst.pressure_llc_misses,
        "slowdown": inst.slowdown,
        "induced_llc_misses": inst.induced_llc_misses,
    }


def scenario_run_to_mapping(run: "ScenarioDesignRun") -> dict[str, Any]:
    """One design's scenario contention outcome as a mapping."""
    return {
        "design": run.design.name,
        "weighted_speedup": run.weighted_speedup,
        "llc_miss_inflation": run.llc_miss_inflation,
        "corun": sim_result_to_mapping(run.corun),
        "instances": [
            instance_contention_to_mapping(inst) for inst in run.instances
        ],
    }


def scenario_evaluation_to_mapping(sev: "ScenarioEvaluation") -> dict[str, Any]:
    """A :class:`ScenarioEvaluation` as a mapping."""
    out: dict[str, Any] = {
        "name": sev.name,
        "mix": sev.scenario.mix_string(),
        "num_instances": sev.scenario.num_instances,
        "num_cores": sev.num_cores,
        "footprint_bytes": sev.footprint_bytes,
        "seed": sev.point.seed,
        "runs": {
            design.name: scenario_run_to_mapping(run)
            for design, run in sev.runs.items()
        },
    }
    if BASELINE in sev.runs:
        out["normalized_mix_time"] = {
            design.name: sev.normalized_mix_time(design)
            for design in sev.runs
            if design != BASELINE
        }
    return out


def sweep_point_to_mapping(point: "SweepPoint") -> dict[str, Any]:
    """A sweep grid point's identity as a mapping."""
    out: dict[str, Any] = {
        "workload": point.workload,
        "scale": point.scale,
        "seed": point.seed,
        "max_accesses_per_core": point.max_accesses_per_core,
    }
    if point.thresholds is not None:
        out["thresholds"] = dataclasses.asdict(point.thresholds)
    if point.workload_kwargs:
        out["workload_kwargs"] = [list(pair) for pair in point.workload_kwargs]
    return out


def scenario_point_to_mapping(point: "ScenarioPoint") -> dict[str, Any]:
    """A scenario grid point's identity as a mapping."""
    out: dict[str, Any] = {
        "scenario": point.scenario.name,
        "mix": point.scenario.mix_string(),
        "seed": point.seed,
        "max_accesses_per_core": point.max_accesses_per_core,
    }
    if point.thresholds is not None:
        out["thresholds"] = dataclasses.asdict(point.thresholds)
    return out


def sweep_stats_to_mapping(stats: "SweepStats") -> dict[str, Any]:
    """Sweep execution accounting as a mapping (plus ``executed``)."""
    out = dataclasses.asdict(stats)
    out["executed"] = stats.executed
    return out


def experiment_result_to_mapping(result: Any) -> dict[str, Any]:
    """A finished :class:`~repro.experiment.ExperimentResult` as a mapping.

    ``stats`` is a separate top-level key so clients comparing two runs
    for *result* identity (e.g. daemon vs one-shot, cold vs warm) can
    pop it first — execution accounting legitimately differs between a
    cold and a warm run even though every evaluation is bit-identical.
    """
    return {
        "experiment": result.spec.name,
        "spec_hash": result.spec.content_hash(),
        "evaluations": [
            {"point": sweep_point_to_mapping(point), **evaluation_to_mapping(ev)}
            for point, ev in result.evaluations.items()
        ],
        "scenario_evaluations": [
            {
                "point": scenario_point_to_mapping(point),
                **scenario_evaluation_to_mapping(sev),
            }
            for point, sev in result.scenario_evaluations.items()
        ],
        "stats": sweep_stats_to_mapping(result.stats),
    }
