"""End-to-end evaluation runner: functional layer + timing layer.

For one workload, :func:`evaluate_workload` runs the functional
simulation under every design (output error, compression ratios, dedup
factors, iteration counts), builds the timing layer's address layout
from the measured per-block sizes, replays the workload's synthetic
trace through each design's timing system, and bundles everything the
tables and figures need.

Execution is delegated to the sweep engine
(:mod:`repro.harness.sweep`), which decomposes each workload into
independent functional and timing *job units* that can run serially
in-process, fan out over a process pool, or be served from the on-disk
result cache — all three paths produce bit-identical
:class:`WorkloadEvaluation` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TYPE_CHECKING

import numpy as np

from ..common.config import SystemConfig
from ..common.constants import BLOCK_CACHELINES
from ..designs import BASELINE, COMPARED, DesignMap, DesignSpec
from ..system.layout import AddressLayout
from ..system.simulator import SimResult
from ..workloads.base import Workload, WorkloadResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..common.types import ErrorThresholds
    from ..designs import DesignLike
    from ..trace.store import TraceStore

#: design points evaluated by default (baseline + the four compared)
ALL_DESIGNS = (BASELINE,) + COMPARED


@dataclass
class DesignRun:
    """One design point's functional + timing outcome on one workload."""

    design: DesignSpec
    output_error: float
    iterations: int
    compression_ratio: float
    dedup_factor: float
    timing: SimResult


@dataclass
class WorkloadEvaluation:
    """Everything measured for one workload across all designs.

    ``runs`` is a :class:`~repro.designs.DesignMap`: keyed by
    :class:`~repro.designs.DesignSpec`, with lookups also accepting
    registry names and legacy ``Design`` enum members.
    """

    name: str
    baseline_iterations: int
    footprint_bytes: int
    timing_approx_bytes: int
    avr_compression_ratio: float
    runs: DesignMap = field(default_factory=DesignMap)

    @property
    def approx_fraction(self) -> float:
        if not self.footprint_bytes:
            return 0.0
        return min(1.0, self.timing_approx_bytes / self.footprint_bytes)

    @property
    def footprint_vs_baseline(self) -> float:
        """Table 4 row 2: stored data volume / baseline volume."""
        frac = self.approx_fraction
        ratio = max(self.avr_compression_ratio, 1e-9)
        return (1.0 - frac) + frac / ratio

    def baseline(self) -> DesignRun:
        return self.runs[BASELINE]

    def normalized(self, design: DesignLike, metric: str) -> float:
        """Design metric / baseline metric (iteration-count adjusted)."""
        run, base = self.runs[design], self.baseline()
        if metric == "time":
            return run.timing.adjusted_cycles / base.timing.cycles
        if metric == "energy":
            return run.timing.adjusted_energy_total / base.timing.energy.total
        if metric == "traffic":
            return run.timing.adjusted_bytes / base.timing.total_bytes
        if metric == "amat":
            return run.timing.amat_cycles / base.timing.amat_cycles
        if metric == "mpki":
            return run.timing.llc_mpki / base.timing.llc_mpki
        raise ValueError(f"unknown metric {metric!r}")


def _build_layout(workload: Workload, avr_run: WorkloadResult) -> AddressLayout:
    """Timing-layer approximable ranges with measured block sizes.

    Regions the architecture treats as approximable but that were not
    functionally round-tripped (the LBM distribution arrays) get a
    proxy size: the mean measured compressed size of the regions that
    were (see ``Workload.timing_approx_regions``).
    """
    mem = avr_run.memory
    names = workload.timing_approx_regions
    if names is None:
        names = tuple(n for n, r in mem.regions.items() if r.approx)

    if workload.timing_proxy_ratio is not None:
        proxy = max(1, int(round(BLOCK_CACHELINES / workload.timing_proxy_ratio)))
    else:
        measured = [
            mem.regions[n].block_sizes
            for n in names
            if mem.regions[n].block_sizes is not None
        ]
        proxy = (
            int(round(float(np.concatenate(measured).mean())))
            if measured
            else BLOCK_CACHELINES
        )
    layout = AddressLayout()
    for name in names:
        region = mem.regions[name]
        sizes = region.block_sizes if region.block_sizes is not None else proxy
        layout.add_region(region.base_addr, region.nbytes, sizes)
    return layout


def evaluate_workload(
    name: str,
    config: SystemConfig | None = None,
    scale: float = 1.0,
    seed: int = 0,
    designs: tuple[DesignSpec, ...] = ALL_DESIGNS,
    max_accesses_per_core: int = 50_000,
    thresholds: ErrorThresholds | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    trace_store: TraceStore | str | Path | bool | None = None,
    **workload_kwargs: Any,
) -> WorkloadEvaluation:
    """Run one workload through the functional and timing layers.

    A convenience wrapper around :func:`repro.harness.sweep.run_sweep`
    for a single-point grid.  ``jobs`` parallelizes across this
    workload's designs; ``cache_dir`` reuses previously computed job
    results (see :mod:`repro.harness.cache`); ``trace_store`` selects the memory-mapped trace store (default:
    ``<cache_dir>/traces`` when caching).
    """
    from .sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        workloads=(name,),
        designs=designs,
        config=config,
        scales=(scale,),
        seeds=(seed,),
        thresholds=(thresholds,),
        max_accesses_per_core=max_accesses_per_core,
        workload_kwargs=tuple(sorted(workload_kwargs.items())),
    )
    return run_sweep(
        spec, jobs=jobs, cache_dir=cache_dir, trace_store=trace_store
    ).by_workload()[name]


def evaluate_all(
    names: tuple[str, ...] | None = None,
    config: SystemConfig | None = None,
    scale: float = 1.0,
    seed: int = 0,
    designs: tuple[DesignSpec, ...] = ALL_DESIGNS,
    max_accesses_per_core: int = 50_000,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    trace_store: TraceStore | str | Path | bool | None = None,
) -> dict[str, WorkloadEvaluation]:
    """Evaluate every workload (paper order).

    Built on the sweep engine: ``jobs`` fans the grid's functional and
    timing job units out over a process pool (``1`` keeps the fully
    serial, in-process path), ``cache_dir`` enables the on-disk result
    cache so repeated evaluations skip completed points, and
    ``trace_store`` selects the memory-mapped trace store (default:
    ``<cache_dir>/traces`` when caching).
    """
    from ..workloads import WORKLOADS
    from .sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        workloads=names or tuple(WORKLOADS),
        designs=designs,
        config=config,
        scales=(scale,),
        seeds=(seed,),
        max_accesses_per_core=max_accesses_per_core,
    )
    return run_sweep(
        spec, jobs=jobs, cache_dir=cache_dir, trace_store=trace_store
    ).by_workload()
