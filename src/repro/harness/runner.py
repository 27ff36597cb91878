"""Per-workload evaluation results: functional layer + timing layer.

A :class:`WorkloadEvaluation` bundles, for one workload grid point,
every design's functional outcome (output error, compression ratio,
dedup factor, iteration count) and timing replay — everything the
tables and figures need.  The sweep engine
(:func:`repro.harness.sweep.run_sweep`) builds them; serial, parallel
and cache-served runs produce bit-identical evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..common.constants import BLOCK_CACHELINES
from ..designs import BASELINE, DesignMap, DesignSpec
from ..system.layout import AddressLayout
from ..system.simulator import SimResult
from ..workloads.base import Workload, WorkloadResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..designs import DesignLike


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
    registry names.
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
