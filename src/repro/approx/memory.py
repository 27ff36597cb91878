"""Approximable-memory registry: the software-visible side of AVR.

Workloads allocate their data structures through :class:`ApproxMemory`,
marking some regions approximable (the paper's annotated ``malloc``
wrapper + OS page marking).  At *sync points* — the moments data would
stream through the memory hierarchy — the registry round-trips every
approximable region through the active design's approximator and
accumulates compression statistics.

The registry also lays regions out in a simulated physical address
space (page-aligned, gap between regions) so the trace generator and
the timing simulator agree on which addresses are approximable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..common.constants import BLOCK_CACHELINES
from ..common.types import DataType, ErrorThresholds
from .approximators import (
    Approximator,
    AVRApproximator,
    DoppelgangerApproximator,
    ExactApproximator,
    SyncStats,
    TruncateApproximator,
)
from .region import Region, padded_pages

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..designs import DesignLike


def approximator_for(
    design: "DesignLike",
    thresholds: ErrorThresholds | None = None,
    check_mode: str = "hybrid",
    dganger_threshold: float = 0.02,
) -> Approximator:
    """The approximation strategy a design applies to marked data.

    ``design`` is anything :func:`repro.designs.get_design` resolves
    (a spec or a registry name); the spec's ``approximator`` field
    selects the strategy, and its capacity/compression parameters
    configure it (a truncate-family design's functional value width
    follows its stored line width).
    """
    from ..designs import get_design

    spec = get_design(design)
    if spec.approximator == "exact":
        return ExactApproximator()
    if spec.approximator == "avr":
        return AVRApproximator(thresholds, check_mode)
    if spec.approximator == "truncate":
        return TruncateApproximator.for_line_bytes(spec.approx_line_bytes)
    if spec.approximator == "dganger":
        return DoppelgangerApproximator(dganger_threshold)
    raise ValueError(f"unknown approximator {spec.approximator!r}")


@dataclass
class RegionReport:
    """Aggregated compression statistics for one region."""

    name: str
    nbytes: int
    approx: bool
    syncs: int = 0
    last: SyncStats = field(default_factory=SyncStats)

    @property
    def compression_ratio(self) -> float:
        return self.last.compression_ratio if self.approx and self.syncs else 1.0


class ApproxMemory:
    """Allocation registry + approximation sync engine."""

    #: address where the first region is placed (skip a null page)
    BASE_ADDRESS = 0x1_0000

    def __init__(self, approximator: Approximator | None = None) -> None:
        self.approximator = approximator or ExactApproximator()
        self.regions: dict[str, Region] = {}
        self.reports: dict[str, RegionReport] = {}
        self._next_addr = self.BASE_ADDRESS
        self.sync_count = 0

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        approx: bool = True,
        dtype: DataType = DataType.FLOAT32,
        init: np.ndarray | None = None,
        thresholds: ErrorThresholds | None = None,
    ) -> np.ndarray:
        """Allocate a named region; returns the backing numpy array.

        ``thresholds`` sets a per-region error knob (the paper's §3.1
        extension); None inherits the program-wide setting.
        """
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        np_dtype = np.float32 if dtype == DataType.FLOAT32 else np.int32
        array = np.zeros(shape, dtype=np_dtype)
        if init is not None:
            array[...] = init
        region = Region(
            name=name,
            base_addr=self._next_addr,
            array=array,
            approx=approx,
            dtype=dtype,
            thresholds=thresholds,
        )
        self._next_addr += padded_pages(array.nbytes)
        self.regions[name] = region
        self.reports[name] = RegionReport(name=name, nbytes=array.nbytes, approx=approx)
        return array

    def region(self, name: str) -> Region:
        return self.regions[name]

    def region_for_addr(self, addr: int) -> Region | None:
        for region in self.regions.values():
            if region.contains(addr):
                return region
        return None

    # ------------------------------------------------------------------
    # synchronization (the approximation point)
    # ------------------------------------------------------------------
    def sync(self, names: list[str] | None = None) -> None:
        """Round-trip approximable regions through the active design.

        Called by workloads wherever their data would stream through
        main memory (typically once per outer iteration).
        """
        targets = names if names is not None else list(self.regions)
        for name in targets:
            region = self.regions[name]
            if not region.approx:
                continue
            stats = self.approximator.apply(region)
            report = self.reports[name]
            report.syncs += 1
            report.last = stats
        self.sync_count += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def footprint_bytes(self) -> int:
        return sum(r.nbytes for r in self.regions.values())

    @property
    def address_span(self) -> int:
        """Extent of the simulated address space this memory occupies.

        The first address past the last allocation (page-padded).  The
        scenario composer sizes per-instance base offsets from this so
        co-running instances' address spaces never overlap.
        """
        return self._next_addr

    @property
    def approx_bytes(self) -> int:
        return sum(r.nbytes for r in self.regions.values() if r.approx)

    @property
    def approx_fraction(self) -> float:
        total = self.footprint_bytes
        return self.approx_bytes / total if total else 0.0

    def compression_ratio(self) -> float:
        """Aggregate ratio over approximable data (paper Table 4, row 1)."""
        blocks = stored = 0
        for name, report in self.reports.items():
            if not self.regions[name].approx or report.syncs == 0:
                continue
            blocks += report.last.blocks
            stored += report.last.stored_cachelines
        if stored == 0:
            return 1.0
        return blocks * BLOCK_CACHELINES / stored

    def footprint_vs_baseline(self) -> float:
        """Total stored bytes / baseline bytes (paper Table 4, row 2).

        AVR does not reclaim capacity (blocks keep their 1 KB slots),
        but the paper reports the *data volume* footprint: compressed
        approximable data + exact data.
        """
        total = self.footprint_bytes
        if total == 0:
            return 1.0
        exact = total - self.approx_bytes
        ratio = self.compression_ratio()
        return (exact + self.approx_bytes / ratio) / total

    def dedup_factor(self) -> float:
        """Capacity multiplier measured by dedup designs (Doppelgänger)."""
        factors = [
            self.reports[n].last.dedup_factor
            for n, r in self.regions.items()
            if r.approx and self.reports[n].syncs
        ]
        return float(np.mean(factors)) if factors else 1.0

    def block_size_map(self) -> dict[int, np.ndarray]:
        """Per-region compressed block sizes keyed by region base address.

        The timing simulator uses this to know how many cachelines each
        1 KB block costs to fetch/write, without invoking the
        compressor on every simulated eviction.
        """
        out: dict[int, np.ndarray] = {}
        for region in self.regions.values():
            if region.approx and region.block_sizes is not None:
                out[region.base_addr] = region.block_sizes
        return out
