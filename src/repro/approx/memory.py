"""Approximable-memory registry: the software-visible side of AVR.

Workloads allocate their data structures through :class:`ApproxMemory`,
marking some regions approximable (the paper's annotated ``malloc``
wrapper + OS page marking).  At *sync points* — the moments data would
stream through the memory hierarchy — the registry round-trips every
approximable region through the active design's approximator and
accumulates compression statistics.

The approximation reaches the program only through the values it reads
back.  A region the kernel overwrites in full before every sync, and
reads only for its final output, is declared ``write_only``: its syncs
are counted, but the round trip is applied once, by :meth:`settle`, to
the last-written contents.  The result is the one an approximation at
every sync would leave, since each of those is overwritten unread.

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
    thresholds: ErrorThresholds | None,
    dganger_threshold: float,
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
        return AVRApproximator(thresholds)
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
    #: round trips of the region; only approximable regions count them
    syncs: int = 0
    last: SyncStats = field(default_factory=SyncStats)

    @property
    def compression_ratio(self) -> float:
        return self.last.compression_ratio if self.syncs else 1.0


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
        #: write-only regions synced since the last :meth:`settle`
        self._pending: dict[str, None] = {}

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
        write_only: bool = False,
    ) -> np.ndarray:
        """Allocate a named region; returns the backing numpy array.

        ``write_only`` declares that the kernel overwrites the whole
        region before every sync and reads it only after
        :meth:`settle`.  Its syncs then defer the approximation to
        ``settle``.  A wrong declaration changes results: a kernel that
        reads the region between syncs would see exact values where
        every sync should have approximated them.
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
            write_only=write_only,
        )
        self._next_addr += padded_pages(array.nbytes)
        self.regions[name] = region
        self.reports[name] = RegionReport(name=name, nbytes=array.nbytes)
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
        main memory (typically once per outer iteration).  Every
        approximable region in ``names`` (default: all) counts one
        round trip.  A ``write_only`` region is approximated later, by
        :meth:`settle`; every other one is approximated now.
        """
        targets = names if names is not None else list(self.regions)
        for name in targets:
            region = self.regions[name]
            if not region.approx:
                continue
            report = self.reports[name]
            report.syncs += 1
            if region.write_only:
                self._pending[name] = None
            else:
                report.last = self.approximator.apply(region)
        self.sync_count += 1

    def settle(self) -> None:
        """Approximate the write-only regions synced since the last call.

        Kernels call it before they read a write-only region for their
        output; :meth:`repro.workloads.base.Workload.run` calls it
        after ``execute``.  Each pending region is round-tripped once,
        in its last-written state.
        """
        for name in self._pending:
            self.reports[name].last = self.approximator.apply(self.regions[name])
        self._pending.clear()

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
        for report in self.reports.values():
            if report.syncs == 0:
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
        factors = [r.last.dedup_factor for r in self.reports.values() if r.syncs]
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
