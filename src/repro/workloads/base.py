"""Workload abstraction shared by the seven evaluation applications.

A workload owns two views of itself:

* a *functional* view — :meth:`Workload.allocate` +
  :meth:`Workload.execute` run the real computation on numpy arrays
  registered with an :class:`~repro.approx.ApproxMemory`, calling
  ``mem.sync()`` wherever data streams through main memory, and
  :meth:`Workload.output` reads the result from the settled regions.
  This view produces the output error (Table 3) and compression ratios
  (Table 4).
* a *timing* view — :meth:`Workload.trace_spec` describes the memory
  access pattern (which regions are swept, how often, with how much
  compute in between) that the trace generator turns into the address
  stream replayed by the timing simulator (Figures 9-15).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..approx.approximators import Approximator
from ..approx.memory import ApproxMemory, approximator_for
from ..common.types import ErrorThresholds
from ..compression.errors import mean_relative_error

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..designs import DesignLike, DesignSpec


@dataclass(frozen=True)
class Phase:
    """One sweep over (part of) a region inside the workload's main loop."""

    region: str
    reads: bool = True
    writes: bool = False
    #: fraction of the region touched by this phase per iteration
    fraction: float = 1.0
    #: bytes between consecutive accesses (64 = one access per cacheline)
    stride: int = 64
    #: non-memory instructions executed between accesses (compute density)
    gap: int = 20
    #: times the sweep repeats within one iteration
    repeats: int = 1
    #: when True, iteration i sweeps the i-th successive window of the
    #: region (``fraction`` of it) instead of restarting from the base —
    #: the streaming-log pattern (e.g. orbit's history arrays)
    rolling: bool = False

    # ------------------------------------------------------------------
    # sweep geometry
    # ------------------------------------------------------------------
    # The single source of truth for how many addresses this phase
    # emits: the trace generator (both the vectorized and the reference
    # implementation) and the access-budget accounting all derive their
    # counts from these helpers, which is what keeps
    # ``budget_iterations`` exactly equal to the generated stream.

    @property
    def accesses_per_line(self) -> int:
        """Accesses emitted per swept cacheline (2 for read-modify-write)."""
        return (1 if self.reads else 0) + (1 if self.writes else 0)

    def span_bytes(self, nbytes: int, iterations: int) -> int:
        """Bytes one iteration of this phase sweeps (per full region).

        Rolling phases advance through successive ``nbytes /
        iterations`` windows; fixed phases sweep ``fraction`` of the
        region from its base every iteration.
        """
        if self.rolling:
            return nbytes // max(iterations, 1)
        return int(nbytes * self.fraction)

    def slice_span(self, nbytes: int, iterations: int, num_cores: int) -> int:
        """Bytes of one core's domain-decomposition slice of the sweep."""
        return self.span_bytes(nbytes, iterations) // max(num_cores, 1)

    def lines_per_core(self, nbytes: int, iterations: int, num_cores: int) -> int:
        """Cacheline addresses one core emits per iteration.

        Includes ``repeats`` but not the read-modify-write doubling
        (see :attr:`accesses_per_line`).  A slice narrower than the
        stride emits nothing — the sweep cannot place a single strided
        access inside it.
        """
        span = self.slice_span(nbytes, iterations, num_cores)
        if span < self.stride:
            return 0
        return -(-span // self.stride) * self.repeats


@dataclass(frozen=True)
class TraceSpec:
    """Access-pattern description consumed by the trace generator."""

    iterations: int
    phases: tuple[Phase, ...]


@dataclass
class WorkloadResult:
    """Outcome of one functional run."""

    output: np.ndarray
    memory: ApproxMemory
    iterations: int


class Workload(abc.ABC):
    """Base class for the seven paper applications.

    A subclass supplies :meth:`allocate`, :meth:`execute` (the kernel,
    returning its iteration count), :meth:`output` (the result, read
    from the settled regions) and :meth:`trace_spec`.  :meth:`run`
    drives one functional run and is the only caller of
    ``mem.settle()``.  :meth:`derive` rebuilds a run from the baseline
    run where the design approximates only write-only data
    (:meth:`derivable`).
    """

    #: short name used in tables/figures (matches the paper)
    name: str = "abstract"
    #: one-line description (Table 2)
    description: str = ""
    #: which data structures are approximated (Table 2, "Approx." column)
    approx_data: str = ""
    #: what the output is (Table 2, "Output" column)
    output_data: str = ""
    #: per-application error knob (paper §3.1: thresholds are a tunable
    #: knob; iterative kernels need tighter settings than single-pass
    #: ones to keep accumulated output error in the paper's range)
    default_thresholds: ErrorThresholds | None = None
    #: Doppelgänger similarity knob (bucket width / dataset value span)
    dganger_threshold: float = 0.001
    #: regions the *architecture* treats as approximable for footprint
    #: accounting and the timing layer.  Defaults to the functionally
    #: approximated regions; the LBM codes widen it (their distribution
    #: arrays are annotated approximable in the paper, but round-tripping
    #: them *functionally* is numerically meaningless — velocity is a
    #: small signal riding on f — so they are approximated in the timing
    #: view only, with compressibility proxied by the measured fields).
    timing_approx_regions: tuple[str, ...] | None = None
    #: compression ratio assumed for timing-approx regions that are not
    #: functionally measured (None = mean of the measured regions).
    #: The LBM codes pin this to the paper's reported ratio: their
    #: distribution-array compressibility depends on flow-feature scale
    #: that only the paper's full-size grids reach, so a ratio measured
    #: at simulable grid sizes would understate it.
    timing_proxy_ratio: float | None = None

    def __init__(self, scale: float = 1.0, seed: int = 0) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale
        self.seed = seed

    # ------------------------------------------------------------------
    # functional interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def allocate(self, mem: ApproxMemory) -> None:
        """Allocate and initialize all regions."""

    @abc.abstractmethod
    def execute(self, mem: ApproxMemory) -> int:
        """Run the computation; returns the iterations executed.

        Implementations call ``mem.sync()`` at every point their data
        would round-trip through main memory.  They never call
        ``mem.settle()`` and leave the output in the regions:
        :meth:`run` settles the memory and then reads it with
        :meth:`output`.
        """

    @abc.abstractmethod
    def output(self, mem: ApproxMemory) -> np.ndarray:
        """The run's output, read from ``mem``'s settled regions.

        A function of the final region contents alone, so a run whose
        final memory is known (:meth:`derive`) needs no kernel.
        """

    def approx_regions_for(self, design: "DesignSpec") -> tuple[str, ...] | None:
        """Regions the *functional* round-trip touches under ``design``
        (a resolved :class:`~repro.designs.DesignSpec`).

        ``None`` keeps the flags set at allocation time.  Workloads
        override this when a design's approximation applies to more
        data than is numerically meaningful for another design (e.g.
        Doppelgänger dedups the LBM distribution arrays — it has no
        per-value error control that would exempt them).
        """
        return None

    def run(
        self,
        design: "DesignLike" = "baseline",
        thresholds: ErrorThresholds | None = None,
    ) -> WorkloadResult:
        """Full functional run under one design point.

        ``design`` is anything :func:`repro.designs.get_design`
        resolves (a spec or a registry name).  ``thresholds`` defaults
        to the workload's per-application knob, and the design's
        ``thresholds_scale`` then scales the resolved thresholds (see
        :meth:`repro.designs.DesignSpec.resolve_thresholds`);
        Doppelgänger's similarity threshold is the workload's
        ``dganger_threshold``.

        The steps: allocate, mark (:meth:`approx_regions_for`),
        :meth:`execute`, ``mem.settle()``, :meth:`output`.  This is
        the one place a run settles its memory: the write-only regions
        are approximated here, once, in their final state.
        """
        from ..designs import get_design

        design = get_design(design)
        mem = ApproxMemory(self._approximator(design, thresholds))
        self.allocate(mem)
        marked = self.approx_regions_for(design)
        if marked is not None:
            for name, region in mem.regions.items():
                region.approx = name in marked
        iterations = self.execute(mem)
        mem.settle()
        return WorkloadResult(
            output=self.output(mem), memory=mem, iterations=iterations
        )

    def derivable(self, design: "DesignLike", reference: WorkloadResult) -> bool:
        """Whether :meth:`derive` can rebuild the run under ``design``.

        ``reference`` is this workload's run under the baseline design.
        The approximation reaches a kernel only through the values it
        reads back, and a ``write_only`` region is read only for the
        output.  So when ``design`` marks the regions the reference
        marked (:meth:`approx_regions_for`) and every marked region is
        write-only, the run under ``design`` computes the reference's
        trajectory, and only its final ``settle()`` differs.  Otherwise
        the design approximates data the kernel reads, and it needs its
        own run.
        """
        from ..designs import BASELINE, get_design

        regions = reference.memory.regions
        approx = {name for name, region in regions.items() if region.approx}
        marked = self.approx_regions_for(get_design(design))
        if marked is None:
            # Both keep the allocation's flags, unless the baseline
            # re-marked them.
            unchanged = self.approx_regions_for(BASELINE) is None
        else:
            unchanged = approx == set(marked) & regions.keys()
        return unchanged and all(regions[name].write_only for name in approx)

    def derive(
        self,
        design: "DesignLike",
        reference: WorkloadResult,
        thresholds: ErrorThresholds | None = None,
    ) -> WorkloadResult | None:
        """:meth:`run` under ``design`` from the baseline run, without the kernel.

        ``reference`` is this workload's run under the baseline design,
        and is left unchanged.  Where :meth:`derivable` holds, the
        result is the reference's final memory under the design's
        approximator (built as :meth:`run` builds it, ``thresholds``
        included), with every synced marked region approximated once,
        and its :meth:`output`: bit for bit what :meth:`run` returns.
        Otherwise ``None``.
        """
        from ..designs import get_design

        design = get_design(design)
        if not self.derivable(design, reference):
            return None
        mem = reference.memory.resettled(self._approximator(design, thresholds))
        return WorkloadResult(
            output=self.output(mem), memory=mem, iterations=reference.iterations
        )

    def _approximator(
        self, design: "DesignSpec", thresholds: ErrorThresholds | None
    ) -> Approximator:
        """The approximator a run under ``design`` applies to marked data."""
        return approximator_for(
            design,
            design.resolve_thresholds(thresholds, self.default_thresholds),
            self.dganger_threshold,
        )

    def output_error(self, result: WorkloadResult, reference: WorkloadResult) -> float:
        """Paper's quality metric: mean relative error of output values."""
        return mean_relative_error(reference.output, result.output)

    # ------------------------------------------------------------------
    # timing interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def trace_spec(self) -> TraceSpec:
        """Describe the main loop's memory access pattern."""

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def _scaled(self, value: int, minimum: int = 1, quantum: int = 1) -> int:
        """Scale a nominal dimension, keeping it a positive multiple."""
        scaled = max(minimum, int(round(value * self.scale)))
        return max(quantum, (scaled // quantum) * quantum)
