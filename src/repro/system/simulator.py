"""Trace-driven multicore timing simulator.

Replays per-core traces through private L1/L2 stacks, a shared LLC
(baseline, Truncate, Doppelgänger or AVR flavour) and the DDR4 model,
with interval-model cycle accounting per core.  Cores are interleaved
in fixed-size chunks so they share the LLC and DRAM realistically.

Execution time is the slower of the latency-bound estimate (max core
cycles) and the bandwidth-bound estimate (busiest DRAM channel's
occupancy) — the latter is what makes memory-traffic reduction show up
as speedup for bandwidth-bound workloads, the paper's central effect.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..cache.llc_avr import AVRLLC
from ..cache.llc_baseline import BaselineLLC
from ..common.config import SystemConfig
from ..cpu.interval import IntervalCore
from ..designs import DesignSpec, get_design
from ..energy.model import EnergyBreakdown, EnergyModel
from ..memory.dram import DRAM
from .frontend import TimingFrontEnd


@dataclass
class SimResult:
    """Everything the evaluation figures need from one timing run."""

    design: DesignSpec
    cycles: float
    instructions: int
    seconds: float
    amat_cycles: float
    llc_mpki: float
    dram_bytes_read: int
    dram_bytes_written: int
    approx_bytes: int
    exact_bytes: int
    llc_stats: dict[str, float]
    dram_stats: dict[str, float]
    energy: EnergyBreakdown
    #: per-core latency-bound cycle counts, in core-id order.  The
    #: scenario contention experiments read these to compute per-core
    #: slowdown vs a solo run; part of the engine-equivalence contract
    #: like every other replay-derived field.
    core_cycles: tuple[float, ...] = ()
    scale_factor: float = 1.0
    #: multiplier for workloads whose iteration count varies by design
    iteration_factor: float = 1.0

    @property
    def total_bytes(self) -> int:
        return self.dram_bytes_read + self.dram_bytes_written

    @property
    def adjusted_cycles(self) -> float:
        return self.cycles * self.iteration_factor

    @property
    def adjusted_energy_total(self) -> float:
        return self.energy.total * self.iteration_factor

    @property
    def adjusted_bytes(self) -> float:
        return self.total_bytes * self.iteration_factor

    #: fields outside the engine-equivalence contract: set by the
    #: harness after the replay, not derived from it
    _NON_REPLAY_FIELDS = frozenset({"iteration_factor"})

    def metric_diffs(self, other: "SimResult") -> list[str]:
        """Names of metrics that are not bit-identical to ``other``.

        The replay-vs-oracle equivalence contract: every
        replay-derived field must match *exactly* (``==`` on floats, no
        tolerance).  The field list is derived from the dataclass, so a
        future metric is automatically covered — growing ``SimResult``
        tightens this check rather than silently escaping it.  Used by
        the differential tests and by ``benchmarks/bench_timing.py``.
        """
        return [
            f.name
            for f in fields(self)
            if f.name not in self._NON_REPLAY_FIELDS
            and getattr(self, f.name) != getattr(other, f.name)
        ]

    def metrics_equal(self, other: "SimResult") -> bool:
        """True when every replay-derived metric is bit-identical."""
        return not self.metric_diffs(other)


class TimingSystem:
    """One design point's full machine."""

    def __init__(
        self,
        design: DesignSpec,
        config: SystemConfig,
        llc: BaselineLLC | AVRLLC,
        dram: DRAM,
    ) -> None:
        self.design = get_design(design)
        self.config = config
        self.llc = llc
        self.dram = dram

    def run(self, front_end: TimingFrontEnd) -> SimResult:
        """Replay ``front_end``'s trace and return the run's aggregate metrics.

        Cores execute their streams in fixed-size interleaved chunks
        (see :data:`~repro.system.frontend.INTERLEAVE_CHUNK`) so
        shared-resource contention — the LLC, the AVR module's single
        DBUF, DRAM banks — is modeled across cores.  The returned cycle
        count is the slower of the latency-bound and bandwidth-bound
        estimates; callers normalize against a baseline run of the same
        trace.

        This batched replay is the package's only timing model.  The
        replay runs in three stages, each bit-identical to the
        access-at-a-time loop over per-event twins of every component
        (private caches, LLC, DRAM, core) that the test oracle keeps in
        ``tests/oracles.py`` (pinned by
        ``tests/test_engine_equivalence.py`` and
        ``benchmarks/bench_timing.py --check``):

        1. **Front end** — every core's L1+L2 stack is replayed in one
           batched pass
           (:class:`~repro.cache.array_lru.BatchedPrivateFilter`), and the
           surviving events (demand reads that missed L2, plus dirty L2
           victim writebacks) are placed, by counting, into exactly the
           per-access loop's chunk-interleaved order.  None of this depends on the
           design, so the caller computes it once per trace
           (:func:`~repro.system.frontend.compute_front_end`) and every
           design replays it.  It carries each access's gap and the
           trace's iteration counts, so the replay needs no trace.
        2. **LLC event replay** — the event stream goes through the
           LLC's own batched replay (``BaselineLLC.replay_batch`` or the
           AVR fast scan, ``AVRLLC.replay_batch``) with DRAM settled in
           bulk.
        3. **Cycle accounting** — per-core interval accounting is a
           sequential chain of float additions; with the LLC latencies
           from stage 2 scattered back per access, the chain folds
           vectorized (:meth:`IntervalCore.replay_batch`) to the
           bit-identical cycle count.

        A ``TimingSystem`` accumulates state in its LLC and DRAM
        models, so each instance runs exactly one trace: the LLC's
        replay raises on a second call.
        """
        config = self.config
        offsets = front_end.offsets

        # Every LLC flavour owns a batched replay of the filtered event
        # stream: BaselineLLC (baseline / Truncate / Doppelgänger)
        # replays its data array as one BatchedLRUMatrix pass, AVRLLC
        # runs its array-backed fast scan (decode pass, resident
        # windows, deferred DRAM settlement).
        is_read = front_end.event_is_read
        read_lats = self.llc.replay_batch(front_end.event_addr, is_read)[is_read]

        # --- scatter LLC latencies back, fold per-core accounting -----
        llc_lat = np.zeros(front_end.l1_accesses, dtype=np.int64)
        llc_lat[front_end.event_access[is_read]] = read_lats
        l1_lat, l2_lat = config.l1.latency_cycles, config.l2.latency_cycles
        latency = np.where(front_end.l1_hit, l1_lat, l1_lat + l2_lat) + llc_lat
        l1_hit_flag = ~front_end.needs_llc & (latency <= l1_lat)
        cores = [IntervalCore(config.core) for _ in range(front_end.num_cores)]
        for c, core in enumerate(cores):
            sl = slice(int(offsets[c]), int(offsets[c + 1]))
            core.replay_batch(front_end.gap[sl], latency[sl], l1_hit_flag[sl])

        return self._finalize(
            front_end.scale_factor,
            cores,
            l1_accesses=front_end.l1_accesses,
            l2_accesses=front_end.l2_accesses,
        )

    # ------------------------------------------------------------------
    # shared metric assembly
    # ------------------------------------------------------------------
    def _finalize(
        self,
        scale_factor: float,
        cores: list[IntervalCore],
        l1_accesses: int,
        l2_accesses: int,
    ) -> SimResult:
        """Aggregate core/LLC/DRAM state into a :class:`SimResult`."""
        config = self.config
        num_cores = len(cores)
        latency_cycles = max((c.cycles for c in cores), default=0.0)
        bw_cycles = self.dram.bandwidth_bound_cycles()
        cycles = max(latency_cycles, bw_cycles)
        instructions = sum(c.instructions for c in cores)
        seconds = cycles / (config.core.frequency_ghz * 1e9)

        total_mem_accesses = sum(c.mem_accesses for c in cores)
        amat = (
            sum(c.mem_latency_total for c in cores) / total_mem_accesses
            if total_mem_accesses
            else 0.0
        )
        llc_misses = self.llc.mpki_misses
        mpki = llc_misses / (instructions / 1000.0) if instructions else 0.0

        llc_stats = dict(self.llc.stats.as_dict())
        dram_stats = dict(self.dram.stats.as_dict())
        energy = self._energy(
            instructions, l1_accesses, l2_accesses, seconds, num_cores
        )

        return SimResult(
            design=self.design,
            cycles=cycles,
            instructions=instructions,
            seconds=seconds,
            amat_cycles=amat,
            llc_mpki=mpki,
            dram_bytes_read=int(dram_stats.get("bytes_read", 0)),
            dram_bytes_written=int(dram_stats.get("bytes_written", 0)),
            approx_bytes=int(llc_stats.get("bytes_approx", 0)),
            exact_bytes=int(llc_stats.get("bytes_exact", 0)),
            llc_stats=llc_stats,
            dram_stats=dram_stats,
            energy=energy,
            core_cycles=tuple(float(c.cycles) for c in cores),
            scale_factor=scale_factor,
        )

    def _energy(
        self,
        instructions: int,
        l1_accesses: int,
        l2_accesses: int,
        seconds: float,
        num_cores: int,
    ) -> EnergyBreakdown:
        """Fold per-component event counts into the Figure 10 breakdown."""
        llc_stats = self.llc.stats
        dram_lines = self.dram.total_bytes / 64.0
        compressor_ops = llc_stats.get("compressions", 0) + llc_stats.get(
            "decompressions", 0
        )
        counts = {
            "instructions": instructions,
            "l1_accesses": l1_accesses,
            "l2_accesses": l2_accesses,
            "llc_accesses": llc_stats.get("llc_hits", 0)
            + llc_stats.get("llc_misses", 0),
            "dram_lines": dram_lines,
            "compressor_ops": compressor_ops,
        }
        return EnergyModel().compute(
            counts, seconds, num_cores, self.llc.has_compressor
        )
