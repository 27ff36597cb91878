"""Interval-based core model (Genbrugge, Eyerman & Eeckhout, HPCA'10).

Instead of simulating the out-of-order pipeline cycle by cycle, the
interval model dispatches instructions at a steady base rate and adds
the *exposed* portion of each long-latency memory event: miss latency
divided by the memory-level parallelism the window extracts.  L1 hits
are absorbed by the dispatch rate.
"""

from __future__ import annotations

import numpy as np

from ..common.config import CoreConfig


class IntervalCore:
    """Cycle accounting for one core."""

    def __init__(self, config: CoreConfig) -> None:
        self.config = config
        self.cycles = 0.0
        self.instructions = 0
        self.mem_accesses = 0
        self.mem_latency_total = 0.0

    def replay_batch(
        self,
        gaps: np.ndarray,
        latencies: np.ndarray,
        l1_hit: np.ndarray,
    ) -> None:
        """Account a whole access stream in one vectorized step.

        Per access, the core first dispatches the ``gap`` preceding
        instructions plus the memory op at the base rate (adding
        ``(gap + 1) / base_ipc`` cycles), then stalls for the exposed
        ``latency / mlp`` cycles unless the access hit in L1.  The
        cycle counter is a *sequential* chain of float additions, so
        the batch builds exactly that chain — dispatch add, then stall
        add, per access — and folds it with ``np.add.accumulate`` (a
        strict left-to-right accumulation, unlike ``np.sum``'s pairwise
        reduction), bit-identical to the per-access loop.  L1 hits
        contribute a stall of exactly ``0.0``, which is additively inert
        for the non-negative cycle counter.
        """
        n = int(gaps.size)
        if n == 0:
            return
        counts = gaps.astype(np.int64) + 1
        chain = np.empty(2 * n + 1, dtype=np.float64)
        chain[0] = self.cycles
        chain[1::2] = counts / self.config.base_ipc
        chain[2::2] = np.where(l1_hit, 0.0, latencies / self.config.mlp)
        self.cycles = float(np.add.accumulate(chain)[-1])
        self.instructions += int(counts.sum())
        self.mem_accesses += n
        # Latencies are integral cycles, so any summation order is exact.
        self.mem_latency_total += float(latencies.sum())

    @property
    def amat(self) -> float:
        """Average memory access time in cycles."""
        if self.mem_accesses == 0:
            return 0.0
        return self.mem_latency_total / self.mem_accesses

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0
