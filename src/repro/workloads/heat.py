"""heat — 2D thermodynamics (Jacobi heat propagation) [32].

Iterates a 2D grid of temperatures, computing the propagation of heat
from fixed hot boundaries into an ambient-temperature plate.  Both the
read and write grids are approximable ("Temps" in Table 2), and the
output is the final temperature field.  The temperature field is very
smooth, which is why the paper reports a 10.5:1 AVR compression ratio.
"""

from __future__ import annotations

import numpy as np

from ..approx.memory import ApproxMemory
from ..common.types import ErrorThresholds
from .base import Phase, TraceSpec, Workload


class HeatWorkload(Workload):
    """2D Jacobi heat propagation on a plate with hot boundaries."""

    name = "heat"
    description = "2D thermodynamics: heat propagation over a grid"
    approx_data = "Temps"
    output_data = "Temps"
    # Iterative stencil: the grid round-trips memory every sweep, so the
    # per-pass knob must sit well below the 1%-ish output budget.
    default_thresholds = ErrorThresholds.from_t2(0.001)

    dganger_threshold = 0.00025

    #: fixed boundary temperatures (degrees)
    T_HOT = 100.0
    T_AMBIENT = 20.0

    def __init__(self, scale: float = 1.0, seed: int = 0, iterations: int = 150) -> None:
        super().__init__(scale, seed)
        # Finer grids make 16-value segments flatter (quadratically
        # smaller interpolation error), as the paper's 8.2 MB grid does.
        self.n = self._scaled(768, minimum=48, quantum=16)
        self.iterations = iterations

    def allocate(self, mem: ApproxMemory) -> None:
        n = self.n
        init = np.full((n, n), self.T_AMBIENT, dtype=np.float32)
        # Hot top edge with a smooth profile; warm left edge.
        x = np.linspace(0.0, np.pi, n, dtype=np.float32)
        init[0, :] = self.T_AMBIENT + (self.T_HOT - self.T_AMBIENT) * np.sin(x)
        init[:, 0] = np.linspace(self.T_HOT, self.T_AMBIENT, n, dtype=np.float32)
        mem.alloc("grid_a", (n, n), approx=True, init=init)
        mem.alloc("grid_b", (n, n), approx=True, init=init)

    def execute(self, mem: ApproxMemory) -> int:
        src = mem.region("grid_a").array
        dst = mem.region("grid_b").array
        names = ("grid_a", "grid_b")
        for it in range(self.iterations):
            dst[1:-1, 1:-1] = 0.25 * (
                src[:-2, 1:-1] + src[2:, 1:-1] + src[1:-1, :-2] + src[1:-1, 2:]
            )
            # The freshly-written grid streams back to memory each sweep.
            mem.sync([names[(it + 1) % 2]])
            src, dst = dst, src
        return self.iterations

    def output(self, mem: ApproxMemory) -> np.ndarray:
        # The grid the last sweep wrote (grid_a before the first sweep).
        return mem.region(("grid_a", "grid_b")[self.iterations % 2]).array.copy()

    def trace_spec(self) -> TraceSpec:
        # Per sweep: stencil-read the source grid (rows reused via the
        # caches), write the destination grid.
        return TraceSpec(
            iterations=self.iterations,
            phases=(
                Phase("grid_a", reads=True, writes=False, gap=110),
                Phase("grid_b", reads=False, writes=True, gap=110),
            ),
        )
