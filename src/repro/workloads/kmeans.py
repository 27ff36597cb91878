"""kmeans — 1D k-means clustering of topographic elevations [2, 3].

Lloyd's algorithm on a geographically-ordered 1D elevation profile (a
synthetic stand-in for the Swedish topographic survey tile the paper
uses).  The point data is approximable; the output is the converged
cluster centroids.  Elevation data is rough, so AVR only reaches a
modest ratio (paper: 2.3:1), and — uniquely among the benchmarks — the
iteration count *depends on the approximation quality*: noisier points
move the convergence target, which is why the paper sees AVR execute
extra iterations.
"""

from __future__ import annotations

import numpy as np

from ..approx.memory import ApproxMemory
from .base import Phase, TraceSpec, Workload
from .data import fractal_terrain


class KMeansWorkload(Workload):
    """1D k-means clustering of a topographic elevation profile."""

    name = "kmeans"
    description = "1D k-means clustering of a geographic elevation map"
    approx_data = "Topol."
    output_data = "Clusters"

    def __init__(
        self,
        scale: float = 1.0,
        seed: int = 0,
        k: int = 16,
        max_iterations: int = 60,
        min_iterations: int = 12,
        tolerance: float = 1e-4,
    ) -> None:
        # tolerance: relative within-cluster-SSE improvement below which
        # the clustering is considered converged.  min_iterations is the
        # benchmark's fixed minimum epoch count (quantized inputs can
        # stall the SSE early without having settled the centroids).
        super().__init__(scale, seed)
        self.npoints = self._scaled(1_048_576, minimum=4096, quantum=256)
        self.k = k
        self.max_iterations = max_iterations
        self.min_iterations = min_iterations
        self.tolerance = tolerance

    def allocate(self, mem: ApproxMemory) -> None:
        rng = self._rng()
        # Multi-modal elevations: distinct biome base levels (valleys,
        # plateaus, ranges) + fractal detail + patchy meter-scale relief.
        # The modes make Lloyd's algorithm converge decisively; the
        # rugged tiles defeat 16-point averaging, capping the AVR ratio
        # near the paper's 2.3:1.
        tile = 4096
        ntiles = -(-self.npoints // tile)
        levels = np.sort(rng.uniform(50.0, 900.0, 10))
        base = np.repeat(levels[rng.integers(0, levels.size, ntiles)], tile)
        detail = fractal_terrain(
            self.npoints, roughness=0.72, rng=rng, base=0.0, relief=80.0
        )
        rugged = rng.random(ntiles) < 0.45
        sigma = np.repeat(np.where(rugged, 25.0, 1.5), tile)
        terrain = (
            base[: self.npoints]
            + detail
            + sigma[: self.npoints] * rng.normal(0.0, 1.0, self.npoints)
        ).astype(np.float32)
        mem.alloc("points", (self.npoints,), approx=True, init=terrain)
        # Per-point cluster labels: geographically ordered, written every
        # iteration, and approximation-tolerant (a flipped boundary label
        # is equivalent to a small point perturbation).  The centroid
        # update reads the labels before they are stored, never the
        # region.
        mem.alloc("assignments", (self.npoints,), approx=True, write_only=True)
        mem.alloc("centroids", (self.k,), approx=False)
        mem.alloc("assign_counts", (self.k,), approx=False)

    def execute(self, mem: ApproxMemory) -> int:
        points = mem.region("points").array
        centroids_arr = mem.region("centroids").array

        # Deterministic init: evenly spaced percentiles of the data.
        centroids = np.percentile(
            points, np.linspace(2, 98, self.k)
        ).astype(np.float64)

        iterations = 0
        prev_sse: float | None = None
        for _ in range(self.max_iterations):
            iterations += 1
            # The full point array streams from memory every iteration.
            mem.sync(["points"])
            order = np.sort(centroids)
            boundaries = 0.5 * (order[1:] + order[:-1])
            assign = np.digitize(points, boundaries)
            mem.region("assignments").array[:] = assign
            mem.sync(["assignments"])
            p64 = points.astype(np.float64)
            sums = np.bincount(assign, weights=p64, minlength=self.k)
            sqs = np.bincount(assign, weights=p64 * p64, minlength=self.k)
            counts = np.bincount(assign, minlength=self.k)
            centroids = np.where(counts > 0, sums / np.maximum(counts, 1), order)
            sse = float(
                (sqs - np.where(counts > 0, sums**2 / np.maximum(counts, 1), 0.0)).sum()
            )
            if (
                prev_sse is not None
                and iterations >= self.min_iterations
                and abs(prev_sse - sse) < self.tolerance * prev_sse
            ):
                break
            prev_sse = sse

        centroids_arr[:] = np.sort(centroids).astype(np.float32)
        return iterations

    def output(self, mem: ApproxMemory) -> np.ndarray:
        return mem.region("centroids").array.copy()

    def trace_spec(self) -> TraceSpec:
        # Per iteration: stream-read every point; centroid accumulators
        # stay in registers/L1 (k is tiny).  Nominal iteration count is
        # the cap; the harness rescales by the measured count.
        return TraceSpec(
            iterations=self.max_iterations // 2,
            phases=(
                Phase("points", reads=True, writes=False, gap=130),
                Phase("assignments", reads=False, writes=True, gap=130),
            ),
        )
