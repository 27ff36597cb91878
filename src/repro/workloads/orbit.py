"""orbit — 3D two-particle orbit problem (FLASH) [10].

Integrates the bound orbit of two gravitating particles with a leapfrog
scheme, logging the full phase-space history ("Phys. data") into large
approximable arrays — half the footprint, the other half being the
exact solver state.  Trajectories are smooth in time, so the history
arrays compress almost perfectly (the paper reports 16.0:1); the output
is the logged physics data itself.

Coordinates oscillate across zero with a span of the orbit diameter,
which is exactly the regime where Doppelgänger's span-relative
deduplication produces runaway (>100 %) error in the paper.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from ..approx.memory import ApproxMemory
from .base import Phase, TraceSpec, Workload

#: gravitational constant in simulation units
G = 1.0
#: particle masses
M1, M2 = 1.0, 1.0


class OrbitWorkload(Workload):
    """Two-particle orbit integration logging phase-space history."""

    name = "orbit"
    description = "3D simulation of the two-particle orbit problem"
    approx_data = "Phys. data"
    output_data = "Phys. data"
    # Orbit coordinates sweep the full span and cross zero; at the
    # span-relative hash granularity Doppelgänger was configured with,
    # aliasing produces the paper's runaway (>100%) error.
    dganger_threshold = 0.03

    #: steps between history flushes to memory (one sync per chunk)
    CHUNK = 2048

    def __init__(self, scale: float = 1.0, seed: int = 0, steps: int = 32768) -> None:
        super().__init__(scale, seed)
        self.steps = self._scaled(steps, minimum=4096, quantum=self.CHUNK)
        self.dt = 2e-3

    def allocate(self, mem: ApproxMemory) -> None:
        # Coordinate-major layout: each row is one coordinate's time
        # series (x1 y1 z1 x2 y2 z2), so consecutive values are smooth.
        mem.alloc("pos_history", (6, self.steps), approx=True)
        mem.alloc("vel_history", (6, self.steps), approx=True)
        # Exact half of the footprint: solver state and diagnostics.
        mem.alloc("energy_log", (2, self.steps), approx=False)
        mem.alloc("angmom_log", (6, self.steps), approx=False)
        mem.alloc("work", (4, self.steps), approx=False)

    def execute(self, mem: ApproxMemory) -> int:
        pos_h = mem.region("pos_history").array
        vel_h = mem.region("vel_history").array
        energy = mem.region("energy_log").array

        # Mildly eccentric bound orbit in the xy plane, slight z wobble.
        r1 = np.array([0.5, 0.0, 0.02])
        r2 = np.array([-0.5, 0.0, -0.02])
        v_circ = np.sqrt(G * (M1 + M2) / np.linalg.norm(r1 - r2)) / 2.0
        x1, y1, z1 = r1.tolist()
        x2, y2, z2 = r2.tolist()
        vx1, vy1, vz1 = 0.0, float(0.9 * v_circ), 0.0
        vx2, vy2, vz2 = 0.0, float(-0.9 * v_circ), 0.0

        # The leapfrog runs on Python floats, one IEEE operation per
        # component as numpy did per element.  The separation's norm
        # stays on numpy's BLAS dot (as np.linalg.norm), whose fused
        # multiply-adds plain float arithmetic would not reproduce.
        dt = self.dt
        half = 0.5 * dt
        gm2 = G * M2
        ngm1 = -G * M1
        d = np.empty(3, dtype=np.float64)
        dot = d.dot

        dx, dy, dz = x2 - x1, y2 - y1, z2 - z1
        d[0] = dx
        d[1] = dy
        d[2] = dz
        dist3 = math.sqrt(dot(d)) ** 3
        ax1, ay1, az1 = gm2 * dx / dist3, gm2 * dy / dist3, gm2 * dz / dist3
        ax2, ay2, az2 = ngm1 * dx / dist3, ngm1 * dy / dist3, ngm1 * dz / dist3

        for start in range(0, self.steps, self.CHUNK):
            stop = min(start + self.CHUNK, self.steps)
            # Raw doubles, 12 per step: a list of tuples would hold every
            # value as a Python object until the chunk is written.
            rows = array("d")
            extend = rows.extend
            for _ in range(start, stop):
                vx1 += half * ax1
                vy1 += half * ay1
                vz1 += half * az1
                vx2 += half * ax2
                vy2 += half * ay2
                vz2 += half * az2
                x1 += dt * vx1
                y1 += dt * vy1
                z1 += dt * vz1
                x2 += dt * vx2
                y2 += dt * vy2
                z2 += dt * vz2
                dx, dy, dz = x2 - x1, y2 - y1, z2 - z1
                d[0] = dx
                d[1] = dy
                d[2] = dz
                dist3 = math.sqrt(dot(d)) ** 3
                ax1, ay1, az1 = gm2 * dx / dist3, gm2 * dy / dist3, gm2 * dz / dist3
                ax2, ay2, az2 = ngm1 * dx / dist3, ngm1 * dy / dist3, ngm1 * dz / dist3
                vx1 += half * ax1
                vy1 += half * ay1
                vz1 += half * az1
                vx2 += half * ax2
                vy2 += half * ay2
                vz2 += half * az2
                extend((x1, y1, z1, x2, y2, z2, vx1, vy1, vz1, vx2, vy2, vz2))

            # One write per log for the chunk: the float32 casts round
            # each value as the per-step writes did.
            chunk = np.frombuffer(rows, dtype=np.float64).reshape(stop - start, 12)
            pos_h[:, start:stop] = chunk[:, :6].T
            vel_h[:, start:stop] = chunk[:, 6:].T
            v1, v2 = chunk[:, 6:9], chunk[:, 9:]
            kinetic = 0.5 * (M1 * (v1 * v1).sum(axis=1) + M2 * (v2 * v2).sum(axis=1))
            # vecdot runs the same BLAS dot per row as the norm of one step.
            diff = chunk[:, :3] - chunk[:, 3:6]
            potential = -G * M1 * M2 / np.sqrt(np.vecdot(diff, diff))
            energy[:, start:stop] = (kinetic, potential)

            if stop % self.CHUNK == 0:
                # The filled chunk streams out to main memory.
                mem.sync(["pos_history", "vel_history"])

        return self.steps

    def output(self, mem: ApproxMemory) -> np.ndarray:
        return np.concatenate([
            mem.region("pos_history").array.ravel(),
            mem.region("vel_history").array.ravel(),
        ])

    def trace_spec(self) -> TraceSpec:
        # History logging is a pure streaming-write pattern; the exact
        # logs stream alongside.  One "iteration" = one chunk.
        return TraceSpec(
            iterations=self.steps // self.CHUNK,
            phases=(
                Phase("pos_history", reads=False, writes=True, gap=320, rolling=True),
                Phase("vel_history", reads=False, writes=True, gap=320, rolling=True),
                Phase("energy_log", reads=False, writes=True, gap=320, rolling=True),
                Phase("angmom_log", reads=False, writes=True, gap=320, rolling=True),
            ),
        )
