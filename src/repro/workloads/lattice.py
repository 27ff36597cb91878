"""lattice — 2D Lattice-Boltzmann (D2Q9) air flow over a car silhouette [7].

A minimal entropic-style BGK lattice-Boltzmann method on a D2Q9
lattice, with an inflow at the left boundary, outflow at the right, and
half-way bounce-back on a solid car-shaped obstacle.  The approximable
data are the particle distribution functions and the macroscopic
fields ("P and M"), and the output is velocity + pressure, as in
Table 2.
"""

from __future__ import annotations

import numpy as np

from ..approx.memory import ApproxMemory
from ..common.types import ErrorThresholds
from .base import Phase, TraceSpec, Workload
from .data import car_silhouette

# D2Q9 lattice: rest, 4 axis-aligned, 4 diagonal directions.
_EX = np.array([0, 1, 0, -1, 0, 1, -1, -1, 1])
_EY = np.array([0, 0, 1, 0, -1, 1, 1, -1, -1])
_W = np.array([4 / 9] + [1 / 9] * 4 + [1 / 36] * 4)
_OPPOSITE = np.array([0, 3, 4, 1, 2, 7, 8, 5, 6])


def equilibrium(rho: np.ndarray, ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """D2Q9 second-order equilibrium distribution, shape (9, ny, nx)."""
    eu = _EX[:, None, None] * ux[None] + _EY[:, None, None] * uy[None]
    usq = ux**2 + uy**2
    return (
        _W[:, None, None]
        * rho[None]
        * (1.0 + 3.0 * eu + 4.5 * eu**2 - 1.5 * usq[None])
    ).astype(np.float32)


def stream_index(shifts: np.ndarray, opposite: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Source of every value of a lattice step's data movement.

    ``f`` has shape ``(q,) + mask.shape``, and so has the result, which
    holds flat indices into ``f``.  The step's movement is half-way
    bounce-back on ``mask`` (``f[:, mask] = f[opposite][:, mask]``), then
    streaming (``f[i] = np.roll(f[i], shifts[i])`` over every grid
    axis), then the zero-gradient outflow (the last column along the
    final axis copies the one before it).  All three only move values,
    so ``np.take(f, index)`` does them in one gather.
    """
    cells = np.arange(mask.size, dtype=np.intp).reshape(mask.shape)
    blocked = mask.ravel()
    axes = tuple(range(mask.ndim))
    index = np.empty((len(opposite),) + mask.shape, dtype=np.intp)
    for i, shift in enumerate(shifts):
        # np.roll(plane, shift)[c] == plane[c - shift], so rolling the
        # cell numbers gives each destination's source cell.
        source = np.roll(cells, tuple(int(s) for s in shift), axis=axes)
        plane = np.where(blocked[source], opposite[i], i)
        index[i] = plane * mask.size + source
    index[..., -1] = index[..., -2]
    return index


class LatticeWorkload(Workload):
    """2D Lattice-Boltzmann (D2Q9) air flow over a car silhouette."""

    name = "lattice"
    description = "2D Lattice-Boltzmann air flow over a solid car silhouette"
    approx_data = "P and M"
    output_data = "Vel.+Pr."
    # Macroscopic fields take the functional round-trip; the distribution
    # functions are architecture-approximable (timing view) only — see
    # Workload.timing_approx_regions.
    timing_approx_regions = ("f", "macro")
    timing_proxy_ratio = 9.6  # paper Table 4
    default_thresholds = ErrorThresholds.from_t2(0.01)
    dganger_threshold = 0.0005

    U_INFLOW = 0.05
    OMEGA = 1.2

    def __init__(self, scale: float = 1.0, seed: int = 0, steps: int = 150) -> None:
        super().__init__(scale, seed)
        self.ny = self._scaled(192, minimum=24, quantum=8)
        # nx >= 256 keeps a 256-value block inside one grid row
        self.nx = self._scaled(512, minimum=64, quantum=8)
        self.steps = steps
        self.mask = car_silhouette(self.ny, self.nx)

    def allocate(self, mem: ApproxMemory) -> None:
        ny, nx = self.ny, self.nx
        rho0 = np.ones((ny, nx), dtype=np.float32)
        ux0 = np.full((ny, nx), self.U_INFLOW, dtype=np.float32)
        uy0 = np.zeros((ny, nx), dtype=np.float32)
        f0 = equilibrium(rho0, ux0, uy0)
        mem.alloc("f", (9, ny, nx), approx=False, init=f0)
        macro0 = np.stack([rho0, ux0, uy0])
        # Every step rewrites the fields and only the output reads them.
        mem.alloc("macro", (3, ny, nx), approx=True, init=macro0, write_only=True)

    def execute(self, mem: ApproxMemory) -> int:
        f = mem.region("f").array
        macro = mem.region("macro").array
        ny, nx = self.ny, self.nx
        # Where numpy would cast an operand to float64 inside a mixed
        # int64/float32/float64 operation, the operand is widened
        # beforehand (exactly) so that every loop runs on float64 alone.
        ex = _EX.astype(np.float64)[:, None, None]
        ey = _EY.astype(np.float64)[:, None, None]
        w = _W[:, None, None]

        # Per run: the gather map of bounce-back, streaming and outflow,
        # and the inflow column's (constant) equilibrium.
        index = stream_index(np.stack([_EY, _EX], axis=1), _OPPOSITE, self.mask)
        inflow = equilibrium(
            np.ones(ny, dtype=np.float32)[:, None],
            np.full((ny, 1), self.U_INFLOW, dtype=np.float32),
            np.zeros((ny, 1), dtype=np.float32),
        )[:, :, 0]
        # Scratch for one step; each step writes every buffer before
        # reading it.
        rho = np.empty((ny, nx), dtype=np.float32)
        inv_rho = np.empty((ny, nx), dtype=np.float32)
        wide = np.empty((9, ny, nx), dtype=np.float64)
        wide_rho = np.empty((ny, nx), dtype=np.float64)
        wide_inv_rho = np.empty((ny, nx), dtype=np.float64)
        ux = np.empty((ny, nx), dtype=np.float64)
        uy = np.empty((ny, nx), dtype=np.float64)
        usq = np.empty((ny, nx), dtype=np.float64)
        uy2 = np.empty((ny, nx), dtype=np.float64)
        a = np.empty((9, ny, nx), dtype=np.float64)
        b = np.empty((9, ny, nx), dtype=np.float64)
        post = np.empty((9, ny, nx), dtype=np.float32)

        # Every value-producing operation below is the one equilibrium()
        # and the collision apply, on the same operands and dtypes, in
        # the same order (IEEE + and * commute exactly); only the
        # destinations are preallocated.
        for _ in range(self.steps):
            np.sum(f, axis=0, out=rho)
            np.maximum(rho, 1e-6, out=inv_rho)
            np.divide(1.0, inv_rho, out=inv_rho)
            np.copyto(wide_inv_rho, inv_rho)
            np.copyto(wide, f)
            np.multiply(wide, ex, out=a)
            np.sum(a, axis=0, out=ux)
            ux *= wide_inv_rho
            np.multiply(wide, ey, out=a)
            np.sum(a, axis=0, out=uy)
            uy *= wide_inv_rho

            # Inflow: fixed velocity at the left column (equilibrium refill).
            ux[:, 0] = self.U_INFLOW
            uy[:, 0] = 0.0
            rho[:, 0] = 1.0

            # feq = equilibrium(rho, ux, uy)
            np.multiply(ex, ux, out=a)
            np.multiply(ey, uy, out=b)
            a += b  # eu
            np.square(ux, out=usq)
            np.square(uy, out=uy2)
            usq += uy2
            np.multiply(a, 3.0, out=b)
            b += 1.0
            np.square(a, out=a)
            a *= 4.5
            b += a
            usq *= 1.5
            b -= usq
            np.copyto(wide_rho, rho)
            np.multiply(w, wide_rho, out=a)
            a *= b
            np.copyto(post, a, casting="same_kind")

            # f += OMEGA * (feq - f), into post
            post -= f
            post *= self.OMEGA
            post += f

            # Half-way bounce-back on the obstacle, streaming (periodic
            # wrap vertically; open horizontally), zero-gradient outflow.
            np.take(post, index, out=f, mode="clip")
            f[:, :, 0] = inflow

            macro[0], macro[1], macro[2] = rho, ux, uy
            mem.sync(["f", "macro"])

        return self.steps

    def output(self, mem: ApproxMemory) -> np.ndarray:
        macro = mem.region("macro").array
        speed = np.sqrt(macro[1] ** 2 + macro[2] ** 2)
        pressure = macro[0] / 3.0
        return np.stack([speed, pressure])

    def trace_spec(self) -> TraceSpec:
        # Per step: the distributions are read and rewritten (collide +
        # stream), macroscopic fields are computed and written.
        return TraceSpec(
            iterations=self.steps,
            phases=(
                Phase("f", reads=True, writes=True, gap=150),
                Phase("macro", reads=False, writes=True, gap=150),
            ),
        )
