"""wrf — weather forecasting model proxy (SPEC CPU2006 481.wrf) [19].

A multi-field 3D atmospheric kernel standing in for WRF: temperature,
pressure, humidity, three wind components and a static geopotential
field evolve under advection (by the wind), diffusion and
terrain-induced forcing.  Only the geographically-ordered temperature
metrics are approximable — about 15 % of the footprint, matching the
paper — and the temperature field is rough enough that AVR only reaches
a ~3.4:1 ratio with visible output error (paper: 8.9 %).
"""

from __future__ import annotations

import numpy as np

from ..approx.memory import ApproxMemory
from ..common.types import ErrorThresholds
from .base import Phase, TraceSpec, Workload
from .data import smooth_field_2d


class WrfWorkload(Workload):
    """Multi-field 3D atmospheric kernel standing in for WRF."""

    name = "wrf"
    description = "Weather forecasting model (advection-diffusion proxy)"
    approx_data = "Geo data"
    output_data = "Temp."
    default_thresholds = ErrorThresholds.from_t2(0.02)
    dganger_threshold = 0.006

    def __init__(self, scale: float = 1.0, seed: int = 0, steps: int = 60) -> None:
        super().__init__(scale, seed)
        self.nz = self._scaled(12, minimum=4, quantum=2)
        self.ny = self._scaled(96, minimum=16, quantum=8)
        self.nx = self._scaled(96, minimum=16, quantum=8)
        self.steps = steps

    def allocate(self, mem: ApproxMemory) -> None:
        rng = self._rng()
        nz, ny, nx = self.nz, self.ny, self.nx
        shape = (nz, ny, nx)

        terrain = smooth_field_2d(ny, nx, rng, octaves=5, roughness=0.65)
        # Temperature: lapse rate with altitude + terrain + mesoscale noise.
        altitude = np.linspace(0.0, 1.0, nz)[:, None, None]
        # Celsius-scale temperatures: geographically ordered, crossing
        # zero with altitude (the regime where span-relative dedup and
        # exponent-sensitive compression both struggle).
        temp = (
            15.0
            - 40.0 * altitude
            - 12.0 * terrain[None]
            + 1.5 * rng.normal(0.0, 1.0, shape)
        ).astype(np.float32)
        pressure = (1013.0 * np.exp(-1.2 * altitude) * np.ones(shape)).astype(np.float32)
        humidity = (0.5 + 0.4 * smooth_field_2d(ny, nx, rng)[None] * np.ones(shape)).astype(np.float32)
        wind_u = (6.0 * (smooth_field_2d(ny, nx, rng) - 0.5)[None] * np.ones(shape)).astype(np.float32)
        wind_v = (6.0 * (smooth_field_2d(ny, nx, rng) - 0.5)[None] * np.ones(shape)).astype(np.float32)
        wind_w = np.zeros(shape, dtype=np.float32)

        # Approximable: the geographically ordered temperature metrics
        # (~1/7 of the footprint ≈ the paper's 15 %).
        mem.alloc("temperature", shape, approx=True, init=temp)
        mem.alloc("pressure", shape, approx=False, init=pressure)
        mem.alloc("humidity", shape, approx=False, init=humidity)
        mem.alloc("wind_u", shape, approx=False, init=wind_u)
        mem.alloc("wind_v", shape, approx=False, init=wind_v)
        mem.alloc("wind_w", shape, approx=False, init=wind_w)
        mem.alloc("geopotential", shape, approx=False,
                  init=(9.81 * 1000.0 * altitude * np.ones(shape)).astype(np.float32))

    def execute(self, mem: ApproxMemory) -> int:
        temp = mem.region("temperature").array
        wind_u = mem.region("wind_u").array
        wind_v = mem.region("wind_v").array
        humidity = mem.region("humidity").array

        dt, dx = 0.2, 1.0
        kappa = 0.08
        for _ in range(self.steps):
            # First-order upwind advection (stable at any cell Peclet
            # number; centered differencing would amplify block-scale
            # approximation noise into a numerical instability).
            fwd_x = np.roll(temp, -1, axis=2) - temp
            bwd_x = temp - np.roll(temp, 1, axis=2)
            fwd_y = np.roll(temp, -1, axis=1) - temp
            bwd_y = temp - np.roll(temp, 1, axis=1)
            ddx = np.where(wind_u > 0, bwd_x, fwd_x) / dx
            ddy = np.where(wind_v > 0, bwd_y, fwd_y) / dx
            lap = (
                np.roll(temp, 1, axis=1) + np.roll(temp, -1, axis=1)
                + np.roll(temp, 1, axis=2) + np.roll(temp, -1, axis=2)
                - 4.0 * temp
            )
            latent = 0.4 * (humidity - 0.5)
            temp += dt * (-wind_u * ddx - wind_v * ddy + kappa * lap + latent)
            # The temperature field streams through memory every step.
            mem.sync(["temperature"])

        return self.steps

    def output(self, mem: ApproxMemory) -> np.ndarray:
        return mem.region("temperature").array.copy()

    def trace_spec(self) -> TraceSpec:
        return TraceSpec(
            iterations=self.steps,
            phases=(
                Phase("temperature", reads=True, writes=True, gap=190),
                Phase("wind_u", reads=True, gap=190),
                Phase("wind_v", reads=True, gap=190),
                Phase("humidity", reads=True, gap=190),
                Phase("pressure", reads=True, fraction=0.5, gap=190),
            ),
        )
