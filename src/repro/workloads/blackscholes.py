"""bscholes — Black-Scholes option pricing (AxBench) [48].

Prices a portfolio of European call options with the closed-form
Black-Scholes formula.  The option input data is approximable (~30 % of
the footprint); several input fields repeat identical values across
entries, which is the structure Doppelgänger exploits.  The workload is
compute-bound — one streaming pass with heavy per-element math — so all
designs have little end-to-end impact (paper §4.3).
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import ndtr

from ..approx.memory import ApproxMemory
from ..common.types import ErrorThresholds
from .base import Phase, TraceSpec, Workload
from .data import chained_strikes


class BlackScholesWorkload(Workload):
    """Black-Scholes option pricing (AxBench bscholes)."""

    name = "bscholes"
    description = "Financial forecasting of stock option prices"
    approx_data = "Options"
    output_data = "Prices"
    # Single-pass pricing: option deltas amplify input error, so the
    # per-app knob sits tighter than the iterative kernels'.
    default_thresholds = ErrorThresholds.from_t2(0.0025)

    RISK_FREE = 0.05

    def __init__(self, scale: float = 1.0, seed: int = 0, passes: int = 8) -> None:
        super().__init__(scale, seed)
        self.noptions = self._scaled(131_072, minimum=4096, quantum=256)
        #: repeated pricing passes (portfolio revaluation epochs)
        self.passes = passes

    def allocate(self, mem: ApproxMemory) -> None:
        rng = self._rng()
        n = self.noptions
        # Spot prices: mean-reverting walk (stays near-the-money, smooth).
        steps_noise = rng.normal(0.0, 0.25, n)
        # AR(1) around the 100.0 level: level_t = 100 + sum phi^(t-k) eps_k,
        # one float64 step acc = phi * acc + eps at a time from acc = 0.
        # (scipy.signal.lfilter gives the same bits, but importing
        # scipy.signal costs every process about 0.6 s and 50 MB of RSS
        # on a 2-vCPU Xeon VM.)
        phi = 0.995
        walk = itertools.accumulate(
            steps_noise.tolist(), lambda acc, eps: phi * acc + eps, initial=0.0
        )
        ar = np.fromiter(walk, dtype=np.float64, count=n + 1)[1:]
        spot = np.clip(100.0 + ar, 40.0, 200.0).astype(np.float32)
        # Option chains: runs of consecutive entries share one strike
        # (the repeated-field structure the paper notes).
        strikes = chained_strikes(n, 80.0, 120.0, rng, mean_run=384)
        # Chains also share volatility marks and expiries over long runs
        # (options on one underlying/expiry are stored consecutively).
        vols = chained_strikes(n, 0.1, 0.6, rng, mean_run=512)
        expiry = chained_strikes(n, 0.25, 2.0, rng, mean_run=512)
        # ~30% approximable: spot and strike arrays (2 of 6 regions
        # incl. the exact vol/expiry inputs and the two output arrays).
        mem.alloc("spot", (n,), approx=True, init=spot)
        mem.alloc("strike", (n,), approx=True, init=strikes)
        mem.alloc("volatility", (n,), approx=False, init=vols)
        mem.alloc("expiry", (n,), approx=False, init=expiry)
        # Prices are part of the annotated approximate dataset: they
        # are produced from approximate inputs and tolerate the same
        # error budget.  Every pass rewrites them and only the output
        # reads them.
        mem.alloc("call_price", (n,), approx=True, write_only=True)
        mem.alloc("put_price", (n,), approx=True, write_only=True)

    def execute(self, mem: ApproxMemory) -> int:
        spot = mem.region("spot").array
        strike = mem.region("strike").array
        vol = mem.region("volatility").array
        expiry = mem.region("expiry").array
        call = mem.region("call_price").array
        put = mem.region("put_price").array

        for _ in range(self.passes):
            # Inputs stream from memory each revaluation pass.
            mem.sync(["spot", "strike"])
            s = spot.astype(np.float64)
            k = strike.astype(np.float64)
            v = vol.astype(np.float64)
            t = expiry.astype(np.float64)
            sqrt_t = np.sqrt(t)
            d1 = (np.log(s / k) + (self.RISK_FREE + 0.5 * v**2) * t) / (v * sqrt_t)
            d2 = d1 - v * sqrt_t
            disc = np.exp(-self.RISK_FREE * t)
            call[:] = (s * ndtr(d1) - k * disc * ndtr(d2)).astype(np.float32)
            put[:] = (k * disc * ndtr(-d2) - s * ndtr(-d1)).astype(np.float32)
            # The freshly written prices stream back to memory too.
            mem.sync(["call_price", "put_price"])

        return self.passes

    def output(self, mem: ApproxMemory) -> np.ndarray:
        return np.concatenate([
            mem.region("call_price").array, mem.region("put_price").array
        ])

    def trace_spec(self) -> TraceSpec:
        # Streaming read of 4 input arrays + write of 2 outputs, with a
        # large compute gap (log/exp/CDF per element): compute-bound.
        return TraceSpec(
            iterations=self.passes,
            phases=(
                Phase("spot", reads=True, gap=1700),
                Phase("strike", reads=True, gap=1700),
                Phase("volatility", reads=True, gap=1700),
                Phase("expiry", reads=True, gap=1700),
                Phase("call_price", writes=True, reads=False, gap=1700),
                Phase("put_price", writes=True, reads=False, gap=1700),
            ),
        )
