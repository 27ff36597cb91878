"""Ablation: the error-threshold knob and the two downsampling variants.

Sweeps the paper's tunable T2 knob over the *wrf* temperature field
(the least compressible benchmark) and over *orbit* history data (the
most compressible), showing the quality/compression trade-off curve.
Also ablates the method-selection choice by forcing a single
downsampling variant.

Run:  python examples/threshold_ablation.py
"""

import numpy as np

from repro.common.constants import VALUES_PER_BLOCK
from repro.common.types import CompressionMethod, ErrorThresholds
from repro.compression import AVRCompressor
from repro.compression.downsample import (
    downsample_1d,
    downsample_2d,
    reconstruct_1d,
    reconstruct_2d,
)
from repro.workloads import make_workload


def knob_sweep() -> None:
    print("T2 knob sweep (output error vs compression ratio)")
    for name in ("orbit", "wrf"):
        workload = make_workload(name, scale=0.5)
        reference = workload.run("baseline")
        print(f"\n  {name}:")
        print(f"    {'T2':>8} {'ratio':>7} {'output err %':>13}")
        for t2 in (0.04, 0.02, 0.01, 0.005, 0.002):
            result = workload.run("AVR", thresholds=ErrorThresholds.from_t2(t2))
            err = workload.output_error(result, reference)
            print(f"    {t2:8.3f} {result.memory.compression_ratio():6.1f}x"
                  f" {err * 100:12.3f}")


def method_ablation() -> None:
    """Why AVR tries both placements: 1D wins on series, 2D on tiles."""
    rng = np.random.default_rng(3)
    t = np.linspace(0, 8, VALUES_PER_BLOCK)
    series = (np.sin(t) + 2.5).astype(np.float32)[None, :].repeat(32, 0)

    yy, xx = np.mgrid[0:16, 0:16] / 16.0
    tile = (np.sin(3 * yy) * np.cos(2 * xx) + 2.5).astype(np.float32)
    tiles = tile.reshape(1, VALUES_PER_BLOCK).repeat(32, 0)

    comp = AVRCompressor(ErrorThresholds.from_t2(0.005))
    print("\nMethod ablation (outliers per block, fewer is better):")
    print(f"    {'data':>12} {'1D':>6} {'2D':>6} {'selected':>10}")
    for label, blocks in (("time series", series), ("2D field", tiles)):
        fixed = comp._to_fixed(blocks, comp._choose_biases(blocks))
        counts = {}
        for mname, down, recon in (
            ("1D", downsample_1d, reconstruct_1d),
            ("2D", downsample_2d, reconstruct_2d),
        ):
            recon_f = comp._from_fixed(recon(down(fixed)), comp._choose_biases(blocks))
            from repro.compression.outliers import detect_outliers

            mask = detect_outliers(blocks, recon_f, comp.thresholds, comp.check_mode)
            counts[mname] = mask.sum(axis=1).mean()
        res = comp.compress_blocks(blocks)
        chosen = CompressionMethod(int(res.method[0])).name.replace("DOWNSAMPLE_", "")
        print(f"    {label:>12} {counts['1D']:6.1f} {counts['2D']:6.1f} {chosen:>10}")


if __name__ == "__main__":
    knob_sweep()
    method_ablation()
