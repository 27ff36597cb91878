"""Ablation: the error-threshold knob and the two downsampling variants.

Sweeps the paper's tunable T2 knob over the *wrf* temperature field
(the least compressible benchmark) and over *orbit* history data (the
most compressible), showing the quality/compression trade-off curve.
Also ablates the method-selection choice by forcing a single
downsampling variant, through single-variant compressors.

Run:  python examples/threshold_ablation.py
"""

import numpy as np

from repro.common.constants import VALUES_PER_BLOCK
from repro.common.types import CompressionMethod, ErrorThresholds
from repro.compression import AVRCompressor
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


def method_ablation() -> dict[str, dict[str, tuple[float, float]]]:
    """Why AVR tries both placements: 1D wins on series, 2D on tiles.

    Each placement runs alone in a single-variant compressor
    (``methods=(m,)``); the full compressor picks per block.  Returns
    ``{data: {variant: (mean cachelines per block, success %)}}``.
    """
    t = np.linspace(0, 8, VALUES_PER_BLOCK)
    series = (np.sin(t) + 2.5).astype(np.float32)[None, :].repeat(32, 0)

    yy, xx = np.mgrid[0:16, 0:16] / 16.0
    tile = (np.sin(2 * yy) * np.cos(1.5 * xx) + 2.5).astype(np.float32)
    tiles = tile.reshape(1, VALUES_PER_BLOCK).repeat(32, 0)

    thresholds = ErrorThresholds.from_t2(0.005)
    variants = {
        "1D": AVRCompressor(thresholds, methods=(CompressionMethod.DOWNSAMPLE_1D,)),
        "2D": AVRCompressor(thresholds, methods=(CompressionMethod.DOWNSAMPLE_2D,)),
        "both": AVRCompressor(thresholds),
    }
    print("\nMethod ablation (cachelines per block, fewer is better; success %):")
    print(f"    {'data':>12} {'1D':>12} {'2D':>12} {'both':>12} {'selected':>9}")
    table: dict[str, dict[str, tuple[float, float]]] = {}
    for label, blocks in (("time series", series), ("2D field", tiles)):
        row = {}
        for name, comp in variants.items():
            res = comp.compress_blocks(blocks)
            row[name] = (float(res.size_cachelines.mean()), float(res.success.mean()) * 100)
        res = variants["both"].compress_blocks(blocks)
        chosen = CompressionMethod(int(res.method[0])).name.replace("DOWNSAMPLE_", "")
        cells = " ".join(f"{size:5.1f} ({ok:3.0f}%)" for size, ok in row.values())
        print(f"    {label:>12} {cells} {chosen:>9}")
        table[label] = row
    return table


if __name__ == "__main__":
    knob_sweep()
    method_ablation()
