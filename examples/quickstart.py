"""Quickstart: compress data with AVR and inspect the quality knob.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import AVRCompressor, ErrorThresholds
from repro.common.constants import VALUES_PER_BLOCK


def main() -> None:
    rng = np.random.default_rng(7)

    # --- some approximable data: a smooth field + mild sensor noise -----
    x = np.linspace(0.0, 6.0, 64 * VALUES_PER_BLOCK)
    data = (np.sin(x) * 40.0 + 100.0).astype(np.float32)
    data += rng.normal(0.0, 0.05, data.size).astype(np.float32)
    blocks = data.reshape(-1, VALUES_PER_BLOCK)

    print("AVR quickstart: 64 KB of smooth sensor data")
    print(f"  blocks: {blocks.shape[0]} x 1 KB\n")

    # --- the tunable error knob (paper: T1 = 2 * T2) ---------------------
    print(f"  {'T2 knob':>8}  {'ratio':>7}  {'mean err':>9}  {'outliers/blk':>12}")
    for t2 in (0.04, 0.01, 0.0025, 0.001):
        comp = AVRCompressor(ErrorThresholds.from_t2(t2))
        result = comp.compress_blocks(blocks)
        err = np.abs(result.reconstructed - blocks) / np.abs(blocks)
        print(
            f"  {t2:8.4f}  {result.compression_ratio:6.1f}x"
            f"  {err.mean() * 100:8.3f}%  {result.outlier_count.mean():12.1f}"
        )

    # --- the decompressor: summaries + CMT fields -> values -------------
    comp = AVRCompressor(ErrorThresholds.from_t2(0.001))
    res = comp.compress_blocks(blocks)
    ok = res.success
    out = comp.decompress_blocks(res.summaries[ok], res.method[ok], res.bias[ok])
    # outliers are stored verbatim and overlaid after reconstruction
    mask = res.outlier_mask[ok]
    out[mask] = blocks[ok][mask]
    assert np.array_equal(out, res.reconstructed[ok])
    print(f"\n  {int(ok.sum())} compressed blocks, "
          f"{int(res.size_cachelines[ok].sum())} cachelines stored, "
          f"{int(res.outlier_count[ok].sum())} outliers")
    print("  decompress_blocks + outlier overlay reproduces the approximation exactly")


if __name__ == "__main__":
    main()
