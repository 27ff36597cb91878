"""Outlier bitmaps and compressed-size computation.

After downsampling and reconstruction, each value is checked against the
per-value threshold T1 (the check modes live with the compressor, in
:mod:`repro.compression.compressor`).  Failing values become
*outliers*: stored verbatim in the compressed block behind a 256-bit
location bitmap (half a cacheline).  This module sizes such a block
and packs its bitmap.
"""

from __future__ import annotations

import numpy as np

from ..common.constants import (
    BITMAP_BYTES,
    CACHELINE_BYTES,
    MAX_COMPRESSED_CACHELINES,
    VALUE_BYTES,
    VALUES_PER_BLOCK,
)


def compressed_size_cachelines(outlier_counts: np.ndarray) -> np.ndarray:
    """Cachelines needed for summary + bitmap + outliers, per block.

    With zero outliers the compressed block is the summary cacheline
    alone.  Otherwise the half-cacheline bitmap and the packed 32-bit
    outliers follow, rounded up to whole cachelines.  Sizes above
    :data:`MAX_COMPRESSED_CACHELINES` mean the compression attempt fails.
    """
    counts = np.asarray(outlier_counts, dtype=np.int64)
    payload = CACHELINE_BYTES + BITMAP_BYTES + VALUE_BYTES * counts
    size = -(-payload // CACHELINE_BYTES)  # ceil division
    return np.where(counts == 0, 1, size).astype(np.int32)


def pack_bitmap(outliers: np.ndarray) -> np.ndarray:
    """Pack a (nblocks, 256) boolean mask into (nblocks, 32) bytes."""
    outliers = np.asarray(outliers, dtype=bool)
    if outliers.ndim != 2 or outliers.shape[1] != VALUES_PER_BLOCK:
        raise ValueError(f"expected (nblocks, {VALUES_PER_BLOCK}), got {outliers.shape}")
    packed = np.packbits(outliers, axis=1)
    assert packed.shape[1] == BITMAP_BYTES
    return packed


def unpack_bitmap(packed: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_bitmap`."""
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 2 or packed.shape[1] != BITMAP_BYTES:
        raise ValueError(f"expected (nblocks, {BITMAP_BYTES}), got {packed.shape}")
    return np.unpackbits(packed, axis=1).astype(bool)


def max_outliers_for_size(size_cachelines: int = MAX_COMPRESSED_CACHELINES) -> int:
    """Largest outlier count that still fits in ``size_cachelines``."""
    budget = size_cachelines * CACHELINE_BYTES - CACHELINE_BYTES - BITMAP_BYTES
    return max(0, budget // VALUE_BYTES)
