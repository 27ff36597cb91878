"""Compressed-size computation.

After downsampling and reconstruction, each value is checked against the
per-value threshold T1 (the check modes live with the compressor, in
:mod:`repro.compression.compressor`).  Failing values become
*outliers*: stored verbatim in the compressed block behind a 256-bit
location bitmap (half a cacheline).  This module sizes such a block.
"""

from __future__ import annotations

import numpy as np

from ..common.constants import BITMAP_BYTES, CACHELINE_BYTES, VALUE_BYTES


def compressed_size_cachelines(outlier_counts: np.ndarray) -> np.ndarray:
    """Cachelines needed for summary + bitmap + outliers, per block.

    With zero outliers the compressed block is the summary cacheline
    alone.  Otherwise the half-cacheline bitmap and the packed 32-bit
    outliers follow, rounded up to whole cachelines.  Sizes above
    :data:`~repro.common.constants.MAX_COMPRESSED_CACHELINES` mean the
    compression attempt fails.
    """
    counts = np.asarray(outlier_counts, dtype=np.int64)
    payload = CACHELINE_BYTES + BITMAP_BYTES + VALUE_BYTES * counts
    size = -(-payload // CACHELINE_BYTES)  # ceil division
    return np.where(counts == 0, 1, size).astype(np.int32)
