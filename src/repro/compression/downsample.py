"""Downsampling compression and interpolated reconstruction (paper §3.3).

A 1 KB memory block holds 256 32-bit values.  Compression replaces each
sub-block of 16 values with its average, producing a 16-value summary
(exactly one cacheline → 16:1).  Two placement variants are attempted:

* **1D**: the block is a linear array; sub-blocks are 16 consecutive
  values; reconstruction linearly interpolates between segment centers.
* **2D**: the block is a 16 x 16 square; sub-blocks are 4 x 4 tiles;
  reconstruction bilinearly interpolates between tile centers (Fig. 5).

The arithmetic is the integer datapath of the hardware: a summary is
``(sum + 8) >> 4`` and a reconstructed value ``(n + 32) >> 6``, where
``n`` is an integer weighted sum of neighbouring summaries (2D weights
are the product of two per-axis weights in ``[-3, 11]``; 1D weights
are doubled, so ``(2a + 32) >> 6 == (a + 16) >> 5`` shares the shift).

Both directions are float64 matrix products over fixed tables:

* ``summary = floor(x @ M + 1/2)`` with ``M`` the ``(256, 16)``
  membership matrix scaled by 1/16;
* ``value = clip(floor(s @ W + 1/2))`` with ``W`` the ``(16, 256)``
  interpolation weights scaled by 1/64.  The 2D table is the Kronecker
  product of the per-axis ``(16, 4)`` interpolation, i.e. the separable
  column-then-row pass folded into one matrix.

They are exact for int32-range inputs.  Every operand is an integer
times a power of two (``2^-4`` or ``2^-6``) and every partial sum
stays below ``2^41`` in magnitude, so float64 holds each one exactly,
whatever order or fused multiply-adds the BLAS uses; ``floor(s / 16 +
1/2)`` and ``floor(n / 64 + 1/2)`` are then the arithmetic shifts.

Every function is vectorized over a batch axis: inputs have shape
``(nblocks, 256)`` (values) or ``(nblocks, 16)`` (summaries).
"""

from __future__ import annotations

import numpy as np

from ..common.constants import (
    BLOCK_SIDE_2D,
    SUBBLOCK_VALUES,
    SUMMARY_VALUES,
    TILE_SIDE_2D,
    TILES_PER_SIDE_2D,
    VALUES_PER_BLOCK,
)
from ..common.types import CompressionMethod

#: the placement variants the membership and weight tables cover
METHODS = (CompressionMethod.DOWNSAMPLE_1D, CompressionMethod.DOWNSAMPLE_2D)

_INT32_MIN = float(-(2**31))
_INT32_MAX = float(2**31 - 1)


def _interpolation(npos: int, ncenters: int, spacing: int) -> np.ndarray:
    """``(npos, ncenters)`` integer weights of linear interpolation.

    In half-unit coordinates (x2) position ``p`` sits at ``2p`` and
    center ``i`` at ``spacing * i + spacing/2 - 1``.  Each position
    weighs its two nearest centers with ``spacing - d`` and ``d``, so
    the weights sum to ``spacing``.  Past the outermost centers ``d``
    leaves ``[0, spacing]``: linear *extrapolation* from the edge pair.
    Clamping instead would flatten every block's edges, turning the
    edges of any sloped series into systematic outliers.
    """
    pos = 2 * np.arange(npos)
    centers = spacing * np.arange(ncenters) + spacing // 2 - 1
    low = np.clip((pos - centers[0]) // spacing, 0, ncenters - 2)
    d = pos - centers[low]
    weights = np.zeros((npos, ncenters), dtype=np.int64)
    weights[np.arange(npos), low] = spacing - d
    weights[np.arange(npos), low + 1] = d
    return weights


_Tables = dict[CompressionMethod, np.ndarray]


def _build_tables() -> tuple[_Tables, _Tables]:
    """Membership and reconstruction matrices of both variants.

    1D segment ``i`` covers positions ``[16i, 16i+15]``; centers are 32
    half-units apart (weights in ``[-15, 47]``).  2D tile ``(i, j)``
    covers rows ``[4i, 4i+3]`` and columns ``[4j, 4j+3]``; centers are
    8 half-units apart per axis (weights in ``[-3, 11]``).
    """
    member_1d = np.zeros((VALUES_PER_BLOCK, SUMMARY_VALUES))
    member_1d[np.arange(VALUES_PER_BLOCK), np.arange(VALUES_PER_BLOCK) // SUBBLOCK_VALUES] = 1
    rows, cols = np.divmod(np.arange(VALUES_PER_BLOCK), BLOCK_SIDE_2D)
    tile = (rows // TILE_SIDE_2D) * TILES_PER_SIDE_2D + cols // TILE_SIDE_2D
    member_2d = np.zeros((VALUES_PER_BLOCK, SUMMARY_VALUES))
    member_2d[np.arange(VALUES_PER_BLOCK), tile] = 1

    w1 = 2 * _interpolation(VALUES_PER_BLOCK, SUMMARY_VALUES, 32).T
    axis = _interpolation(BLOCK_SIDE_2D, TILES_PER_SIDE_2D, 8)
    # w2[i * 4 + j, r * 16 + c] = axis[r, i] * axis[c, j]
    w2 = np.einsum("ri,cj->ijrc", axis, axis).reshape(SUMMARY_VALUES, VALUES_PER_BLOCK)
    membership = {
        METHODS[0]: member_1d / SUBBLOCK_VALUES,
        METHODS[1]: member_2d / SUBBLOCK_VALUES,
    }
    weights = {METHODS[0]: w1 / 64.0, METHODS[1]: w2 / 64.0}
    return membership, weights


_MEMBERSHIP, _WEIGHTS = _build_tables()


def summarize(values: np.ndarray, methods: tuple[CompressionMethod, ...]) -> np.ndarray:
    """Summaries of every variant in one product -> ``(nblocks, k, 16)``.

    ``values`` is a float64 ``(nblocks, 256)`` array of int32-range
    integers; the result holds integers as float64.
    """
    sums = values @ np.hstack([_MEMBERSHIP[m] for m in methods])
    sums += 0.5
    np.floor(sums, out=sums)
    return sums.reshape(values.shape[0], len(methods), SUMMARY_VALUES)


def reconstruct_stack(
    summaries: np.ndarray, methods: tuple[CompressionMethod, ...]
) -> np.ndarray:
    """Saturated reconstructions of every variant -> ``(k, nblocks, 256)``.

    ``summaries`` is ``(nblocks, k, 16)`` (as :func:`summarize` returns
    it); variant ``i`` is reconstructed with ``methods[i]``'s table.
    """
    out = np.empty((len(methods), summaries.shape[0], VALUES_PER_BLOCK))
    for i, method in enumerate(methods):
        np.matmul(summaries[:, i, :], _WEIGHTS[method], out=out[i])
    out += 0.5
    np.floor(out, out=out)
    # Edge extrapolation can overshoot the fixed-point range slightly;
    # the hardware datapath saturates.
    np.maximum(out, _INT32_MIN, out=out)
    return np.minimum(out, _INT32_MAX, out=out)


def _check(array: np.ndarray, width: int) -> np.ndarray:
    array = np.asarray(array)
    if array.ndim != 2 or array.shape[1] != width:
        raise ValueError(f"expected shape (nblocks, {width}), got {array.shape}")
    return array.astype(np.float64)


def downsample_1d(blocks: np.ndarray) -> np.ndarray:
    """Average each run of 16 consecutive values -> (nblocks, 16) int32."""
    values = _check(blocks, VALUES_PER_BLOCK)
    return summarize(values, METHODS[:1])[:, 0, :].astype(np.int32)


def downsample_2d(blocks: np.ndarray) -> np.ndarray:
    """Average each 4x4 tile of the 16x16 view -> (nblocks, 16) int32."""
    values = _check(blocks, VALUES_PER_BLOCK)
    return summarize(values, METHODS[1:])[:, 0, :].astype(np.int32)


def reconstruct_1d(summaries: np.ndarray) -> np.ndarray:
    """Linear interpolation of 1D summaries -> (nblocks, 256) int32."""
    s = _check(summaries, SUMMARY_VALUES)
    return reconstruct_stack(s[:, None, :], METHODS[:1])[0].astype(np.int32)


def reconstruct_2d(summaries: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of 2D summaries -> (nblocks, 256) int32."""
    s = _check(summaries, SUMMARY_VALUES)
    return reconstruct_stack(s[:, None, :], METHODS[1:])[0].astype(np.int32)
