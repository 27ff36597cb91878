"""The AVR compressor/decompressor pipeline (paper §3.3, Figure 4).

The batch API (:meth:`AVRCompressor.compress_blocks`) processes an
``(nblocks, 256)`` array in one stacked pass.  The hardware tries the
1D and 2D placements of every block in parallel and keeps the better
one; the model does the same with the variants on a leading axis:

1. **Batch invariants, once.**  From the float32 magnitudes' bit
   patterns: the per-block exponent bias, the rows holding NaN or Inf,
   and (hybrid mode) the block scale, the largest finite magnitude
   floored at 1e-30.
2. **Fixed point.**  ``rint(x * 2^(bias + frac_bits))``, saturated to
   int32 (NaN becomes 0).  The product is exact, so this equals biasing
   first and converting second.
3. **All summaries in one product, all reconstructions as products**
   (:func:`~repro.compression.downsample.summarize`,
   :func:`~repro.compression.downsample.reconstruct_stack`): integer-
   exact float64 GEMMs, giving a ``(k, nblocks, 256)`` stack for the
   ``k`` requested variants.
4. **Back to float32** with one ``r * 2^-(bias + frac_bits)`` (exact in
   float64) and one float32 rounding.
5. **One outlier check, one error check and one choice over the stack.**
   The chosen variant has the smaller compressed size, ties broken on
   the smaller average error, earlier variants winning exact ties; one
   gather per output array picks it.

The check modes (``"hardware"``, ``"relative"``, ``"hybrid"``):

* ``"hardware"`` — the paper's single-cycle float comparison: signs and
  exponents must match and the mantissa difference must stay below the
  N-th most significant mantissa bit (error < 1/2^N, N from T1).  With
  ``(r_bits ^ x_bits) < 2^23`` (sign and exponent match), the int32
  difference of the bit patterns *is* the mantissa difference.  The
  block average error is the mean mantissa difference over 2^23.
* ``"relative"`` — the exact relative error ``|r - x| / max(|x|,
  1e-30)`` against T1.
* ``"hybrid"`` (default) — a value passes the float check *or* lies
  within T1 of the block scale.  The second disjunct models the
  fixed-point datapath: AVR compares per-block-biased fixed-point
  numbers ("for fixed point numbers a subtraction and a subsequent
  comparison would be required"), an *absolute* comparison at the
  block's magnitude.  Without it, any block holding near-zero values
  would be all-outliers even when the reconstruction is essentially
  exact.  Two facts reduce the mode to one comparison and one division:

  - The float check implies the scale check.  With ``N = clip(ceil(
    -log2 T1), 1, 23)``, a pass means ``|r - x| < 2^-N |x|`` for a
    normal ``x`` (the mantissas differ by less than ``2^(23-N)`` units
    of its binade) and ``|r - x| < 2^-N 2^-126`` for a denormal or zero
    ``x``; ``2^-N <= T1``, except where ``N = 23`` clips and a pass
    means ``r == x``; and ``scale >= max(|x|, 1e-30)``.  The difference
    of two float32 values with one exponent is exact in float64, so a
    value is an outlier exactly when ``not |r - x| <= T1 * scale``.
  - Each value's error is ``min(|r - x| / max(|x|, 1e-30), |r - x| /
    scale)``, and that is ``|r - x| / scale`` for every finite ``x``:
    ``scale >= max(|x|, 1e-30)`` and rounded division is monotone in
    the divisor.  A NaN or Inf original is always an outlier (its
    block has bias 0, so its reconstruction is finite and fails both
    disjuncts), so the value its error takes never reaches a mean.

The masked mean of a block is a contiguous per-row ``sum`` over an
array whose outliers were overwritten with 0 — never a product with the
mask (NaN x 0 is NaN) nor a matmul (it would reorder the sum).

The FIXED32 path skips biasing and conversion and always applies the
relative check to the integer values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common import bitops
from ..common.constants import BLOCK_CACHELINES, MAX_COMPRESSED_CACHELINES, VALUES_PER_BLOCK
from ..common.types import CompressionMethod, DataType, ErrorThresholds
from ..fixedpoint.bias import BIAS_FIELD_MAX, BIAS_FIELD_MIN, TARGET_MAX_EXPONENT
from ..fixedpoint.convert import DEFAULT_FORMAT, FixedPointFormat
from .downsample import METHODS, reconstruct_stack, summarize
from .outliers import compressed_size_cachelines

CHECK_MODES = ("hardware", "relative", "hybrid")

_ABS_MASK = np.uint32(0x7FFFFFFF)
_EXP_ONE = np.uint32(1 << bitops.EXP_SHIFT)
_INF_BITS = np.uint32(0x7F800000)


@dataclass
class BatchCompressionResult:
    """Per-block outcome of a batch compression pass.

    ``reconstructed`` holds the values a consumer would read back after
    a round trip through memory: the interpolated approximation with
    outliers restored verbatim, or the original values where the block
    failed to compress.
    """

    success: np.ndarray            # (B,) bool
    method: np.ndarray             # (B,) uint8 (CompressionMethod values)
    bias: np.ndarray               # (B,) int16
    size_cachelines: np.ndarray    # (B,) int32; BLOCK_CACHELINES where failed
    outlier_count: np.ndarray      # (B,) int32
    avg_error: np.ndarray          # (B,) float64 over non-outliers
    reconstructed: np.ndarray      # (B, 256) same dtype as input
    summaries: np.ndarray          # (B, 16) int32 fixed point
    outlier_mask: np.ndarray       # (B, 256) bool

    @property
    def nblocks(self) -> int:
        return int(self.success.size)

    @property
    def compression_ratio(self) -> float:
        """Aggregate ratio: original cachelines / stored cachelines.

        An empty batch stores nothing and saves nothing — its ratio is
        the neutral ``1.0``, not ``inf`` (which is reserved for the
        impossible nonzero-blocks/zero-storage case and would otherwise
        poison downstream means and table formatting).
        """
        if not self.nblocks:
            return 1.0
        stored = int(self.size_cachelines.sum())
        return self.nblocks * BLOCK_CACHELINES / stored if stored else float("inf")


#: the downsampling variants attempted in parallel by default
DEFAULT_METHODS = (
    CompressionMethod.DOWNSAMPLE_1D,
    CompressionMethod.DOWNSAMPLE_2D,
)


class AVRCompressor:
    """Vectorized model of the AVR compressor/decompressor module.

    ``methods`` restricts the placement variants attempted (ablation of
    the parallel method selection); ``enable_bias`` disables exponent
    biasing (ablation of §3.3's biasing stage).
    """

    def __init__(
        self,
        thresholds: ErrorThresholds | None = None,
        fmt: FixedPointFormat = DEFAULT_FORMAT,
        check_mode: str = "hybrid",
        methods: tuple[CompressionMethod, ...] = DEFAULT_METHODS,
        enable_bias: bool = True,
    ) -> None:
        self.thresholds = thresholds or ErrorThresholds()
        self.fmt = fmt
        if check_mode not in CHECK_MODES:
            # Validate eagerly: a typo would otherwise surface only in
            # the first compress_blocks call, and the FIXED32 path never
            # consults the mode at all.
            raise ValueError(
                f"unknown check mode {check_mode!r}; expected one of {CHECK_MODES}"
            )
        self.check_mode = check_mode
        if not methods or any(m not in METHODS for m in methods):
            raise ValueError(f"methods must be non-empty downsampling variants, got {methods}")
        self.methods = tuple(methods)
        self.enable_bias = enable_bias

    # ------------------------------------------------------------------
    # batch compression
    # ------------------------------------------------------------------
    def compress_blocks(
        self, blocks: np.ndarray, dtype: DataType = DataType.FLOAT32
    ) -> BatchCompressionResult:
        """Compress every row of an ``(nblocks, 256)`` array."""
        blocks = np.asarray(blocks)
        if blocks.ndim != 2 or blocks.shape[1] != VALUES_PER_BLOCK:
            raise ValueError(
                f"expected (nblocks, {VALUES_PER_BLOCK}), got {blocks.shape}"
            )
        nblocks = blocks.shape[0]
        methods = self.methods
        if dtype == DataType.FLOAT32:
            x = np.ascontiguousarray(blocks, dtype=np.float32)
            magnitude = x.view(np.uint32) & _ABS_MASK
            top = magnitude.max(axis=1)
            special = top >= _INF_BITS
            bias = self._bias(magnitude, top, special)
            fixed = self._to_fixed(x, bias, special)
            summaries = summarize(fixed, methods)
            del fixed
            stack = reconstruct_stack(summaries, methods)
            recon = np.empty(stack.shape, dtype=np.float32)
            np.multiply(stack, self._unscale(bias)[:, None], out=recon, casting="same_kind")
            del stack
            mask, avg = self._check_float(x, recon, magnitude, top, special)
        else:
            x = np.ascontiguousarray(blocks, dtype=np.int32)
            bias = np.zeros(nblocks, dtype=np.int16)
            summaries = summarize(x.astype(np.float64), methods)
            recon = reconstruct_stack(summaries, methods)
            magnitude = np.abs(x.astype(np.float64))
            mask, avg = self._check_relative(x, recon, magnitude)
        counts = mask.sum(axis=-1)
        sizes = compressed_size_cachelines(counts)

        # Choice: smaller size, ties on smaller error; earlier wins ties.
        choice = np.zeros(nblocks, dtype=np.intp)
        best_size, best_err = sizes[0], avg[0]
        for i in range(1, len(methods)):
            better = (sizes[i] < best_size) | ((sizes[i] == best_size) & (avg[i] < best_err))
            choice[better] = i
            best_size = np.where(better, sizes[i], best_size)
            best_err = np.where(better, avg[i], best_err)
        rows = np.arange(nblocks)
        chosen_mask = mask[choice, rows]
        del mask
        success = (best_size <= MAX_COMPRESSED_CACHELINES) & (best_err <= self.thresholds.t2)
        # Round-trip view: approximated values with outliers restored,
        # originals where compression failed.
        reconstructed = recon[choice, rows].astype(x.dtype, copy=False)
        np.copyto(reconstructed, x, where=chosen_mask | ~success[:, None])
        method = np.asarray(methods, dtype=np.uint8)[choice]
        return BatchCompressionResult(
            success=success,
            method=np.where(success, method, np.uint8(CompressionMethod.UNCOMPRESSED)),
            bias=np.where(success, bias, 0).astype(np.int16),
            size_cachelines=np.where(success, best_size, BLOCK_CACHELINES).astype(np.int32),
            outlier_count=np.where(success, counts[choice, rows], 0).astype(np.int32),
            avg_error=best_err,
            reconstructed=reconstructed,
            summaries=summaries[rows, choice].astype(np.int32),
            outlier_mask=chosen_mask & success[:, None],
        )

    def _bias(
        self, magnitude: np.ndarray, top: np.ndarray, special: np.ndarray
    ) -> np.ndarray:
        """Per-block exponent bias, 0 where biasing is skipped.

        ``magnitude`` holds the ``|x|`` bit patterns, ``top`` each row's
        largest and ``special`` the rows holding NaN or Inf.  The largest
        exponent is that of the largest magnitude.  The smallest
        *nonzero* exponent comes from ``magnitude - 2^23``: zeros and
        denormals wrap past every normal value.
        """
        if not self.enable_bias:
            return np.zeros(magnitude.shape[0], dtype=np.int16)
        maxe = (top >> bitops.EXP_SHIFT).astype(np.int32)
        mine = ((magnitude - _EXP_ONE).min(axis=1) + _EXP_ONE) >> bitops.EXP_SHIFT
        mine = mine.astype(np.int32)
        bias = TARGET_MAX_EXPONENT - maxe
        valid = (
            (maxe > 0)
            & ~special
            & (mine + bias >= 1)
            & (maxe + bias <= 254)
            & (bias >= BIAS_FIELD_MIN)
            & (bias <= BIAS_FIELD_MAX)
        )
        return np.where(valid, bias, 0).astype(np.int16)

    def _to_fixed(self, x: np.ndarray, bias: np.ndarray, special: np.ndarray) -> np.ndarray:
        """Biased, saturated fixed point of ``x`` as float64 integers."""
        scale = np.ldexp(1.0, bias.astype(np.int32) + self.fmt.frac_bits)
        # A signalling NaN flags "invalid" on its way through; special
        # rows are zeroed below.
        with np.errstate(invalid="ignore"):
            fixed = x * scale[:, None]
        np.rint(fixed, out=fixed)
        np.maximum(fixed, self.fmt.min_int, out=fixed)
        np.minimum(fixed, self.fmt.max_int, out=fixed)
        if special.any():
            fixed[special] = np.nan_to_num(fixed[special], nan=0.0)
        return fixed

    def _unscale(self, bias: np.ndarray) -> np.ndarray:
        """``2^-(bias + frac_bits)`` per block: fixed point back to float."""
        return np.ldexp(1.0, -(bias.astype(np.int32) + self.fmt.frac_bits))

    def _check_float(
        self,
        x: np.ndarray,
        recon: np.ndarray,
        magnitude: np.ndarray,
        top: np.ndarray,
        special: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Outlier mask ``(k, B, 256)`` and average error ``(k, B)``."""
        if self.check_mode == "relative":
            return self._check_relative(x, recon, magnitude.view(np.float32))
        if self.check_mode == "hardware":
            rbits = recon.view(np.int32)
            xbits = x.view(np.int32)
            diff = np.bitwise_xor(rbits, xbits)
            ok = diff.view(np.uint32) < _EXP_ONE
            np.subtract(rbits, xbits, out=diff)
            np.abs(diff, out=diff)
            ok &= diff < 1 << (23 - bitops.n_msbit_for_threshold(self.thresholds.t1))
            mask = np.logical_not(ok, out=ok)
            diff[mask] = 0
            kept = VALUES_PER_BLOCK - mask.sum(axis=-1)
            return mask, diff.sum(axis=-1) / float(1 << 23) / np.maximum(kept, 1)
        largest = top
        if special.any():
            largest = top.copy()
            rows = magnitude[special]
            largest[special] = np.where(rows < _INF_BITS, rows, 0).max(axis=1)
        scale = np.maximum(largest.view(np.float32), 1e-30, dtype=np.float64)[:, None]
        with np.errstate(invalid="ignore"):  # signalling NaNs, inf - inf
            err = np.subtract(recon, x, dtype=np.float64)
        np.abs(err, out=err)
        mask = ~(err <= self.thresholds.t1 * scale)
        err /= scale
        return mask, _masked_mean(err, mask)

    def _check_relative(
        self, x: np.ndarray, recon: np.ndarray, magnitude: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Relative-error outlier mask and average error of a stack."""
        with np.errstate(invalid="ignore"):  # signalling NaNs, inf - inf, inf / inf
            err = np.subtract(recon, x, dtype=np.float64)
            np.abs(err, out=err)
            err /= np.maximum(magnitude, 1e-30, dtype=np.float64)
        mask = err > self.thresholds.t1
        return mask, _masked_mean(err, mask)

    # ------------------------------------------------------------------
    # batch decompression
    # ------------------------------------------------------------------
    def decompress_blocks(
        self,
        summaries: np.ndarray,
        methods: np.ndarray,
        biases: np.ndarray,
        dtype: DataType = DataType.FLOAT32,
    ) -> np.ndarray:
        """Reconstruct ``(nblocks, 256)`` values from summaries.

        Outlier overlay is the caller's job (the decompressor places
        outliers from the bitmap *after* this reconstruction, Fig. 4).
        """
        summaries = np.asarray(summaries, dtype=np.int32)
        methods = np.asarray(methods)
        biases = np.asarray(biases, dtype=np.int16)
        if not bool(np.isin(methods, METHODS).all()):
            raise ValueError("decompress_blocks requires all blocks compressed")
        recon = np.empty((summaries.shape[0], VALUES_PER_BLOCK))
        for method in METHODS:
            rows = methods == method
            if rows.any():
                picked = summaries[rows].astype(np.float64)[:, None, :]
                recon[rows] = reconstruct_stack(picked, (method,))[0]
        if dtype == DataType.FIXED32:
            return recon.astype(np.int32)
        return (recon * self._unscale(biases)[:, None]).astype(np.float32)


def _masked_mean(err: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean of ``err`` over the non-outliers of each row (0 if none).

    Outliers are overwritten with 0 in place and each row is summed
    contiguously, so every row sums exactly as a lone ``(256,)`` row.
    """
    np.copyto(err, 0.0, where=mask)
    kept = VALUES_PER_BLOCK - mask.sum(axis=-1)
    return err.sum(axis=-1) / np.maximum(kept, 1)
