"""Tests for the AVR compressor/decompressor pipeline."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.constants import BLOCK_CACHELINES, MAX_COMPRESSED_CACHELINES, VALUES_PER_BLOCK
from repro.common.types import CompressionMethod, DataType, ErrorThresholds
from repro.compression import AVRCompressor
from repro.compression.compressor import CHECK_MODES
from repro.fixedpoint.bias import BIAS_FIELD_MAX

D1, D2 = CompressionMethod.DOWNSAMPLE_1D, CompressionMethod.DOWNSAMPLE_2D
FIELDS = (
    "success", "method", "bias", "size_cachelines", "outlier_count",
    "avg_error", "reconstructed", "summaries", "outlier_mask",
)


def bits(array: np.ndarray) -> np.ndarray:
    """Floats as their bit patterns, so NaN payloads and signed zeros compare."""
    if array.dtype.kind == "f":
        return array.view(np.dtype(f"u{array.itemsize}"))
    return array



@pytest.fixture
def compressor():
    return AVRCompressor(ErrorThresholds(t1=0.02, t2=0.01))


class TestBatchCompression:
    def test_smooth_blocks_compress(self, compressor, smooth_blocks):
        res = compressor.compress_blocks(smooth_blocks)
        assert res.success.all()
        assert res.compression_ratio > 8.0
        assert (res.size_cachelines <= MAX_COMPRESSED_CACHELINES).all()

    def test_noise_fails(self, compressor, noisy_blocks):
        res = compressor.compress_blocks(noisy_blocks)
        assert not res.success.any()
        assert (res.size_cachelines == BLOCK_CACHELINES).all()
        assert (res.method == CompressionMethod.UNCOMPRESSED).all()

    def test_failed_blocks_pass_through(self, compressor, noisy_blocks):
        res = compressor.compress_blocks(noisy_blocks)
        assert np.array_equal(res.reconstructed, noisy_blocks)

    def test_constant_blocks_one_cacheline(self, compressor):
        blocks = np.full((4, VALUES_PER_BLOCK), 3.25, dtype=np.float32)
        res = compressor.compress_blocks(blocks)
        assert res.success.all()
        assert (res.size_cachelines == 1).all()
        assert (res.outlier_count == 0).all()
        assert np.allclose(res.reconstructed, 3.25, rtol=1e-6)

    def test_error_bound_honored(self, compressor, smooth_blocks):
        """Every non-outlier reconstructed value obeys the hybrid bound:
        within T1 relatively, or within T1 of the block scale."""
        res = compressor.compress_blocks(smooth_blocks)
        t1 = compressor.thresholds.t1
        rel = np.abs(res.reconstructed - smooth_blocks) / np.abs(smooth_blocks)
        scale = np.abs(smooth_blocks).max(axis=1, keepdims=True)
        absn = np.abs(res.reconstructed - smooth_blocks) / scale
        ok = (rel <= t1 * 1.01) | (absn <= t1 * 1.01)
        assert ok.all()

    def test_outliers_restored_exactly(self, compressor, rng):
        blocks = np.linspace(1, 2, VALUES_PER_BLOCK, dtype=np.float32)[None, :].repeat(4, 0)
        # inject spikes that must become outliers
        blocks[:, 37] = 50.0
        blocks[:, 200] = -7.0
        res = compressor.compress_blocks(blocks)
        assert res.success.all()
        assert res.outlier_mask[:, 37].all()
        assert res.outlier_mask[:, 200].all()
        assert (res.reconstructed[:, 37] == 50.0).all()
        assert (res.reconstructed[:, 200] == -7.0).all()

    def test_shape_validation(self, compressor):
        with pytest.raises(ValueError):
            compressor.compress_blocks(np.zeros((2, 100), dtype=np.float32))

    def test_bias_used_for_extreme_magnitudes(self, compressor):
        tiny = np.linspace(1e-12, 2e-12, VALUES_PER_BLOCK, dtype=np.float32)[None, :]
        res = compressor.compress_blocks(tiny)
        assert res.success.all()
        assert res.bias[0] > 0
        rel = np.abs(res.reconstructed - tiny) / tiny
        assert rel.max() < 0.05

    def test_huge_magnitudes(self, compressor):
        huge = np.linspace(1e12, 2e12, VALUES_PER_BLOCK, dtype=np.float32)[None, :]
        res = compressor.compress_blocks(huge)
        assert res.success.all()
        assert res.bias[0] < 0

    def test_special_values_dont_crash(self, compressor):
        blocks = np.ones((1, VALUES_PER_BLOCK), dtype=np.float32)
        blocks[0, 5] = np.inf
        blocks[0, 9] = np.nan
        res = compressor.compress_blocks(blocks)
        # specials force outliers or failure, never corruption
        if res.success[0]:
            assert np.isinf(res.reconstructed[0, 5])
            assert np.isnan(res.reconstructed[0, 9])
        else:
            assert np.array_equal(
                res.reconstructed[0], blocks[0], equal_nan=True
            )

    def test_method_selection_prefers_smaller(self, compressor, rng):
        # A pure 1D ramp favours the 1D method or ties; both valid, but
        # the chosen method must be one of the two compressed variants.
        ramp = np.linspace(0, 1, VALUES_PER_BLOCK, dtype=np.float32)[None, :] + 1
        res = compressor.compress_blocks(ramp)
        assert res.method[0] in (
            CompressionMethod.DOWNSAMPLE_1D,
            CompressionMethod.DOWNSAMPLE_2D,
        )

    def test_recompression_stable(self, compressor, smooth_blocks):
        """Round-tripping already-approximated data is (near) lossless —
        the property that stops iterative error accumulation."""
        r1 = compressor.compress_blocks(smooth_blocks)
        r2 = compressor.compress_blocks(r1.reconstructed)
        assert r2.success.all()
        delta = np.abs(r2.reconstructed - r1.reconstructed)
        scale = np.abs(r1.reconstructed).max()
        assert delta.max() <= 2e-3 * scale


class TestFixedPointPath:
    def test_fixed_smooth_compresses(self, compressor):
        blocks = (np.linspace(0, 10000, VALUES_PER_BLOCK).astype(np.int32))[None, :]
        blocks = blocks + 100000
        res = compressor.compress_blocks(blocks, DataType.FIXED32)
        assert res.success.all()
        assert res.bias[0] == 0

    def test_fixed_error_bound(self, compressor):
        blocks = (100000 + np.arange(VALUES_PER_BLOCK) * 10).astype(np.int32)[None, :]
        res = compressor.compress_blocks(blocks, DataType.FIXED32)
        rel = np.abs(
            res.reconstructed.astype(np.float64) - blocks
        ) / np.abs(blocks)
        assert rel[~res.outlier_mask].max() <= compressor.thresholds.t1

    def test_fixed_noise_fails(self, compressor, rng):
        blocks = rng.integers(-(10**8), 10**8, (4, VALUES_PER_BLOCK)).astype(np.int32)
        res = compressor.compress_blocks(blocks, DataType.FIXED32)
        assert not res.success.any()


class TestDecompressBlocks:
    def test_decompress_blocks_requires_compressed(self, compressor):
        with pytest.raises(ValueError):
            compressor.decompress_blocks(
                np.zeros((1, 16), dtype=np.int32),
                np.array([CompressionMethod.UNCOMPRESSED]),
                np.zeros(1, dtype=np.int16),
            )

    def test_failed_block_carries_no_metadata(self, compressor, rng):
        """A block stored as it is has no bias, outliers or mask, even where
        its compression attempt chose a bias (-28 at 1e10)."""
        noise = (rng.normal(0.0, 1.0, (1, VALUES_PER_BLOCK)) * 1e10).astype(np.float32)
        res = compressor.compress_blocks(noise)
        assert not res.success[0]
        assert res.bias[0] == 0 and res.outlier_count[0] == 0
        assert not res.outlier_mask.any()

    def test_unbias_flushes_underflow(self, compressor):
        """One fixed-point unit at the largest bias is 2^-151, below
        float32's smallest denormal: it reads back as +0, quietly."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = compressor.decompress_blocks(
                np.ones((2, 16), dtype=np.int32), np.array([D1, D2]),
                np.full(2, BIAS_FIELD_MAX, dtype=np.int16),
            )
        assert out.dtype == np.float32
        assert not bits(out).any()

    def test_zero_bias_identity(self, compressor):
        """At bias 0 only the Q8.24 scale is removed: 2^24 reads back 1.0."""
        summaries = np.full((2, 16), 1 << 24, dtype=np.int32)
        out = compressor.decompress_blocks(summaries, np.array([D1, D2]), np.zeros(2))
        assert out.dtype == np.float32
        assert (out == 1.0).all()

    def test_fixed32_reads_back_unscaled(self, compressor):
        """FIXED32 summaries are the values themselves: no bias, no scale."""
        summaries = np.full((2, 16), 100_000, dtype=np.int32)
        out = compressor.decompress_blocks(
            summaries, np.array([D1, D2]), np.zeros(2), DataType.FIXED32
        )
        assert out.dtype == np.int32
        assert (out == 100_000).all()


#: bit patterns of the NaN and Inf values a block may hold
SPECIALS = {
    "nan": 0x7FC00000,
    "negative-nan-payload": 0xFFC01234,
    "signalling-nan": 0x7F800001,
    "+inf": 0x7F800000,
    "-inf": 0xFF800000,
}


@pytest.mark.parametrize("mode", CHECK_MODES)
@pytest.mark.parametrize("special", sorted(SPECIALS))
def test_special_value_never_approximated(special, mode):
    """A NaN or Inf reads back bit for bit and leaves its neighbours finite.

    The hardware and hybrid checks make it an outlier of a block with bias
    0.  The relative check's error on it is NaN, which fails the block's
    average, so the block is stored as it is.
    """
    block = np.linspace(1.0, 1.5, VALUES_PER_BLOCK, dtype=np.float32)[None, :]
    block.view(np.uint32)[0, 9] = SPECIALS[special]
    res = AVRCompressor(ErrorThresholds(t1=0.02, t2=0.01), check_mode=mode).compress_blocks(block)
    assert bits(res.reconstructed)[0, 9] == SPECIALS[special]
    assert np.isfinite(np.delete(res.reconstructed[0], 9)).all()
    if mode == "relative":
        assert not res.success[0]
    else:
        assert res.success[0] and res.outlier_mask[0, 9] and res.bias[0] == 0


def scaling_batch() -> np.ndarray:
    """Values of magnitude 0.25 to 9: smooth, spiked and sloped blocks that
    compress, and two that do not."""
    x = np.linspace(0.0, 1.0, VALUES_PER_BLOCK)
    smooth = 1.0 + 0.5 * np.sin(3 * x) + 0.3 * x
    spiked = smooth.copy()
    spiked[[7, 100, 201]] = [9.0, -3.0, 0.3]
    rng = np.random.default_rng(5)
    noise = rng.uniform(0.25, 4.0, VALUES_PER_BLOCK) * rng.choice([-1.0, 1.0], VALUES_PER_BLOCK)
    return np.array([smooth, spiked, x - 2.0, noise, 1.5 + np.sin(20 * x)], dtype=np.float32)


@pytest.mark.parametrize("mode", CHECK_MODES)
@pytest.mark.parametrize("k", [-60, -17, -1, 1, 9, 40])
def test_power_of_two_scaling_shifts_only_the_bias(k, mode):
    """Exponent biasing makes compression blind to a power-of-two scale.

    Scaling a block by 2^k moves its bias by -k, so the fixed-point
    integers, summaries, outliers, sizes and errors are unchanged and the
    reconstruction is scaled by exactly 2^k.
    """
    blocks = scaling_batch()
    factor = np.float32(2.0**k)
    comp = AVRCompressor(ErrorThresholds.from_t2(0.01), check_mode=mode)
    base = comp.compress_blocks(blocks)
    scaled = comp.compress_blocks(blocks * factor)
    assert base.success.tolist() == [True, True, True, False, False]
    for name in set(FIELDS) - {"bias", "reconstructed"}:
        assert np.array_equal(bits(getattr(scaled, name)), bits(getattr(base, name))), name
    assert np.array_equal(scaled.bias[:3], base.bias[:3] - k)
    assert np.array_equal(bits(scaled.reconstructed), bits(base.reconstructed * factor))


@pytest.mark.parametrize("other", ["hardware", "relative"])
@pytest.mark.parametrize("method", [D1, D2], ids=["1D", "2D"])
def test_hybrid_flags_a_subset(method, other):
    """Where the float check passes, so does the scale check: on finite
    values the hybrid mode flags no value the other modes pass."""
    x = np.linspace(0.0, 1.0, VALUES_PER_BLOCK)
    wavy = 2.0 + np.sin(5 * x)
    bumped = wavy * np.where(np.random.default_rng(3).random(VALUES_PER_BLOCK) < 0.1, 1.3, 1.0)
    flat = 1.0 + 1e-6 * np.random.default_rng(4).normal(0.0, 1.0, VALUES_PER_BLOCK)
    blocks = np.array([wavy, bumped, x - 0.5, np.sin(9 * x), flat, np.where(x < 0.5, 0.0, 1.0) + x],
                      dtype=np.float32)
    th = ErrorThresholds.from_t2(0.05)
    hybrid = AVRCompressor(th, check_mode="hybrid", methods=(method,)).compress_blocks(blocks)
    res = AVRCompressor(th, check_mode=other, methods=(method,)).compress_blocks(blocks)
    both = hybrid.success & res.success
    assert (hybrid.outlier_count[both] < res.outlier_count[both]).any()
    assert not (hybrid.outlier_mask[both] & ~res.outlier_mask[both]).any()


def mixed_rows(dtype: DataType) -> np.ndarray:
    """Rows that compress, fail, carry outliers, specials or zeros."""
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 1.0, VALUES_PER_BLOCK)
    if dtype == DataType.FIXED32:
        ramp = 100_000 + np.arange(VALUES_PER_BLOCK) * 10
        spiked = ramp.copy()
        spiked[[3, 77]] = [10**9, -5]
        noise = rng.integers(-(10**8), 10**8, VALUES_PER_BLOCK)
        return np.array([ramp, spiked, noise, np.zeros(VALUES_PER_BLOCK), -ramp], dtype=np.int32)
    smooth = 2.0 + np.sin(5 * x)
    spiked = smooth.copy()
    spiked[[3, 77, 250]] = [40.0, -1.0, 1e-3]
    special = smooth.copy()
    special[[10, 11]] = [np.nan, np.inf]
    rows = [smooth, spiked, special, np.zeros(VALUES_PER_BLOCK), rng.normal(0, 1, VALUES_PER_BLOCK),
            smooth * 1e-25, smooth * 1e25, x - 0.5]
    return np.array(rows, dtype=np.float32)


@pytest.mark.parametrize("dtype", [DataType.FLOAT32, DataType.FIXED32])
@pytest.mark.parametrize("mode", CHECK_MODES)
def test_rows_compress_independently(mode, dtype):
    """The stacked pass shares its products across a batch, but each
    row's result is what that row gets alone."""
    blocks = mixed_rows(dtype)
    comp = AVRCompressor(ErrorThresholds(t1=0.02, t2=0.01), check_mode=mode)
    whole = comp.compress_blocks(blocks, dtype)
    assert whole.success.any() and not whole.success.all()
    for i in range(blocks.shape[0]):
        alone = comp.compress_blocks(blocks[i : i + 1], dtype)
        for name in FIELDS:
            got = getattr(whole, name)[i : i + 1]
            want = getattr(alone, name)
            assert got.dtype == want.dtype and np.array_equal(bits(got), bits(want)), (i, name)


class TestThresholdKnob:
    """The tunable error knob: tighter thresholds -> lower error, lower ratio."""

    def test_ratio_monotone_in_threshold(self, rng):
        x = np.linspace(0, 1, VALUES_PER_BLOCK, dtype=np.float32)
        blocks = (np.sin(12 * x)[None, :] + 2.0).repeat(16, 0)
        blocks += rng.normal(0, 0.002, blocks.shape).astype(np.float32)
        ratios = []
        for t2 in (0.04, 0.01, 0.0025):
            comp = AVRCompressor(ErrorThresholds.from_t2(t2))
            ratios.append(comp.compress_blocks(blocks).compression_ratio)
        assert ratios[0] >= ratios[1] >= ratios[2]

    @given(st.floats(min_value=0.001, max_value=0.2))
    def test_from_t2_relation(self, t2):
        th = ErrorThresholds.from_t2(t2)
        assert th.t1 == pytest.approx(min(1.0, 2 * t2))


class TestConstructorValidation:
    def test_typo_check_mode_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown check mode"):
            AVRCompressor(check_mode="hybird")

    @pytest.mark.parametrize("mode", ["hardware", "relative", "hybrid"])
    def test_valid_check_modes_accepted(self, mode):
        assert AVRCompressor(check_mode=mode).check_mode == mode

    def test_fixed32_compression_unaffected_by_mode(self):
        """The FIXED32 path never consults check_mode — a typo there
        used to be silently ignored, which is why the constructor now
        validates eagerly.  All valid modes must behave identically."""
        blocks = (np.arange(VALUES_PER_BLOCK, dtype=np.int32) * 3)[None, :]
        results = [
            AVRCompressor(check_mode=mode).compress_blocks(
                blocks, DataType.FIXED32
            )
            for mode in ("hardware", "relative", "hybrid")
        ]
        assert all(
            np.array_equal(r.size_cachelines, results[0].size_cachelines)
            for r in results[1:]
        )


class TestCompressionRatioEdgeCases:
    def test_empty_batch_ratio_is_neutral(self, compressor):
        res = compressor.compress_blocks(
            np.empty((0, VALUES_PER_BLOCK), dtype=np.float32)
        )
        assert res.nblocks == 0
        assert res.compression_ratio == 1.0

    def test_zero_storage_with_blocks_is_inf(self, compressor, smooth_blocks):
        res = compressor.compress_blocks(smooth_blocks)
        res.size_cachelines = np.zeros_like(res.size_cachelines)
        assert res.compression_ratio == float("inf")


@pytest.mark.parametrize("nblocks", [81, 1228])
def test_compress_blocks_transient_memory_per_block(nblocks):
    """Guard the stacked pass's peak: it frees the integer stage before
    the error pass, so a smooth batch peaks at no more than 18,000 bytes
    per block (the stacked pass reads 8,000-9,100; the per-variant
    passes it replaced read 20,000-21,200)."""
    rng = np.random.default_rng(0)
    x = np.linspace(0.0, 1.0, VALUES_PER_BLOCK, dtype=np.float32)
    blocks = x[None, :] * rng.uniform(0.5, 2.0, (nblocks, 1)).astype(np.float32) + 1.0
    comp = AVRCompressor(ErrorThresholds.from_t2(0.01))
    comp.compress_blocks(blocks)  # build the stacked tables outside the trace
    tracemalloc.start()
    try:
        res = comp.compress_blocks(blocks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.success.all()
    assert peak / nblocks <= 18_000, f"{peak / nblocks:.0f} B/block"
