"""Tests for the AVR compressor/decompressor pipeline."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.constants import BLOCK_CACHELINES, MAX_COMPRESSED_CACHELINES, VALUES_PER_BLOCK
from repro.common.types import CompressionMethod, DataType, ErrorThresholds
from repro.compression import AVRCompressor
from repro.compression.block import CompressedBlock


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


class TestScalarAPI:
    def test_compress_block_roundtrip(self, compressor, smooth_blocks):
        block, recon = compressor.compress_block(smooth_blocks[0])
        assert block is not None
        out = compressor.decompress_block(block)
        assert np.array_equal(out, recon)

    def test_failed_block_returns_none(self, compressor, noisy_blocks):
        block, recon = compressor.compress_block(noisy_blocks[0])
        assert block is None
        assert np.array_equal(recon, noisy_blocks[0])

    def test_pack_unpack_decompress_identical(self, compressor, smooth_blocks):
        data = smooth_blocks[3].copy()
        data[100] = 99.0  # force an outlier
        block, recon = compressor.compress_block(data)
        assert block is not None and block.outlier_count >= 1
        rebuilt = CompressedBlock.unpack(
            block.pack(), block.method, block.bias, block.size_cachelines
        )
        out = compressor.decompress_block(rebuilt)
        assert np.array_equal(out, recon)

    def test_decompress_blocks_requires_compressed(self, compressor):
        with pytest.raises(ValueError):
            compressor.decompress_blocks(
                np.zeros((1, 16), dtype=np.int32),
                np.array([CompressionMethod.UNCOMPRESSED]),
                np.zeros(1, dtype=np.int16),
            )


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
