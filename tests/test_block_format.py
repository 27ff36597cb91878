"""Tests for the compressed-block byte format (the oracle's Fig. 2a image)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import CompressedBlock
from repro.common.constants import CACHELINE_BYTES, SUMMARY_VALUES, VALUES_PER_BLOCK
from repro.common.types import CompressionMethod


def make_block(n_outliers=0, method=CompressionMethod.DOWNSAMPLE_1D, bias=3):
    rng = np.random.default_rng(n_outliers)
    summary = rng.integers(-(2**30), 2**30, SUMMARY_VALUES).astype(np.int32)
    mask = np.zeros(VALUES_PER_BLOCK, dtype=bool)
    if n_outliers:
        mask[rng.choice(VALUES_PER_BLOCK, n_outliers, replace=False)] = True
    bits = rng.integers(0, 2**32, int(mask.sum()), dtype=np.uint64).astype(np.uint32)
    return CompressedBlock(
        method=method, bias=bias, summary=summary,
        outlier_mask=mask, outlier_bits=bits,
    )


class TestConstruction:
    def test_summary_shape_enforced(self):
        with pytest.raises(ValueError):
            CompressedBlock(
                method=CompressionMethod.DOWNSAMPLE_1D,
                bias=0,
                summary=np.zeros(8, dtype=np.int32),
            )

    def test_mask_count_must_match_bits(self):
        mask = np.zeros(VALUES_PER_BLOCK, dtype=bool)
        mask[0] = True
        with pytest.raises(ValueError):
            CompressedBlock(
                method=CompressionMethod.DOWNSAMPLE_2D,
                bias=0,
                summary=np.zeros(SUMMARY_VALUES, dtype=np.int32),
                outlier_mask=mask,
                outlier_bits=np.zeros(0, dtype=np.uint32),
            )

    def test_uncompressed_method_rejected(self):
        with pytest.raises(ValueError):
            CompressedBlock(
                method=CompressionMethod.UNCOMPRESSED,
                bias=0,
                summary=np.zeros(SUMMARY_VALUES, dtype=np.int32),
            )


class TestSizes:
    def test_no_outliers_one_cacheline(self):
        assert make_block(0).size_cachelines == 1
        assert make_block(0).free_cachelines == 15

    def test_size_grows_with_outliers(self):
        assert make_block(1).size_cachelines == 2
        assert make_block(40).size_cachelines == 4

    @given(st.integers(min_value=0, max_value=104))
    def test_packed_length_matches_size(self, n):
        block = make_block(n)
        assert len(block.pack()) == block.size_cachelines * CACHELINE_BYTES


class TestPackUnpack:
    @pytest.mark.parametrize("n_outliers", [0, 1, 7, 31, 104])
    def test_roundtrip(self, n_outliers):
        block = make_block(n_outliers)
        rebuilt = CompressedBlock.unpack(
            block.pack(), block.method, block.bias, block.size_cachelines
        )
        assert rebuilt.method == block.method
        assert rebuilt.bias == block.bias
        assert np.array_equal(rebuilt.summary, block.summary)
        assert np.array_equal(rebuilt.outlier_mask, block.outlier_mask)
        assert np.array_equal(rebuilt.outlier_bits, block.outlier_bits)

    def test_summary_lives_in_first_cacheline(self):
        block = make_block(0)
        raw = np.frombuffer(block.pack(), dtype=np.uint8)
        assert np.array_equal(
            raw[:CACHELINE_BYTES].view(np.int32), block.summary
        )

    def test_unpack_rejects_short_image(self):
        block = make_block(5)
        with pytest.raises(ValueError):
            CompressedBlock.unpack(
                block.pack()[:-1], block.method, block.bias, block.size_cachelines
            )

    def test_unpack_rejects_zero_size(self):
        with pytest.raises(ValueError):
            CompressedBlock.unpack(b"", CompressionMethod.DOWNSAMPLE_1D, 0, 0)

    @given(st.integers(min_value=-128, max_value=127))
    def test_bias_is_metadata_not_image(self, bias):
        """Two blocks differing only in bias produce identical images:
        the bias travels in the CMT, not the block."""
        a = make_block(3, bias=bias)
        b = make_block(3, bias=0)
        assert a.pack() == b.pack()
