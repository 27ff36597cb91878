"""Tests for outlier detection, bitmaps and compressed-size math."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    block_average_error,
    detect_outliers,
    max_outliers_for_size,
    pack_bitmap,
    unpack_bitmap,
)
from repro.common.constants import (
    BITMAP_BYTES,
    CACHELINE_BYTES,
    MAX_COMPRESSED_CACHELINES,
    MAX_OUTLIERS,
    VALUES_PER_BLOCK,
)
from repro.common.types import ErrorThresholds
from repro.compression.outliers import compressed_size_cachelines

TH = ErrorThresholds(t1=0.02, t2=0.01)


def blocks_of(values):
    arr = np.asarray(values, dtype=np.float32)
    return np.broadcast_to(arr, (1, VALUES_PER_BLOCK)).copy()


class TestDetectOutliers:
    def test_exact_reconstruction_no_outliers(self):
        orig = blocks_of(np.linspace(1, 2, VALUES_PER_BLOCK))
        for mode in ("hardware", "relative", "hybrid"):
            assert not detect_outliers(orig, orig, TH, mode).any()

    def test_large_error_flagged_all_modes(self):
        orig = blocks_of(np.full(VALUES_PER_BLOCK, 1.0))
        recon = orig * 2.0
        for mode in ("hardware", "relative", "hybrid"):
            assert detect_outliers(orig, recon, TH, mode).all()

    def test_relative_mode_threshold_edge(self):
        orig = blocks_of(np.full(VALUES_PER_BLOCK, 100.0))
        recon = orig * 1.01
        assert not detect_outliers(orig, recon, TH, "relative").any()
        recon = orig * 1.05
        assert detect_outliers(orig, recon, TH, "relative").all()

    def test_hybrid_tolerates_near_zero_noise(self):
        """Values tiny relative to the block scale pass in hybrid mode
        even when their relative error is large (fixed-point subtract
        semantics), but fail in hardware mode."""
        orig = np.zeros((1, VALUES_PER_BLOCK), dtype=np.float32)
        orig[0, 0] = 1.0  # block scale
        orig[0, 1] = 1e-6
        recon = orig.copy()
        recon[0, 1] = 2e-6  # 100% relative error, tiny absolute
        assert detect_outliers(orig, recon, TH, "hardware")[0, 1]
        assert not detect_outliers(orig, recon, TH, "hybrid")[0, 1]

    def test_hybrid_matches_hardware_on_positive_data(self, rng):
        orig = rng.uniform(1.0, 1.9, (4, VALUES_PER_BLOCK)).astype(np.float32)
        recon = (orig * (1 + rng.normal(0, 0.01, orig.shape))).astype(np.float32)
        hw = detect_outliers(orig, recon, TH, "hardware")
        hy = detect_outliers(orig, recon, TH, "hybrid")
        # hybrid is strictly more permissive
        assert not (hy & ~hw).any()

    def test_unknown_mode(self):
        o = blocks_of([1.0] * VALUES_PER_BLOCK)
        with pytest.raises(ValueError):
            detect_outliers(o, o, TH, "bogus")


class TestBlockAverageError:
    def test_zero_for_exact(self):
        orig = blocks_of(np.linspace(1, 2, VALUES_PER_BLOCK))
        outliers = np.zeros_like(orig, dtype=bool)
        for mode in ("hardware", "relative", "hybrid"):
            assert block_average_error(orig, orig, outliers, mode)[0] == 0.0

    def test_outliers_excluded(self):
        orig = blocks_of(np.full(VALUES_PER_BLOCK, 1.0))
        recon = orig.copy()
        recon[0, 0] = 100.0  # wildly wrong, but marked outlier
        outliers = np.zeros_like(orig, dtype=bool)
        outliers[0, 0] = True
        err = block_average_error(orig, recon, outliers, "relative")[0]
        assert err == 0.0

    def test_all_outliers_scores_zero(self):
        orig = blocks_of(np.full(VALUES_PER_BLOCK, 1.0))
        outliers = np.ones_like(orig, dtype=bool)
        assert block_average_error(orig, orig * 3, outliers, "relative")[0] == 0.0

    def test_relative_mean(self):
        orig = blocks_of(np.full(VALUES_PER_BLOCK, 10.0))
        recon = orig * 1.02
        outliers = np.zeros_like(orig, dtype=bool)
        err = block_average_error(orig, recon, outliers, "relative")[0]
        assert err == pytest.approx(0.02, rel=1e-3)

    def test_hybrid_uses_block_scale_floor(self):
        orig = np.zeros((1, VALUES_PER_BLOCK), dtype=np.float32)
        orig[0, 0] = 100.0
        recon = orig.copy()
        recon[0, 1] = 0.1  # abs err 0.1 on a zero value; scale 100
        outliers = np.zeros_like(orig, dtype=bool)
        err = block_average_error(orig, recon, outliers, "hybrid")[0]
        assert err < 1e-4 * 100  # bounded by abs/scale, not rel/0


class TestCompressedSize:
    @pytest.mark.parametrize(
        "count,expected",
        [
            (0, 1),  # summary only
            (1, 2),  # summary + bitmap + 1 outlier -> 2 CLs
            (9, 2),
            (10, 3),  # 64+32+40=136 -> 3 CLs... boundary check below
            (MAX_OUTLIERS, 8),
            (MAX_OUTLIERS + 1, 9),
            (256, 18),
        ],
    )
    def test_sizes(self, count, expected):
        size = compressed_size_cachelines(np.array([count]))[0]
        payload = CACHELINE_BYTES + BITMAP_BYTES + 4 * count
        assert size == (expected if count == 0 else -(-payload // 64))

    def test_max_outliers_consistency(self):
        assert max_outliers_for_size(MAX_COMPRESSED_CACHELINES) == MAX_OUTLIERS
        assert max_outliers_for_size(2) == (2 * 64 - 64 - 32) // 4

    @given(st.integers(min_value=0, max_value=256))
    def test_size_monotone(self, count):
        a = compressed_size_cachelines(np.array([count]))[0]
        b = compressed_size_cachelines(np.array([count + 1]))[0]
        assert b >= a


class TestBitmap:
    def test_roundtrip(self, rng):
        masks = rng.random((8, VALUES_PER_BLOCK)) < 0.3
        assert np.array_equal(unpack_bitmap(pack_bitmap(masks)), masks)

    def test_packed_size_is_half_cacheline(self):
        packed = pack_bitmap(np.zeros((1, VALUES_PER_BLOCK), dtype=bool))
        assert packed.shape == (1, BITMAP_BYTES)
        assert BITMAP_BYTES == CACHELINE_BYTES // 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pack_bitmap(np.zeros((1, 100), dtype=bool))
        with pytest.raises(ValueError):
            unpack_bitmap(np.zeros((1, 16), dtype=np.uint8))

    @given(st.lists(st.booleans(), min_size=256, max_size=256))
    def test_roundtrip_property(self, bits):
        mask = np.array(bits, dtype=bool)[None, :]
        assert np.array_equal(unpack_bitmap(pack_bitmap(mask)), mask)
