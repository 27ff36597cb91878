"""Tests for the fixed-point format, conversion and exponent biasing.

The conversions run on the oracle twins (:func:`oracles.to_fixed_reference`
and :func:`oracles.from_fixed_reference`, at bias 0), to which
``test_compressor_equivalence.py`` pins the compressor's own.  The
biasing properties run on the live compressor: the bias it reports for
a block it compressed.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import exponent_bits, from_fixed_reference, to_fixed_reference
from repro.common.constants import VALUES_PER_BLOCK
from repro.compression import AVRCompressor
from repro.fixedpoint import DEFAULT_FORMAT, FixedPointFormat
from repro.fixedpoint.bias import BIAS_FIELD_MAX, TARGET_MAX_EXPONENT

ZERO_BIAS = np.zeros(1, dtype=np.int16)
RESOLUTION = 1.0 / DEFAULT_FORMAT.scale
#: largest magnitude Q8.24 represents
FIXED_RANGE = DEFAULT_FORMAT.max_int / DEFAULT_FORMAT.scale


def to_fixed(values) -> np.ndarray:
    return to_fixed_reference(np.asarray(values, dtype=np.float32)[None, :], ZERO_BIAS)[0]


def from_fixed(fixed) -> np.ndarray:
    return from_fixed_reference(np.asarray(fixed)[None, :], ZERO_BIAS)[0]


def unsaturated(fixed: np.ndarray) -> bool:
    return bool(((fixed > DEFAULT_FORMAT.min_int) & (fixed < DEFAULT_FORMAT.max_int)).all())


class TestFormat:
    def test_default_q8_24(self):
        assert DEFAULT_FORMAT.frac_bits == 24
        assert FIXED_RANGE == pytest.approx(128.0, rel=1e-6)
        assert RESOLUTION == 2.0**-24

    def test_invalid_frac_bits(self):
        with pytest.raises(ValueError):
            FixedPointFormat(frac_bits=31)
        with pytest.raises(ValueError):
            FixedPointFormat(frac_bits=0)


class TestConvert:
    def test_roundtrip_in_range(self, rng):
        values = rng.uniform(-100.0, 100.0, 1000).astype(np.float32)
        fixed = to_fixed(values)
        assert unsaturated(fixed)
        back = from_fixed(fixed)
        assert np.abs(back - values).max() <= RESOLUTION

    def test_saturates_out_of_range(self):
        fixed = to_fixed([1e6, -1e6, 1.0])
        assert fixed[0] == DEFAULT_FORMAT.max_int
        assert fixed[1] == DEFAULT_FORMAT.min_int
        assert fixed[2] == 1 << 24

    def test_nan_becomes_zero(self):
        assert to_fixed([np.nan])[0] == 0

    def test_zero_exact(self):
        assert np.array_equal(to_fixed(np.zeros(4)), np.zeros(4, dtype=np.int32))

    @given(
        st.lists(
            st.floats(min_value=-127.0, max_value=127.0, width=32),
            min_size=1,
            max_size=64,
        )
    )
    def test_roundtrip_property(self, xs):
        values = np.array(xs, dtype=np.float32)
        fixed = to_fixed(values)
        assert unsaturated(fixed)
        back = from_fixed(fixed)
        assert np.abs(back.astype(np.float64) - values).max() <= 2 * RESOLUTION

    def test_biased_roundtrip(self, rng):
        """A bias brings out-of-range values into Q8.24: 1e6-2e6 saturate at
        bias 0, but at bias -16 they sit in [15, 31) with a resolution of
        2^-8, finer than float32's 2^-4 there, so they return exactly."""
        values = rng.uniform(1e6, 2e6, 64).astype(np.float32)
        assert not unsaturated(to_fixed(values))
        bias = np.array([-16], dtype=np.int16)
        fixed = to_fixed_reference(values[None, :], bias)
        assert unsaturated(fixed)
        assert np.array_equal(from_fixed_reference(fixed, bias)[0], values)


def compressed_bias(block) -> int:
    """The bias the compressor stores for ``block``, which must compress."""
    res = AVRCompressor().compress_blocks(np.asarray(block, dtype=np.float32)[None, :])
    assert res.success[0], "the bias is only stored for a compressed block"
    return int(res.bias[0])


def biased_max(block, bias: int) -> float:
    return float(np.abs(np.asarray(block, dtype=np.float64)).max()) * 2.0**bias


class TestBias:
    def test_large_values_get_negative_bias(self):
        block = np.full(VALUES_PER_BLOCK, 1e10, dtype=np.float32)
        bias = compressed_bias(block)
        assert bias == -28
        assert biased_max(block, bias) < FIXED_RANGE

    def test_small_values_get_positive_bias(self):
        assert compressed_bias(np.full(VALUES_PER_BLOCK, 1e-10)) == 39

    def test_bias_targets_sweet_spot(self):
        block = np.linspace(5e9, 1e10, VALUES_PER_BLOCK).astype(np.float32)
        bias = compressed_bias(block)
        biased = np.ldexp(block, bias).astype(np.float32)
        assert exponent_bits(biased).max() == TARGET_MAX_EXPONENT

    def test_specials_skip_bias(self):
        ramp = np.linspace(1.0, 2.0, VALUES_PER_BLOCK)
        assert compressed_bias(ramp) == 4
        for special in (np.nan, np.inf, -np.inf):
            block = ramp.copy()
            block[9] = special
            assert compressed_bias(block) == 0, special

    def test_all_zero_skips(self):
        assert compressed_bias(np.zeros(VALUES_PER_BLOCK)) == 0

    def test_wide_range_skips(self):
        # biasing 1e30 into range would underflow the small values' exponents
        block = np.linspace(1e-30, 2e-30, VALUES_PER_BLOCK)
        block[100] = 1e30
        assert compressed_bias(block) == 0

    def test_bias_fits_the_cmt_field(self):
        # 2^-122 has biased exponent 5 and needs bias 127, the field's
        # largest; 2^-123 would need 128, so it stays unbiased, rounds to
        # 0 in Q8.24 and reads back as 0 (below the hybrid check's 1e-30
        # scale floor, that passes)
        assert compressed_bias(np.full(VALUES_PER_BLOCK, 2.0**-122)) == BIAS_FIELD_MAX
        block = np.full((1, VALUES_PER_BLOCK), 2.0**-123, dtype=np.float32)
        res = AVRCompressor().compress_blocks(block)
        assert res.success[0] and res.bias[0] == 0
        assert not res.reconstructed.any()

    def test_disabled_bias_stores_zero(self):
        # the ablation knob acts only through the bias: rows whose bias is
        # 0 anyway (a NaN, all zeros) compress alike with and without it
        ramp = np.linspace(1.0, 2.0, VALUES_PER_BLOCK)
        with_nan = ramp.copy()
        with_nan[9] = np.nan
        blocks = np.array([ramp, with_nan, np.zeros(VALUES_PER_BLOCK)], dtype=np.float32)
        biased = AVRCompressor().compress_blocks(blocks)
        unbiased = AVRCompressor(enable_bias=False).compress_blocks(blocks)
        assert biased.bias.tolist() == [4, 0, 0]
        assert unbiased.success.all() and not unbiased.bias.any()
        for name in ("size_cachelines", "summaries", "outlier_mask"):
            assert np.array_equal(getattr(unbiased, name)[1:], getattr(biased, name)[1:]), name
        assert np.array_equal(unbiased.reconstructed[1:], biased.reconstructed[1:], equal_nan=True)

    @given(
        st.floats(min_value=1e-20, max_value=1e20),
        st.floats(min_value=0.0, max_value=6.0),
    )
    def test_bias_never_overflows_chosen_block(self, scale, freq):
        x = np.linspace(0.0, 1.0, VALUES_PER_BLOCK)
        block = (scale * (1.0 + 0.5 * np.sin(freq * x) + 0.5 * x)).astype(np.float32)
        res = AVRCompressor().compress_blocks(block[None, :])
        assert res.success[0]
        assert biased_max(block, int(res.bias[0])) < FIXED_RANGE
        assert np.isfinite(res.reconstructed).all()
