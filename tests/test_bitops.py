"""Tests for float32 bit-field manipulation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import exponent_bits, mantissa_bits, mantissa_error_within
from repro.common import bitops

finite_floats = (
    st.floats(min_value=-1e30, max_value=1e30, allow_nan=False)
    .map(lambda x: float(np.float32(x)))
    .filter(lambda x: x == 0.0 or abs(x) > 1e-30)
)


def test_bit_roundtrip():
    values = np.array([0.0, 1.0, -2.5, 3.14e10, -1e-20], dtype=np.float32)
    assert np.array_equal(bitops.from_bits(bitops.as_bits(values)), values)


def test_exponent_bits_known_values():
    # 1.0 = 2^0 -> biased exponent 127; 2.0 -> 128; 0.5 -> 126
    values = np.array([1.0, 2.0, 0.5, 0.0], dtype=np.float32)
    assert list(exponent_bits(values)) == [127, 128, 126, 0]


def test_mantissa_bits():
    # 1.5 has mantissa 0.5 -> top mantissa bit set
    values = np.array([1.0, 1.5], dtype=np.float32)
    m = mantissa_bits(values)
    assert m[0] == 0
    assert m[1] == 1 << 22


class TestTruncateMantissa:
    def test_truncate_mode_chops(self):
        v = np.array([1.0 + 2**-20], dtype=np.float32)
        out = bitops.truncate_mantissa(v, 7, rounding="truncate")
        assert out[0] == 1.0

    def test_nearest_rounds_up(self):
        # 1 + 2^-8 is exactly half of the last kept bit -> ties-to-even
        v = np.array([1.0 + 2**-7 + 2**-8], dtype=np.float32)
        out = bitops.truncate_mantissa(v, 7, rounding="nearest")
        assert out[0] == np.float32(1.0 + 2 * 2**-7)

    def test_nearest_error_bound(self, rng):
        values = rng.uniform(0.5, 2.0, 1000).astype(np.float32)
        out = bitops.truncate_mantissa(values, 7, rounding="nearest")
        rel = np.abs(out - values) / values
        assert rel.max() <= 2.0**-8 + 1e-9

    def test_truncation_bias_is_toward_zero(self, rng):
        values = rng.uniform(1.0, 2.0, 1000).astype(np.float32)
        out = bitops.truncate_mantissa(values, 7, rounding="truncate")
        assert np.all(out <= values)

    def test_nearest_mean_unbiased(self, rng):
        values = rng.uniform(1.0, 2.0, 20000).astype(np.float32)
        out = bitops.truncate_mantissa(values, 7, rounding="nearest")
        bias = float((out.astype(np.float64) - values).mean())
        assert abs(bias) < 2.0**-12

    def test_specials_preserved(self):
        v = np.array([np.inf, -np.inf, np.nan], dtype=np.float32)
        out = bitops.truncate_mantissa(v, 7)
        assert np.isinf(out[0]) and out[0] > 0
        assert np.isinf(out[1]) and out[1] < 0
        assert np.isnan(out[2])

    def test_keep_all_bits_identity(self):
        v = np.array([1.2345], dtype=np.float32)
        assert bitops.truncate_mantissa(v, 23)[0] == v[0]

    def test_invalid_keep_bits(self):
        with pytest.raises(ValueError):
            bitops.truncate_mantissa(np.zeros(1, np.float32), 24)

    def test_invalid_rounding(self):
        with pytest.raises(ValueError):
            bitops.truncate_mantissa(np.zeros(1, np.float32), 7, rounding="up")

    @given(st.lists(finite_floats, min_size=1, max_size=64))
    def test_idempotent(self, xs):
        values = np.array(xs, dtype=np.float32)
        once = bitops.truncate_mantissa(values, 7)
        twice = bitops.truncate_mantissa(once, 7)
        assert np.array_equal(once, twice, equal_nan=True)


class TestMantissaErrorWithin:
    def test_exact_match_passes(self):
        v = np.array([1.5, -2.25], dtype=np.float32)
        assert mantissa_error_within(v, v, 4).all()

    def test_different_exponent_fails(self):
        a = np.array([1.99], dtype=np.float32)
        b = np.array([2.01], dtype=np.float32)
        assert not mantissa_error_within(a, b, 4)[0]

    def test_different_sign_fails(self):
        a = np.array([1.0], dtype=np.float32)
        b = np.array([-1.0], dtype=np.float32)
        assert not mantissa_error_within(a, b, 4)[0]

    def test_small_mantissa_diff_passes(self):
        a = np.array([1.0], dtype=np.float32)
        b = np.array([1.0 + 2**-6], dtype=np.float32)
        assert mantissa_error_within(a, b, 4)[0]
        assert not mantissa_error_within(a, b, 7)[0]

    def test_bound_matches_relative_error(self, rng):
        """Passing the N-bit check implies relative error < 1/2^N."""
        n = 5
        orig = rng.uniform(1.0, 2.0, 5000).astype(np.float32)
        approx = (orig * rng.uniform(0.9, 1.1, 5000)).astype(np.float32)
        ok = mantissa_error_within(orig, approx, n)
        rel = np.abs(approx.astype(np.float64) - orig) / np.abs(orig)
        assert (rel[ok] < 1.0 / 2**n).all()

    def test_invalid_n(self):
        v = np.zeros(1, np.float32)
        with pytest.raises(ValueError):
            mantissa_error_within(v, v, 0)


@pytest.mark.parametrize(
    "t1,expected",
    [(0.5, 1), (0.25, 2), (0.1, 4), (0.02, 6), (0.001, 10), (1.0, 1)],
)
def test_n_msbit_for_threshold(t1, expected):
    assert bitops.n_msbit_for_threshold(t1) == expected


def test_n_msbit_invalid():
    with pytest.raises(ValueError):
        bitops.n_msbit_for_threshold(0.0)
