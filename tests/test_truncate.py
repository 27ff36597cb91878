"""Tests for the Truncate comparison design.

A Truncate run calls ``bitops.truncate_mantissa(values,
KEPT_MANTISSA_BITS)`` (``TruncateApproximator.apply``); these tests check
that call.
"""

import numpy as np

from oracles import max_truncation_error
from repro.common import bitops
from repro.compression.truncate import KEPT_MANTISSA_BITS, TRUNCATE_RATIO


def truncate(values: np.ndarray) -> np.ndarray:
    return bitops.truncate_mantissa(
        np.asarray(values, dtype=np.float32), KEPT_MANTISSA_BITS
    )


def test_ratio_is_two_to_one():
    assert TRUNCATE_RATIO == 2.0


def test_error_bound(rng):
    values = rng.uniform(-1000, 1000, 10000).astype(np.float32)
    values = values[np.abs(values) > 1e-3]
    out = truncate(values)
    rel = np.abs(out - values) / np.abs(values)
    assert rel.max() <= max_truncation_error() + 1e-9


def test_idempotent(rng):
    values = rng.normal(0, 10, 1000).astype(np.float32)
    once = truncate(values)
    assert np.array_equal(truncate(once), once)


def test_preserves_shape():
    arr = np.ones((3, 4, 5), dtype=np.float32) * 1.2345
    out = truncate(arr)
    assert out.shape == arr.shape


def test_zero_preserved():
    assert truncate(np.zeros(4, dtype=np.float32)).max() == 0.0


def test_sign_and_exponent_survive(rng):
    values = rng.normal(0, 100, 1000).astype(np.float32)
    out = truncate(values)
    nonzero = values != 0
    assert (np.sign(out[nonzero]) == np.sign(values[nonzero])).all()
