"""Vectorized IEEE-754 float32 field manipulation.

AVR's outlier check, exponent biasing and the Truncate baseline operate
on the *fields* of float32 values (sign, 8-bit exponent, 23-bit
mantissa).  These helpers and constants work on whole numpy arrays at
once via uint32 bit views, mirroring what the RTL does per value.
"""

from __future__ import annotations

import numpy as np

#: Bit layout of IEEE-754 binary32.
EXP_SHIFT = 23
EXP_MASK = np.uint32(0xFF)
MANTISSA_MASK = np.uint32((1 << 23) - 1)
EXP_MAX = 255  # all-ones exponent encodes Inf/NaN


def as_bits(values: np.ndarray) -> np.ndarray:
    """Reinterpret a float32 array as uint32 bit patterns (no copy)."""
    values = np.ascontiguousarray(values, dtype=np.float32)
    return values.view(np.uint32)


def from_bits(bits: np.ndarray) -> np.ndarray:
    """Reinterpret a uint32 array as float32 values (no copy)."""
    bits = np.ascontiguousarray(bits, dtype=np.uint32)
    return bits.view(np.float32)


def truncate_mantissa(
    values: np.ndarray, keep_bits: int, rounding: str = "nearest"
) -> np.ndarray:
    """Reduce the mantissa to its ``keep_bits`` most significant bits.

    ``keep_bits=7`` models the Truncate baseline's bfloat16-style
    half-width storage (sign + exponent + 7 mantissa bits = 16 bits).

    ``rounding="nearest"`` applies round-to-nearest-even (what bfloat16
    conversion hardware does; a mantissa carry correctly bumps the
    exponent).  ``rounding="truncate"`` chops the dropped bits, which
    introduces a systematic toward-zero bias that *accumulates* in
    iterative kernels — useful for ablations.
    """
    if not 0 <= keep_bits <= 23:
        raise ValueError(f"keep_bits must be in [0, 23], got {keep_bits}")
    drop = 23 - keep_bits
    bits = as_bits(values)
    mask = np.uint32(0xFFFFFFFF) << np.uint32(drop)
    if rounding == "truncate" or drop == 0:
        return from_bits(bits & mask)
    if rounding != "nearest":
        raise ValueError(f"unknown rounding {rounding!r}")
    # Round-to-nearest-even on the dropped bits.  Skip Inf/NaN (all-ones
    # exponent) so rounding never corrupts specials.
    exp = (bits >> np.uint32(EXP_SHIFT)) & EXP_MASK
    half = np.uint32(1) << np.uint32(drop - 1)
    lsb = (bits >> np.uint32(drop)) & np.uint32(1)
    rounded = (bits + half - np.uint32(1) + lsb) & mask
    return from_bits(np.where(exp == EXP_MAX, bits, rounded))


def n_msbit_for_threshold(t1: float) -> int:
    """Map a relative-error threshold T1 to the paper's N (error < 1/2^N)."""
    if not 0.0 < t1 <= 1.0:
        raise ValueError(f"t1 must be in (0, 1], got {t1}")
    n = int(np.ceil(-np.log2(t1)))
    return int(np.clip(n, 1, 23))
