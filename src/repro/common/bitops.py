"""Vectorized IEEE-754 float32 field manipulation.

AVR's outlier check and exponent biasing operate on the *fields* of
float32 values (sign, 8-bit exponent, 23-bit mantissa).  These helpers
implement those operations on whole numpy arrays at once via uint32
bit views, mirroring what the RTL does per value.
"""

from __future__ import annotations

import numpy as np

#: Bit layout of IEEE-754 binary32.
SIGN_SHIFT = 31
EXP_SHIFT = 23
EXP_MASK = np.uint32(0xFF)
MANTISSA_MASK = np.uint32((1 << 23) - 1)
EXP_BIAS = 127
EXP_MAX = 255  # all-ones exponent encodes Inf/NaN


def as_bits(values: np.ndarray) -> np.ndarray:
    """Reinterpret a float32 array as uint32 bit patterns (no copy)."""
    values = np.ascontiguousarray(values, dtype=np.float32)
    return values.view(np.uint32)


def from_bits(bits: np.ndarray) -> np.ndarray:
    """Reinterpret a uint32 array as float32 values (no copy)."""
    bits = np.ascontiguousarray(bits, dtype=np.uint32)
    return bits.view(np.float32)


def sign_bits(values: np.ndarray) -> np.ndarray:
    """Sign bit of each value (0 positive, 1 negative)."""
    return (as_bits(values) >> np.uint32(SIGN_SHIFT)).astype(np.uint8)


def exponent_bits(values: np.ndarray) -> np.ndarray:
    """Raw (biased) 8-bit exponent field of each value."""
    return ((as_bits(values) >> np.uint32(EXP_SHIFT)) & EXP_MASK).astype(np.int16)


def mantissa_bits(values: np.ndarray) -> np.ndarray:
    """23-bit mantissa field of each value as uint32."""
    return as_bits(values) & MANTISSA_MASK


def is_special(values: np.ndarray) -> np.ndarray:
    """True for NaN and +/-Inf (all-ones exponent)."""
    return exponent_bits(values) == EXP_MAX


def compose(sign: np.ndarray, exponent: np.ndarray, mantissa: np.ndarray) -> np.ndarray:
    """Assemble float32 values from separate field arrays."""
    bits = (
        (sign.astype(np.uint32) << np.uint32(SIGN_SHIFT))
        | ((exponent.astype(np.uint32) & EXP_MASK) << np.uint32(EXP_SHIFT))
        | (mantissa.astype(np.uint32) & MANTISSA_MASK)
    )
    return from_bits(bits)


def add_exponent(values: np.ndarray, delta: int) -> np.ndarray:
    """Add ``delta`` to the exponent field of every *non-zero, finite* value.

    This is the hardware biasing primitive: an 8-bit addition on the
    exponent field, i.e. multiplication by ``2**delta`` without touching
    the mantissa.  Zeros (exponent field 0) are left untouched, matching
    the RTL which never biases denormals/zeros.  Callers must ensure the
    addition cannot over-/underflow (see :mod:`repro.fixedpoint.bias`).
    """
    if delta == 0:
        return np.array(values, dtype=np.float32, copy=True)
    bits = as_bits(values).copy()
    exp = (bits >> np.uint32(EXP_SHIFT)) & EXP_MASK
    adjustable = (exp != 0) & (exp != EXP_MAX)
    new_exp = exp.astype(np.int32) + np.int32(delta)
    if np.any(adjustable & ((new_exp <= 0) | (new_exp >= EXP_MAX))):
        raise OverflowError(f"exponent bias {delta} over/underflows a value")
    bits = np.where(
        adjustable,
        (bits & ~(EXP_MASK << np.uint32(EXP_SHIFT)))
        | (new_exp.astype(np.uint32) << np.uint32(EXP_SHIFT)),
        bits,
    )
    return from_bits(bits)


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
