"""Per-block exponent biasing (paper §3.3, "Biasing & unbiasing").

Very large or very small float32 values lose precision when converted
to a fixed-point format of limited range.  AVR therefore *biases* a
block before compression: a per-block constant is added to the exponent
field of every value, sliding the whole block into the Q-format's sweet
spot.  The bias is stored in the block's CMT entry (8-bit field) and
removed after decompression.

Biasing is skipped (bias = 0) when the block contains special values
(NaN/Inf) or when no single offset keeps every value's exponent inside
(0, 255) while bringing the largest magnitude into range — the cases
the paper lists as (a) and (b).  The compressor chooses and applies the
bias for a whole batch at once
(:meth:`~repro.compression.AVRCompressor.compress_blocks`); this module
holds the constants it reads.
"""

from __future__ import annotations

#: Target biased exponent of the largest-magnitude value.  127 + 5 puts
#: the block maximum in [32, 64): comfortably inside Q8.24's (-128, 128)
#: range with headroom, while using most of the 24 fractional bits.
TARGET_MAX_EXPONENT = 127 + 5

#: 8-bit signed field in the CMT limits the representable bias.
BIAS_FIELD_MIN = -128
BIAS_FIELD_MAX = 127
