"""The Truncate comparison design (paper §4.1).

Truncate compresses approximate float32 values to half width by
dropping the 16 least-significant bits (as in Concise loads/stores,
Proteus and GPU link compression [21, 22, 42]).  The surviving 16 bits
are sign + exponent + the top 7 mantissa bits, so the compression ratio
is a flat 2:1 and the worst-case relative error is ~2^-8.  A Truncate
run applies :func:`repro.common.bitops.truncate_mantissa` with
:data:`KEPT_MANTISSA_BITS` (:class:`repro.approx.TruncateApproximator`).
"""

from __future__ import annotations

#: Mantissa bits kept by the 16-bit truncated format.
KEPT_MANTISSA_BITS = 7

#: Truncate's fixed compression ratio.
TRUNCATE_RATIO = 2.0
