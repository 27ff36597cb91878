"""The fixed-point format of the compressor core (after Saldanha et al. [35]).

The AVR compressor core operates on fixed-point values to keep the
averaging/interpolation datapath a pure integer pipeline.  Floating
point blocks are exponent-biased (see :mod:`repro.fixedpoint.bias`),
converted to the signed Q-format described here, downsampled, and
converted back.  The conversion is a single-cycle hardware operation;
:meth:`~repro.compression.AVRCompressor.compress_blocks` performs it
for a whole batch in one vectorized expression.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed two's-complement Qm.n format in a 32-bit container.

    ``frac_bits`` is n; the integer part (including sign) uses the
    remaining ``32 - frac_bits`` bits.
    """

    frac_bits: int = 24

    def __post_init__(self) -> None:
        if not 1 <= self.frac_bits <= 30:
            raise ValueError(f"frac_bits must be in [1, 30], got {self.frac_bits}")

    @property
    def scale(self) -> float:
        return float(1 << self.frac_bits)

    @property
    def max_int(self) -> int:
        return 2**31 - 1

    @property
    def min_int(self) -> int:
        return -(2**31)


#: Default Q8.24 format: range (-128, 128), resolution ~6e-8.
DEFAULT_FORMAT = FixedPointFormat(frac_bits=24)

