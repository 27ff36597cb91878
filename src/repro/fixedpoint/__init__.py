"""Fixed-point arithmetic substrate for the AVR compressor core."""

from .convert import DEFAULT_FORMAT, FixedPointFormat

__all__ = [
    "DEFAULT_FORMAT",
    "FixedPointFormat",
]
