"""Main-memory substrate: the DDR4 timing model."""

from .dram import DRAM

__all__ = ["DRAM"]
