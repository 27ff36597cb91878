"""Approximable memory regions (the paper's annotated allocations).

The paper's applications annotate approximable data structures through
a wrapped ``malloc`` that page-aligns the allocation and registers the
address range (with its datatype) as approximable.  :class:`Region`
models one such allocation inside the simulated physical address space;
:class:`repro.approx.memory.ApproxMemory` is the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.constants import BLOCK_BYTES, PAGE_BYTES
from ..common.types import DataType


@dataclass
class Region:
    """One allocation in the simulated address space."""

    name: str
    base_addr: int
    array: np.ndarray
    approx: bool
    dtype: DataType = DataType.FLOAT32
    #: True when the kernel overwrites the whole region before every
    #: sync and reads it only after ``ApproxMemory.settle()``: a sync
    #: then counts the round trip and ``settle`` approximates it once.
    write_only: bool = False
    #: Most recent per-block compressed sizes (cachelines), None before
    #: the first compression pass or for non-AVR designs.
    block_sizes: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.base_addr % PAGE_BYTES:
            raise ValueError(
                f"region {self.name!r} base 0x{self.base_addr:x} not page aligned"
            )

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    @property
    def end_addr(self) -> int:
        """First address past the region, rounded up to a block boundary."""
        return self.base_addr + padded_bytes(self.nbytes)

    @property
    def num_blocks(self) -> int:
        """1 KB memory blocks spanned by this region."""
        return padded_bytes(self.nbytes) // BLOCK_BYTES

    def contains(self, addr: int) -> bool:
        return self.base_addr <= addr < self.end_addr

    def block_index(self, addr: int) -> int:
        """Index of the memory block containing ``addr`` within the region."""
        if not self.contains(addr):
            raise ValueError(f"0x{addr:x} outside region {self.name!r}")
        return (addr - self.base_addr) // BLOCK_BYTES


def padded_bytes(nbytes: int) -> int:
    """Round a size up to a whole number of 1 KB memory blocks."""
    return -(-nbytes // BLOCK_BYTES) * BLOCK_BYTES


def padded_pages(nbytes: int) -> int:
    """Round a size up to whole 4 KB pages."""
    return -(-nbytes // PAGE_BYTES) * PAGE_BYTES
