"""Address-space view shared by the timing simulators.

Maps physical addresses to (a) whether they belong to an
architecturally-approximable region and (b) the static compressed size
of their 1 KB block, as measured by the functional layer.  Regions
start on a block boundary and span whole blocks, so a block is
approximate or exact as a whole (the AVR replay classifies per block).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.constants import BLOCK_BYTES, BLOCK_CACHELINES


def _check_block_aligned(addr: int) -> None:
    if addr % BLOCK_BYTES:
        raise ValueError(
            f"approximable regions must start on a {BLOCK_BYTES} B block "
            f"boundary, got {addr:#x}"
        )


@dataclass
class _Range:
    start: int
    end: int
    sizes: np.ndarray | int  # per-block sizes, or one constant size


@dataclass
class AddressLayout:
    """Approximable ranges + per-block compressed sizes."""

    ranges: list[_Range] = field(default_factory=list)

    def add_region(
        self, start: int, nbytes: int, sizes: np.ndarray | int
    ) -> None:
        """Mark ``[start, start + nbytes)``, rounded up to whole blocks,
        approximable; ``start`` must be block-aligned."""
        _check_block_aligned(start)
        end = start + (-(-nbytes // BLOCK_BYTES)) * BLOCK_BYTES
        if isinstance(sizes, np.ndarray):
            expected = (end - start) // BLOCK_BYTES
            if sizes.size < expected:
                # Pad with the median size (regions measured at a
                # different granularity than their padded extent).
                fill = int(np.median(sizes)) if sizes.size else BLOCK_CACHELINES
                sizes = np.concatenate(
                    [sizes, np.full(expected - sizes.size, fill, dtype=sizes.dtype)]
                )
        self.ranges.append(_Range(start, end, sizes))

    def shifted(self, offset: int) -> "AddressLayout":
        """A copy of this layout relocated by ``offset`` bytes.

        Per-block size arrays are shared, not copied — a relocation
        changes where a region sits in the composed address space, not
        what its blocks compress to.  The scenario composer uses this
        to place each workload instance's regions at a disjoint base
        offset (:mod:`repro.scenario.compose`); ``offset`` must be
        block-aligned.
        """
        _check_block_aligned(offset)
        out = AddressLayout()
        out.ranges = [
            _Range(r.start + offset, r.end + offset, r.sizes)
            for r in self.ranges
        ]
        return out

    def is_approx_batch(self, addrs: np.ndarray) -> np.ndarray:
        """Whether each address lies in an approximable range."""
        out = np.zeros(addrs.shape, dtype=bool)
        for r in self.ranges:
            out |= (addrs >= r.start) & (addrs < r.end)
        return out

    def block_size_of_batch(self, addrs: np.ndarray) -> np.ndarray:
        """Compressed size (cachelines) of each address's block.

        The first range holding the address gives its block's size;
        addresses outside every range report ``BLOCK_CACHELINES``
        (stored uncompressed).  The AVR fast-replay engine uses this to
        decode the static size of every event's block in one pass.
        """
        out = np.full(addrs.shape, BLOCK_CACHELINES, dtype=np.int64)
        # first matching range wins (nothing forbids overlapping
        # regions)
        unassigned = np.ones(addrs.shape, dtype=bool)
        for r in self.ranges:
            in_r = unassigned & (addrs >= r.start) & (addrs < r.end)
            if isinstance(r.sizes, np.ndarray):
                out[in_r] = r.sizes[(addrs[in_r] - r.start) // BLOCK_BYTES]
            else:
                out[in_r] = int(r.sizes)
            unassigned &= ~in_r
        return out

    @property
    def approx_bytes(self) -> int:
        return sum(r.end - r.start for r in self.ranges)

    def mean_compression_ratio(self) -> float:
        """Average ratio over the approximable ranges."""
        blocks = stored = 0
        for r in self.ranges:
            n = (r.end - r.start) // BLOCK_BYTES
            blocks += n
            if isinstance(r.sizes, np.ndarray):
                stored += int(r.sizes.sum())
            else:
                stored += n * int(r.sizes)
        return blocks * BLOCK_CACHELINES / stored if stored else 1.0
