"""Approximation strategies applied to region data at sync points.

Each design point round-trips approximable data differently:

* **AVR** — block-wise downsampling compression (with outliers and the
  T1/T2 error checks); also records the per-block compressed sizes the
  timing layer consumes.
* **Truncate** — drops the 16 LSBs of every value (flat 2:1).
* **Doppelgänger** — approximate cacheline deduplication.
* **Exact** — identity (baseline and ZeroAVR: nothing is approximated).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..common import bitops
from ..common.constants import BLOCK_CACHELINES, VALUES_PER_BLOCK
from ..common.types import DataType, ErrorThresholds
from ..compression.compressor import AVRCompressor
from ..compression.truncate import KEPT_MANTISSA_BITS, TRUNCATE_RATIO
from ..doppelganger import dedup_roundtrip
from .region import Region


@dataclass
class SyncStats:
    """Result of applying an approximator to one region once."""

    blocks: int = 0
    stored_cachelines: int = 0
    compressed_blocks: int = 0
    #: effective capacity multiplier for dedup designs (1.0 otherwise)
    dedup_factor: float = 1.0

    @property
    def compression_ratio(self) -> float:
        if self.stored_cachelines == 0:
            return 1.0
        return self.blocks * BLOCK_CACHELINES / self.stored_cachelines


def padded_blocks(values: np.ndarray) -> np.ndarray:
    """``values`` flattened into ``(nblocks, 256)`` compression blocks.

    The tail block is padded by replicating the final value: the paper's
    page-aligned allocator compresses whole blocks, and edge replication
    avoids manufacturing artificial outliers.
    """
    flat = values.ravel()
    n = flat.size
    nblocks = -(-n // VALUES_PER_BLOCK)
    padded = np.empty(nblocks * VALUES_PER_BLOCK, dtype=flat.dtype)
    padded[:n] = flat
    if n < padded.size:
        padded[n:] = flat[-1] if n else 0
    return padded.reshape(nblocks, VALUES_PER_BLOCK)


class Approximator(abc.ABC):
    """Round-trips a region's values through an approximate memory path."""

    name: str = "abstract"

    @abc.abstractmethod
    def apply(self, region: Region) -> SyncStats:
        """Approximate ``region.array`` in place; return statistics."""


class ExactApproximator(Approximator):
    """Identity: used by the baseline and by ZeroAVR (no data marked)."""

    name = "exact"

    def apply(self, region: Region) -> SyncStats:
        nblocks = region.num_blocks
        return SyncStats(blocks=nblocks, stored_cachelines=nblocks * BLOCK_CACHELINES)


class AVRApproximator(Approximator):
    """Blockwise AVR compression round-trip."""

    name = "AVR"

    def __init__(self, thresholds: ErrorThresholds | None = None) -> None:
        self.compressor = AVRCompressor(thresholds)

    def apply(self, region: Region) -> SyncStats:
        flat = region.array.ravel()
        blocks = padded_blocks(flat)
        nblocks = blocks.shape[0]
        result = self.compressor.compress_blocks(blocks, region.dtype)
        flat[:] = result.reconstructed.reshape(-1)[: flat.size]
        region.block_sizes = result.size_cachelines.copy()
        return SyncStats(
            blocks=nblocks,
            stored_cachelines=int(result.size_cachelines.sum()),
            compressed_blocks=int(result.success.sum()),
        )


class TruncateApproximator(Approximator):
    """Mantissa-truncation round-trip (flat ``ratio``:1 storage).

    The default models the paper's half-width Truncate baseline
    (bfloat16-style: 7 kept mantissa bits, 2:1).  Registry variants
    with narrower stored lines tighten it: :meth:`for_line_bytes` maps
    a design's stored line width to the kept value width, keeping the
    functional and timing views of a truncate-family design consistent.
    """

    name = "truncate"

    def __init__(
        self,
        kept_mantissa_bits: int = KEPT_MANTISSA_BITS,
        ratio: float = TRUNCATE_RATIO,
    ) -> None:
        if ratio < 1.0:
            raise ValueError(f"truncation ratio must be >= 1, got {ratio}")
        self.kept_mantissa_bits = kept_mantissa_bits
        self.ratio = ratio

    @classmethod
    def for_line_bytes(cls, approx_line_bytes: int | None) -> "TruncateApproximator":
        """The truncation matching a design's stored line width.

        ``approx_line_bytes=32`` is the paper baseline (16-bit values:
        sign + 8-bit exponent + 7 mantissa bits); narrower lines drop
        further mantissa bits proportionally, down to the sign+exponent-
        only point for quarter-width lines.
        """
        line = approx_line_bytes if approx_line_bytes is not None else 32
        stored_value_bits = 32 * line // 64
        return cls(
            kept_mantissa_bits=max(0, stored_value_bits - 9),
            ratio=64.0 / line,
        )

    def apply(self, region: Region) -> SyncStats:
        if region.dtype != DataType.FLOAT32:
            raise NotImplementedError("Truncate models float32 data only")
        region.array[...] = bitops.truncate_mantissa(
            np.asarray(region.array, dtype=np.float32), self.kept_mantissa_bits
        )
        nblocks = region.num_blocks
        stored = int(round(nblocks * BLOCK_CACHELINES / self.ratio))
        region.block_sizes = np.full(
            nblocks, max(1, int(BLOCK_CACHELINES // self.ratio)), dtype=np.int32
        )
        return SyncStats(
            blocks=nblocks, stored_cachelines=stored, compressed_blocks=nblocks
        )


class DoppelgangerApproximator(Approximator):
    """Approximate cacheline dedup round-trip."""

    name = "dganger"

    def __init__(self, similarity_threshold: float = 0.02) -> None:
        self.similarity_threshold = similarity_threshold

    def apply(self, region: Region) -> SyncStats:
        approx, stats = dedup_roundtrip(region.array, self.similarity_threshold)
        region.array[...] = approx
        nblocks = region.num_blocks
        return SyncStats(
            blocks=nblocks,
            stored_cachelines=nblocks * BLOCK_CACHELINES,
            dedup_factor=stats.dedup_factor,
        )
