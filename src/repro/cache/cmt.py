"""Compression Metadata Table (paper §3.2, Figure 3).

One 23-bit entry per 1 KB memory block: compressed size, number of
lazily-evicted lines, compression method, exponent bias, and the
failed/skipped compression-attempt counters that implement the paper's
"keep track of badly compressed blocks" optimization.

The CMT lives in main memory and is cached on-chip in a TLB-like
structure updated in pair with the TLB; a CMT-cache miss costs a few
bytes of metadata bandwidth (the paper: "adds a few bytes of bandwidth
overhead at every TLB miss").  The AVR LLC's replay walks the table
and its on-chip cache inline, as two dicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.constants import BLOCK_CACHELINES, BLOCKS_PER_PAGE, CMT_ENTRY_BITS

#: pages of CMT entries cached on chip (tracks the TLB)
CACHE_PAGES = 1024

#: metadata bytes fetched on a CMT-cache miss (one page's worth)
MISS_TRAFFIC_BYTES = (CMT_ENTRY_BITS * BLOCKS_PER_PAGE + 7) // 8


@dataclass(slots=True)
class CMTEntry:
    """Metadata for one memory block.

    Declared with ``slots=True``: the timing replay touches entry
    fields on every approximate miss and eviction, and slotted
    attribute access keeps that hot path off the instance-dict route.
    """

    size_cachelines: int = BLOCK_CACHELINES  # 16 = stored uncompressed
    lazy_count: int = 0
    method: int = 0
    bias: int = 0
    failed: int = 0
    skipped: int = 0
