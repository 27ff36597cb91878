"""Tests for the decompressed block buffer and prefetch engine.

``DBUF`` is the oracle's; ``AVRLLC``'s replay holds the same buffer
inline as two bit masks (pinned by the engine-equivalence suite).
"""

from oracles import DBUF
from repro.cache.llc_avr import PFE_THRESHOLD
from repro.common.constants import BLOCK_BYTES, BLOCK_CACHELINES, CACHELINE_BYTES


def test_empty_buffer_serves_nothing():
    d = DBUF()
    assert not d.serve(0)
    assert not d.holds(0)


def test_load_then_serve_same_block():
    d = DBUF()
    d.load(BLOCK_BYTES, requested_line=0)
    assert d.holds(BLOCK_BYTES + 5 * CACHELINE_BYTES)
    assert d.serve(BLOCK_BYTES + 5 * CACHELINE_BYTES)
    assert d.hits == 1


def test_other_block_not_served():
    d = DBUF()
    d.load(BLOCK_BYTES, 0)
    assert not d.serve(2 * BLOCK_BYTES)


def test_pfe_below_threshold_no_prefetch():
    d = DBUF()
    d.load(BLOCK_BYTES, 0)
    for i in range(PFE_THRESHOLD - 2):  # stay below threshold
        d.serve(BLOCK_BYTES + (i + 1) * CACHELINE_BYTES)
    prefetch = d.load(2 * BLOCK_BYTES, 0)
    assert prefetch == []


def test_pfe_at_threshold_prefetches_rest():
    d = DBUF()
    d.load(BLOCK_BYTES, 0)
    for i in range(1, PFE_THRESHOLD):
        d.serve(BLOCK_BYTES + i * CACHELINE_BYTES)
    # requested = PFE_THRESHOLD lines now
    prefetch = d.load(2 * BLOCK_BYTES, 3)
    assert len(prefetch) == BLOCK_CACHELINES - PFE_THRESHOLD
    # prefetched offsets are exactly the never-inserted ones
    assert set(prefetch) == set(range(PFE_THRESHOLD, BLOCK_CACHELINES))


def test_load_resets_tracking():
    d = DBUF()
    d.load(BLOCK_BYTES, 2)
    d.load(2 * BLOCK_BYTES, 7)
    assert d.requested == {7}
    assert d.loads == 2


def test_first_load_never_prefetches():
    d = DBUF()
    assert d.load(BLOCK_BYTES, 0) == []


def test_note_requested_counts_toward_pfe():
    d = DBUF()
    d.load(BLOCK_BYTES, 0)
    for i in range(1, PFE_THRESHOLD):
        d.note_requested(BLOCK_BYTES + i * CACHELINE_BYTES)
    prefetch = d.load(2 * BLOCK_BYTES, 0)
    assert len(prefetch) == BLOCK_CACHELINES - PFE_THRESHOLD


def test_invalidate():
    d = DBUF()
    d.load(BLOCK_BYTES, 0)
    d.invalidate()
    assert not d.holds(BLOCK_BYTES)
    assert d.requested == set()


class TestBitmaskTracking:
    """The set-valued views are derived from the bit-mask state."""

    def test_serve_sets_bits(self):
        d = DBUF()
        d.load(BLOCK_BYTES, 3)
        d.serve(BLOCK_BYTES + 5 * CACHELINE_BYTES)
        assert d.requested_mask == (1 << 3) | (1 << 5)
        assert d.in_llc_mask == d.requested_mask
        assert d.requested == {3, 5}
        assert d.in_llc == {3, 5}

    def test_note_requested_sets_bits(self):
        d = DBUF()
        d.load(BLOCK_BYTES, 0)
        d.note_requested(BLOCK_BYTES + 9 * CACHELINE_BYTES)
        assert d.requested_mask == (1 << 0) | (1 << 9)

    def test_pfe_fires_uses_popcount(self):
        d = DBUF(pfe_threshold=2)
        d.load(BLOCK_BYTES, 0)
        assert not d.pfe_fires()
        d.serve(BLOCK_BYTES + CACHELINE_BYTES)
        assert d.pfe_fires()

    def test_load_prefetch_offsets_ascend(self):
        d = DBUF(pfe_threshold=1)
        d.load(BLOCK_BYTES, 2)
        d.serve(BLOCK_BYTES + 11 * CACHELINE_BYTES)
        prefetch = d.load(2 * BLOCK_BYTES, 0)
        assert prefetch == sorted(prefetch)
        assert set(prefetch) == set(range(BLOCK_CACHELINES)) - {2, 11}

    def test_invalidate_clears_masks(self):
        d = DBUF()
        d.load(BLOCK_BYTES, 4)
        d.invalidate()
        assert d.requested_mask == 0 and d.in_llc_mask == 0
        assert d.block_addr is None

    def test_none_threshold_never_fires(self):
        d = DBUF(pfe_threshold=None)
        d.load(BLOCK_BYTES, 0)
        for i in range(1, BLOCK_CACHELINES):
            d.serve(BLOCK_BYTES + i * CACHELINE_BYTES)
        assert not d.pfe_fires()
        assert d.load(2 * BLOCK_BYTES, 0) == []
