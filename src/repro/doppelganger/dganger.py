"""Functional model of the Doppelgänger approximate-dedup cache [39].

Doppelgänger deduplicates *similar* cachelines: lines whose approximate
signature (derived from their value range) matches share a single data
entry, and every sharer reads back the representative's values.

The signature model here quantizes each line's mean and spread into
buckets whose width scales with the *dataset's* value span (the
"expected value span" the paper refers to).  This reproduces both
behaviours reported for Doppelgänger in the AVR evaluation:

* on smooth, narrow-span data (heat, lattice) buckets are fine and the
  introduced error is small while dedup is plentiful;
* on wide-span data (lbm velocities, orbit coordinates) lines at the
  extreme edges of a bucket are declared "approximately equal" despite
  very different absolute values, yielding runaway output error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.constants import VALUES_PER_CACHELINE


@dataclass
class DedupStats:
    """Outcome of one dedup pass over a region."""

    total_lines: int
    unique_lines: int

    @property
    def dedup_factor(self) -> float:
        """Lines mapped per stored line (>= 1)."""
        return self.total_lines / self.unique_lines if self.unique_lines else 1.0


def line_signatures(
    lines: np.ndarray, bucket_width: float
) -> np.ndarray:
    """Approximate signature of each cacheline.

    ``lines`` is ``(nlines, 16)`` float32.  The signature combines the
    bucketed mean and bucketed min-max spread of the line; lines with
    equal signatures are deduplicated.

    Each reduction halves the 16 columns, so it runs as a few
    ``(nlines,)``-wide passes.  The float64 mean adds in the order
    numpy's pairwise sum takes for a 16-value row (``r = a[:8] + a[8:]``,
    then ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``), so it
    equals ``lines.mean(axis=1, dtype=np.float64)`` bit for bit.
    """
    if bucket_width <= 0:
        raise ValueError(f"bucket_width must be positive, got {bucket_width}")
    half = VALUES_PER_CACHELINE // 2
    high = np.maximum(lines[:, :half], lines[:, half:])
    low = np.minimum(lines[:, :half], lines[:, half:])
    total = lines[:, :half].astype(np.float64)
    total += lines[:, half:]
    while high.shape[1] > 1:
        high = np.maximum(high[:, ::2], high[:, 1::2])
        low = np.minimum(low[:, ::2], low[:, 1::2])
        total = total[:, ::2] + total[:, 1::2]
    means = total[:, 0] / VALUES_PER_CACHELINE
    spreads = (high[:, 0] - low[:, 0]).astype(np.float64)
    qm = np.floor(means / bucket_width).astype(np.int64)
    qs = np.floor(spreads / bucket_width).astype(np.int64)
    # Combine into one 64-bit key (means dominate; spreads disambiguate).
    return qm * np.int64(1 << 20) + qs


def dedup_roundtrip(
    array: np.ndarray, similarity_threshold: float = 0.02
) -> tuple[np.ndarray, DedupStats]:
    """Round-trip a float array through Doppelgänger deduplication.

    ``similarity_threshold`` scales the signature bucket width relative
    to the array's global value span, mirroring the design's map/reduce
    hash tuned to the expected data range.  Returns the approximated
    array (same shape) and dedup statistics.
    """
    values = np.asarray(array, dtype=np.float32).ravel()
    nlines = values.size // VALUES_PER_CACHELINE
    if nlines == 0:
        return np.array(array, dtype=np.float32, copy=True), DedupStats(0, 0)
    size = nlines * VALUES_PER_CACHELINE
    head = values[:size].reshape(nlines, VALUES_PER_CACHELINE)

    high, low = head.max(), head.min()
    if not (np.isfinite(high) and np.isfinite(low)):
        finite = head[np.isfinite(head)]
        high, low = (finite.max(), finite.min()) if finite.size else (0, 0)
    span = float(high - low)
    out = values.copy()
    if span == 0.0:
        # Degenerate constant data: every line dedups to one entry, no error.
        return out.reshape(np.asarray(array).shape), DedupStats(nlines, 1)

    sigs = line_signatures(head, span * similarity_threshold)
    # The first line of each signature, in line order, represents it.
    order = np.argsort(sigs, kind="stable")
    sigs = sigs[order]
    first = np.empty(nlines, dtype=bool)
    first[0] = True
    np.not_equal(sigs[1:], sigs[:-1], out=first[1:])
    group = np.cumsum(first)
    group -= 1
    rep_of = np.empty(nlines, dtype=np.intp)
    rep_of[order] = order[first][group]
    out[:size] = head[rep_of].ravel()
    stats = DedupStats(nlines, int(group[-1]) + 1)
    return out.reshape(np.asarray(array).shape), stats
