"""Memory-trace representation.

A trace is a numpy structured array per core: physical address,
read/write flag, and the number of non-memory instructions executed
since the previous access (the interval model's "gap").  Structured
arrays keep generation vectorized and replay cache-friendly, per the
hpc-parallel guidance.
"""

from __future__ import annotations

import numpy as np

#: structured dtype of one trace record
TRACE_DTYPE = np.dtype(
    [("addr", np.uint64), ("write", np.bool_), ("gap", np.uint32)]
)


def total_instructions(trace: np.ndarray) -> int:
    """Instructions represented by a trace: gaps + one per access."""
    return int(trace["gap"].sum()) + len(trace)
