"""Synthetic memory-trace generation for the timing layer."""

from .events import TRACE_DTYPE, concat_traces, make_trace, total_instructions
from .generator import GeneratedTrace, generate_trace
from .store import (
    TraceHandle,
    TraceStore,
    TraceStoreStats,
    resolve_trace_store,
    trace_key,
)

__all__ = [
    "GeneratedTrace",
    "TRACE_DTYPE",
    "TraceHandle",
    "TraceStore",
    "TraceStoreStats",
    "concat_traces",
    "generate_trace",
    "make_trace",
    "resolve_trace_store",
    "total_instructions",
    "trace_key",
]
