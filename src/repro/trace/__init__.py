"""Synthetic memory-trace generation for the timing layer."""

from .events import TRACE_DTYPE, total_instructions
from .generator import GeneratedTrace, generate_trace
from .store import (
    FrontEndHandle,
    TraceStore,
    TraceStoreStats,
    TraceStoreUsage,
    front_end_key,
    trace_store_usage,
)

__all__ = [
    "FrontEndHandle",
    "GeneratedTrace",
    "TRACE_DTYPE",
    "TraceStore",
    "TraceStoreStats",
    "TraceStoreUsage",
    "front_end_key",
    "generate_trace",
    "total_instructions",
    "trace_store_usage",
]
