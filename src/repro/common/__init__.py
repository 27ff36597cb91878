"""Shared constants, configuration, types and utilities."""

from . import bitops, constants
from .config import CacheConfig, CoreConfig, DRAMConfig, SystemConfig
from .stats import StatCounter
from .types import (
    AccessType,
    CompressionMethod,
    DataType,
    ErrorThresholds,
    EvictionOutcome,
    LLCRequestOutcome,
)

__all__ = [
    "AccessType",
    "CacheConfig",
    "CompressionMethod",
    "CoreConfig",
    "DRAMConfig",
    "DataType",
    "ErrorThresholds",
    "EvictionOutcome",
    "LLCRequestOutcome",
    "StatCounter",
    "SystemConfig",
    "bitops",
    "constants",
]
