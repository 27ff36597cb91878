"""System configuration (paper Table 1) and the scaled simulation config.

``SystemConfig.paper()`` reproduces Table 1 verbatim.  Because the
reproduction's simulators are pure Python, experiments default to
``SystemConfig.scaled()``: a smaller machine whose ratios (working set /
LLC capacity, DRAM bandwidth / demand) sit in the same regime, so the
*normalized* results keep their shape while traces stay short.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .types import ErrorThresholds


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    ways: int
    latency_cycles: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        # Every consumer finds a line by shifting the address right by
        # ``line_bytes.bit_length() - 1``, which is exact only for a
        # power of two.
        if self.line_bytes < 1 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError(
                f"line_bytes must be a power of two, got {self.line_bytes}"
            )
        if self.ways < 1:
            raise ValueError(f"ways must be at least 1, got {self.ways}")
        if self.size_bytes < 1:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class DRAMConfig:
    """DDR4 main-memory model parameters."""

    channels: int = 2
    banks_per_channel: int = 16
    row_bytes: int = 2048
    #: core-clock cycles for a row-buffer hit (CAS-limited access)
    row_hit_cycles: int = 30
    #: core-clock cycles for a row-buffer miss (precharge + activate + CAS)
    row_miss_cycles: int = 90
    #: core cycles one channel is busy transferring one 64 B burst
    #: (DDR4-1600 x64: 64 B / 12.8 GB/s ≈ 5 ns ≈ 16 cycles @3.2 GHz)
    burst_cycles: int = 16


@dataclass(frozen=True)
class CoreConfig:
    """Interval-model core parameters."""

    frequency_ghz: float = 3.2
    issue_width: int = 4
    #: base IPC when no memory stalls occur (interval model dispatch rate)
    base_ipc: float = 2.0
    #: memory-level parallelism: overlapping factor applied to miss
    #: latency (OoO window + stream prefetching on these regular codes)
    mlp: float = 4.0


@dataclass(frozen=True)
class SystemConfig:
    """Full simulated-system configuration (paper Table 1 analogue)."""

    num_cores: int = 8
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 4, 1)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * 1024, 8, 8)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(8 * 1024 * 1024, 16, 15)
    )
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    thresholds: ErrorThresholds = field(default_factory=ErrorThresholds)
    #: Doppelgänger is configured with a 4x larger tag array than AVR.
    dganger_tag_factor: int = 4

    @classmethod
    def paper(cls) -> "SystemConfig":
        """The exact Table 1 configuration."""
        return cls()

    @classmethod
    def scaled(cls, num_cores: int = 2) -> "SystemConfig":
        """A laptop-scale configuration for pure-Python simulation.

        Caches are shrunk 16x so that the scaled workload footprints
        (also ~16x smaller) stress the hierarchy the way the paper's
        footprints stress an 8 MB LLC.
        """
        return cls(
            num_cores=num_cores,
            l1=CacheConfig(4 * 1024, 4, 1),
            l2=CacheConfig(16 * 1024, 8, 8),
            llc=CacheConfig(1024 * 1024, 16, 15),
        )

    def with_thresholds(self, thresholds: ErrorThresholds) -> "SystemConfig":
        return replace(self, thresholds=thresholds)
