"""Microbenchmarks of the hot computational kernels.

These are genuine throughput measurements (pytest-benchmark) of the
vectorized compressor pipeline and the simulator primitives — the
pieces whose performance bounds the whole reproduction.
"""

import numpy as np
import pytest

from repro.cache.array_lru import BatchedLRUMatrix
from repro.common.config import DRAMConfig
from repro.common.constants import VALUES_PER_BLOCK
from repro.common.types import ErrorThresholds
from repro.compression import AVRCompressor, truncate_roundtrip
from repro.compression.downsample import downsample_2d, reconstruct_2d
from repro.doppelganger import dedup_roundtrip
from repro.memory import DRAM

NBLOCKS = 4096  # 4 MB of data per round


@pytest.fixture(scope="module")
def blocks():
    rng = np.random.default_rng(0)
    x = np.linspace(0, 1, VALUES_PER_BLOCK, dtype=np.float32)
    data = x[None, :] * rng.uniform(0.5, 2.0, (NBLOCKS, 1)).astype(np.float32)
    return data + 1.0


def test_compress_blocks_throughput(benchmark, blocks):
    comp = AVRCompressor(ErrorThresholds.from_t2(0.01))
    result = benchmark(comp.compress_blocks, blocks)
    mb = blocks.nbytes / 1e6
    print(f"\n  compressed {mb:.0f} MB/round, ratio {result.compression_ratio:.1f}x")
    assert result.success.all()


def test_decompress_blocks_throughput(benchmark, blocks):
    comp = AVRCompressor(ErrorThresholds.from_t2(0.01))
    res = comp.compress_blocks(blocks)
    out = benchmark(
        comp.decompress_blocks, res.summaries, res.method, res.bias
    )
    assert out.shape == blocks.shape


def test_downsample_reconstruct_2d(benchmark, blocks):
    fixed = (blocks * (1 << 20)).astype(np.int64)

    def roundtrip():
        return reconstruct_2d(downsample_2d(fixed))

    out = benchmark(roundtrip)
    assert out.shape == fixed.shape


def test_truncate_throughput(benchmark, blocks):
    out = benchmark(truncate_roundtrip, blocks)
    assert out.shape == blocks.shape


def test_dedup_throughput(benchmark, blocks):
    out, stats = benchmark(dedup_roundtrip, blocks, 0.001)
    assert stats.total_lines == blocks.size // 16


def test_cache_access_rate(benchmark):
    """The array-LRU replay of a 256 KB, 16-way cache level."""
    cache = BatchedLRUMatrix(256 * 1024 // (16 * 64), 16)
    lines = np.random.default_rng(0).integers(0, 1 << 20, 20_000)
    sets = lines % cache.num_sets
    writes = np.zeros(lines.size, dtype=bool)
    benchmark(cache.replay, sets, lines, writes)


def test_dram_access_rate(benchmark):
    """The DRAM row-buffer replay of a single-line transfer stream."""
    dram = DRAM(DRAMConfig())
    addrs = np.random.default_rng(0).integers(0, 1 << 20, 20_000) * 64
    writes = np.zeros(addrs.size, dtype=bool)
    benchmark(dram.access_batch, addrs, writes)
