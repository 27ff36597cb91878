"""Microbenchmarks of the hot computational kernels.

These are genuine throughput measurements (pytest-benchmark) of the
vectorized compressor pipeline, the workloads' step loops, the timing
front end and the simulator primitives — the pieces whose performance
bounds the whole reproduction.
"""

import numpy as np
import pytest

from repro.cache.array_lru import BatchedLRUMatrix
from repro.common import bitops
from repro.common.config import DRAMConfig, SystemConfig
from repro.common.constants import VALUES_PER_BLOCK
from repro.common.types import ErrorThresholds
from repro.compression import AVRCompressor
from repro.compression.downsample import downsample_2d, reconstruct_2d
from repro.compression.truncate import KEPT_MANTISSA_BITS
from repro.doppelganger import dedup_roundtrip
from repro.memory import DRAM
from repro.system.frontend import compute_front_end
from repro.trace.events import TRACE_DTYPE
from repro.trace.generator import GeneratedTrace
from repro.workloads import make_workload

NBLOCKS = 4096  # 4 MB of data per round


def smooth_blocks(nblocks: int) -> np.ndarray:
    """Scaled linear ramps: every block compresses."""
    rng = np.random.default_rng(0)
    x = np.linspace(0, 1, VALUES_PER_BLOCK, dtype=np.float32)
    data = x[None, :] * rng.uniform(0.5, 2.0, (nblocks, 1)).astype(np.float32)
    return data + 1.0


@pytest.fixture(scope="module")
def blocks():
    return smooth_blocks(NBLOCKS)


@pytest.mark.parametrize("nblocks", [29, 81, NBLOCKS])
def test_compress_blocks_throughput(benchmark, nblocks):
    """The compressor at the benchmark's batch sizes: 29 blocks is
    grid-cold's median call, 81 avr-stream's call, 4,096 a large batch."""
    data = smooth_blocks(nblocks)
    comp = AVRCompressor(ErrorThresholds.from_t2(0.01))
    result = benchmark(comp.compress_blocks, data)
    kb = data.nbytes / 1e3
    print(f"\n  compressed {kb:.0f} KB/round, ratio {result.compression_ratio:.1f}x")
    assert result.success.all()


#: (workload, design): the step-loop kernels under baseline, and the
#: workloads with write-only regions under AVR
WORKLOAD_RUNS = [
    ("orbit", "baseline"),
    ("lattice", "baseline"),
    ("lbm", "baseline"),
    ("lattice", "AVR"),
    ("lbm", "AVR"),
    ("bscholes", "AVR"),
]


@pytest.mark.parametrize(
    ("name", "design"), WORKLOAD_RUNS, ids=[f"{n}-{d}" for n, d in WORKLOAD_RUNS]
)
def test_workload_run(benchmark, name, design):
    """One functional run at grid-cold's size (scale 0.15).  Under
    baseline it is the workload's own compute, with syncs that
    approximate nothing.  Under AVR the compressor runs too: at every
    sync for a region the kernel reads, once per run for a write-only
    one."""
    workload = make_workload(name, scale=0.15)
    result = benchmark(workload.run, design)
    expected = workload.passes if name == "bscholes" else workload.steps
    assert result.iterations == expected


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
    """The call a Truncate run makes on every synced region."""
    out = benchmark(bitops.truncate_mantissa, blocks, KEPT_MANTISSA_BITS)
    assert out.shape == blocks.shape


def test_dedup_throughput(benchmark, blocks):
    out, stats = benchmark(dedup_roundtrip, blocks, 0.001)
    assert stats.total_lines == blocks.size // 16


@pytest.mark.parametrize("pattern", ["random", "streaming"])
def test_cache_access_rate(benchmark, pattern):
    """The array-LRU replay of a 256 KB, 16-way cache level.

    Every round replays into a fresh matrix, as the simulator does (each
    private filter and baseline LLC builds its own); a reused matrix
    would time warm sets only after its first round.
    """
    num_sets = 256 * 1024 // (16 * 64)
    if pattern == "random":
        lines = np.random.default_rng(0).integers(0, 1 << 20, 20_000)
    else:
        lines = np.arange(20_000, dtype=np.int64)
    sets = lines % num_sets
    writes = np.zeros(lines.size, dtype=bool)

    def fresh_matrix():
        return (BatchedLRUMatrix(num_sets, 16), sets, lines, writes), {}

    benchmark.pedantic(BatchedLRUMatrix.replay, setup=fresh_matrix, rounds=50)


def test_front_end(benchmark):
    """The timing front end of a trace shaped like avr-stream's: 4 cores
    of 100k accesses, each a new line and every other one a write, so
    every access misses L1 and L2 and half the L2 victims are dirty."""
    per_core = 100_000
    cores = []
    for c in range(4):
        core = np.zeros(per_core, dtype=TRACE_DTYPE)
        core["addr"] = (c << 28) + np.arange(per_core, dtype=np.int64) * 64
        core["write"] = np.arange(per_core) % 2 == 1
        cores.append(core)
    trace = GeneratedTrace(cores=cores, iterations_simulated=1, iterations_total=1)
    front_end = benchmark(compute_front_end, trace, SystemConfig.scaled(num_cores=4))
    assert front_end.needs_llc.all()


def test_dram_access_rate(benchmark):
    """The DRAM row-buffer replay of a single-line transfer stream."""
    dram = DRAM(DRAMConfig())
    addrs = np.random.default_rng(0).integers(0, 1 << 20, 20_000) * 64
    writes = np.zeros(addrs.size, dtype=bool)
    benchmark(dram.access_batch, addrs, writes)
