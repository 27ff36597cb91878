"""Cross-cutting invariants of the timing layer and compressor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import block_size_of, is_approx, make_trace
from repro.common.config import CacheConfig, SystemConfig
from repro.common.constants import VALUES_PER_BLOCK
from repro.common.types import ErrorThresholds
from repro.compression import AVRCompressor
from repro.system import AddressLayout, build_system
from repro.trace.generator import GeneratedTrace

CONFIG = SystemConfig(
    num_cores=2,
    l1=CacheConfig(2 * 1024, 4, 1),
    l2=CacheConfig(8 * 1024, 8, 8),
    llc=CacheConfig(64 * 1024, 16, 15),
)


def mixed_trace(seed=0, n=3000):
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, 1 << 14, n) * 64 + 0x10000).astype(np.int64)
    writes = rng.random(n) < 0.3
    gaps = rng.integers(5, 200, n).astype(np.uint32)
    return GeneratedTrace(
        cores=[make_trace(addrs[: n // 2], writes[: n // 2], gaps[: n // 2]),
               make_trace(addrs[n // 2 :], writes[n // 2 :], gaps[n // 2 :])],
        iterations_simulated=1,
        iterations_total=1,
    )


class TestTrafficConservation:
    @pytest.mark.parametrize("design", ["baseline", "AVR", "truncate", "dganger"])
    def test_tagged_bytes_match_dram_bytes(self, design):
        """Every byte the LLC moves is tagged approx or exact; DRAM's
        ledger may only exceed the tags by CMT metadata transfers."""
        layout = AddressLayout()
        layout.add_region(0x10000, 1 << 19, 2)
        system = build_system(design, CONFIG, layout, 1 << 20, dedup_factor=2.0)
        res = system.run(mixed_trace())
        tagged = res.approx_bytes + res.exact_bytes
        slack = res.llc_stats.get("llc_misses", 0) * 12 + 4096  # CMT metadata
        if design in ("baseline", "ZeroAVR"):
            # baseline LLC tags nothing as approx
            assert res.approx_bytes == 0 or design != "baseline"
        assert abs(res.total_bytes - tagged) <= slack

    def test_read_write_split_consistent(self):
        layout = AddressLayout()
        layout.add_region(0x10000, 1 << 19, 2)
        system = build_system("AVR", CONFIG, layout, 1 << 20)
        res = system.run(mixed_trace())
        assert res.dram_bytes_read > 0
        assert res.dram_bytes_written > 0
        assert res.total_bytes == res.dram_bytes_read + res.dram_bytes_written


class TestDeterminism:
    def test_same_trace_same_result(self):
        layout = AddressLayout()
        layout.add_region(0x10000, 1 << 19, 2)
        runs = []
        for _ in range(2):
            system = build_system("AVR", CONFIG, layout, 1 << 20)
            runs.append(system.run(mixed_trace(seed=7)))
        assert runs[0].cycles == runs[1].cycles
        assert runs[0].total_bytes == runs[1].total_bytes
        assert runs[0].llc_stats == runs[1].llc_stats


class TestPaperConfigPath:
    def test_paper_machine_simulates(self):
        """SystemConfig.paper() (Table 1 verbatim) is runnable, not just
        documentation."""
        config = SystemConfig.paper()
        layout = AddressLayout()
        layout.add_region(0x10000, 1 << 19, 2)
        system = build_system("AVR", config, layout, 1 << 22)
        trace = mixed_trace(n=800)
        res = system.run(trace)
        assert res.cycles > 0
        # the 8 MB LLC swallows this small working set entirely
        assert res.llc_mpki < 60.0


class TestCompressorInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20)
    def test_outlier_values_always_exact(self, seed):
        rng = np.random.default_rng(seed)
        base = np.linspace(1.0, 2.0, VALUES_PER_BLOCK).astype(np.float32)
        spikes = rng.choice(VALUES_PER_BLOCK, 5, replace=False)
        base[spikes] = rng.uniform(50, 100, 5).astype(np.float32)
        comp = AVRCompressor(ErrorThresholds(0.02, 0.01))
        res = comp.compress_blocks(base[None, :])
        if res.success[0]:
            mask = res.outlier_mask[0]
            assert np.array_equal(res.reconstructed[0][mask], base[mask])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20)
    def test_size_accounts_for_outliers(self, seed):
        rng = np.random.default_rng(seed)
        blocks = (
            np.linspace(1, 2, VALUES_PER_BLOCK, dtype=np.float32)[None, :]
            + rng.normal(0, 0.005, (4, VALUES_PER_BLOCK)).astype(np.float32)
        )
        comp = AVRCompressor(ErrorThresholds(0.02, 0.01))
        res = comp.compress_blocks(blocks)
        from repro.compression.outliers import compressed_size_cachelines

        ok = res.success
        expected = compressed_size_cachelines(res.outlier_count[ok])
        assert np.array_equal(res.size_cachelines[ok], expected)

    def test_summary_matches_block_means(self):
        """The stored summary is the fixed-point block-mean vector."""
        values = np.linspace(10.0, 20.0, VALUES_PER_BLOCK).astype(np.float32)
        comp = AVRCompressor(ErrorThresholds(0.02, 0.01))
        res = comp.compress_blocks(values[None, :])
        assert res.success[0] and res.outlier_count[0] == 0
        recon = comp.decompress_blocks(res.summaries, res.method, res.bias)[0]
        seg_means_orig = values.reshape(16, 16).mean(axis=1)
        seg_means_recon = recon.reshape(16, 16).mean(axis=1)
        assert np.allclose(seg_means_recon, seg_means_orig, rtol=0.01)


class TestLayoutBatchLookups:
    """The vectorized layout lookups must match the oracle's scalar ones."""

    def test_block_size_of_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        layout = AddressLayout()
        sizes = rng.integers(1, 17, 64).astype(np.int64)
        layout.add_region(0x10000, 64 * 1024, sizes)
        layout.add_region(0x80000, 8 * 1024, 4)
        addrs = rng.integers(0, 0x100000, 500).astype(np.int64)
        batch = layout.block_size_of_batch(addrs)
        scalar = [block_size_of(layout, int(a)) for a in addrs]
        assert batch.tolist() == scalar

    def test_is_approx_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        layout = AddressLayout()
        layout.add_region(0x4000, 16 * 1024, 2)
        addrs = rng.integers(0, 0x10000, 400).astype(np.int64)
        batch = layout.is_approx_batch(addrs)
        scalar = [is_approx(layout, int(a)) for a in addrs]
        assert batch.tolist() == scalar

    def test_block_size_of_batch_overlapping_first_wins(self):
        layout = AddressLayout()
        layout.add_region(0x0, 8 * 1024, 2)
        layout.add_region(0x1000, 8 * 1024, 7)  # overlaps the first
        addrs = np.arange(0, 0x4000, 512, dtype=np.int64)
        batch = layout.block_size_of_batch(addrs)
        scalar = [block_size_of(layout, int(a)) for a in addrs]
        assert batch.tolist() == scalar
