"""Tests for the ablation hooks and the ablation harness."""

from dataclasses import replace

import numpy as np
import pytest

from oracles import replay_llc
from repro.cache.llc_avr import AVRLLC
from repro.common.config import CacheConfig, SystemConfig
from repro.common.constants import BLOCK_BYTES, CACHELINE_BYTES, VALUES_PER_BLOCK
from repro.common.types import CompressionMethod, ErrorThresholds
from repro.compression import AVRCompressor
from repro.designs import AVR, AVR_CONSERVATIVE
from repro.harness import run_compressor_ablations, run_llc_ablations
from repro.harness.ablations import LLC_ABLATIONS
from repro.system.factory import build_system
from repro.system.layout import AddressLayout

APPROX_BASE = 0x10000


def replay(events, block_size=2, **options):
    """Replay ``events`` through a fresh AVRLLC and its oracle twin."""
    layout = AddressLayout()
    layout.add_region(APPROX_BASE, 64 * BLOCK_BYTES, block_size)
    config = CacheConfig(64 * 8 * 64, 8, 15)
    return replay_llc(AVRLLC, events, config, layout, **options)


def flood_ucl_set_of_approx_base():
    """Exact reads that evict APPROX_BASE's UCL (64 sets x 8 ways)."""
    return [
        ("r", (0x4000000 // 64 // 64 + i) * 64 * 64) for i in range(8 + 2)
    ]


class TestLLCFlags:
    def test_no_dbuf_falls_through_to_compressed(self):
        out = replay(
            [("r", APPROX_BASE), ("r", APPROX_BASE + CACHELINE_BYTES)],
            enable_dbuf=False,
        )
        assert out.stats.get("req_hit_dbuf", 0) == 0
        assert out.stats["req_hit_compressed"] >= 1

    def test_no_lazy_eviction_forces_fetch_recompress(self):
        out = replay(
            [("w", APPROX_BASE)] + flood_ucl_set_of_approx_base(),
            enable_lazy_eviction=False,
        )
        assert out.stats.get("evict_lazy_writeback", 0) == 0
        assert out.stats["evict_fetch_recompress"] >= 1

    def test_no_skip_counters_always_retries(self):
        out = replay(
            4 * ([("w", APPROX_BASE)] + flood_ucl_set_of_approx_base()),
            block_size=16,  # uncompressible
            enable_skip_counters=False,
        )
        entry, _ = out.reference.cmt.lookup(APPROX_BASE)
        assert entry.skipped == 0
        # every eviction attempted compression (and failed)
        assert out.stats["compressions"] == 4

    def test_pfe_threshold_zero_prefetches_everything(self):
        out = replay(
            [("r", APPROX_BASE), ("r", APPROX_BASE + BLOCK_BYTES)],  # replace DBUF
            pfe_threshold=0,
        )
        assert out.stats["pfe_prefetches"] == 15

    def test_pfe_threshold_over_block_never_fires(self):
        events = [("r", APPROX_BASE + i * CACHELINE_BYTES) for i in range(16)]
        out = replay(events + [("r", APPROX_BASE + BLOCK_BYTES)], pfe_threshold=17)
        assert out.stats.get("pfe_prefetches", 0) == 0


class TestCompressorOptions:
    def test_single_method_forced(self):
        ramp = (np.linspace(1, 2, VALUES_PER_BLOCK, dtype=np.float32))[None, :]
        for method in (CompressionMethod.DOWNSAMPLE_1D, CompressionMethod.DOWNSAMPLE_2D):
            comp = AVRCompressor(ErrorThresholds(0.02, 0.01), methods=(method,))
            res = comp.compress_blocks(ramp)
            assert res.success[0]
            assert res.method[0] == method

    def test_invalid_methods_rejected(self):
        with pytest.raises(ValueError):
            AVRCompressor(methods=())
        with pytest.raises(ValueError):
            AVRCompressor(methods=(CompressionMethod.UNCOMPRESSED,))

    def test_no_bias_hurts_extreme_magnitudes(self):
        tiny = np.linspace(1e-12, 2e-12, VALUES_PER_BLOCK, dtype=np.float32)[None, :]
        with_bias = AVRCompressor(ErrorThresholds(0.02, 0.01)).compress_blocks(tiny)
        without = AVRCompressor(
            ErrorThresholds(0.02, 0.01), enable_bias=False
        ).compress_blocks(tiny)
        assert with_bias.success[0]
        # without biasing the values vanish in fixed point: the block
        # either fails or degrades severely
        assert (not without.success[0]) or (
            without.size_cachelines[0] > with_bias.size_cachelines[0]
        )
        assert without.bias[0] == 0

    def test_three_candidate_selection_consistent(self):
        """Selection over >2 candidates keeps the smallest size."""
        comp = AVRCompressor(
            ErrorThresholds(0.02, 0.01),
            methods=(
                CompressionMethod.DOWNSAMPLE_1D,
                CompressionMethod.DOWNSAMPLE_2D,
                CompressionMethod.DOWNSAMPLE_1D,
            ),
        )
        x = np.linspace(0, 4, VALUES_PER_BLOCK, dtype=np.float32)
        blocks = (np.sin(x) + 2.0)[None, :].repeat(8, 0)
        res = comp.compress_blocks(blocks)
        best = AVRCompressor(ErrorThresholds(0.02, 0.01)).compress_blocks(blocks)
        assert np.array_equal(res.size_cachelines, best.size_cachelines)


#: every keyword an LLC ablation variant may override
AVR_FLAGS = (
    "enable_dbuf",
    "enable_lazy_eviction",
    "enable_skip_counters",
    "enable_cms_lru_refresh",
    "pfe_threshold",
)


class TestVariantDesigns:
    """An ablation variant is its design with the variant's options
    baked into ``avr_options``: they reach the LLC the variant builds,
    and every other flag and field keeps the design's value."""

    @pytest.mark.parametrize(
        "design", [AVR, AVR_CONSERVATIVE], ids=lambda d: d.name
    )
    @pytest.mark.parametrize("label", list(LLC_ABLATIONS))
    def test_options_reach_the_llc(self, label, design):
        options = LLC_ABLATIONS[label]
        variant = replace(design, avr_options=options)
        assert replace(variant, avr_options=()) == design
        assert (variant == design) == (not options)

        config = SystemConfig.scaled(num_cores=2)
        full = build_system(design, config, AddressLayout(), 0).llc
        llc = build_system(variant, config, AddressLayout(), 0).llc
        assert set(options) <= set(AVR_FLAGS)
        for flag in AVR_FLAGS:
            assert getattr(llc, flag) == options.get(flag, getattr(full, flag))


class TestAblationHarness:
    def test_llc_ablation_labels(self):
        config = SystemConfig.scaled(num_cores=2)
        results = run_llc_ablations(
            "heat", config=config, scale=0.15, iterations=8,
            max_accesses_per_core=6_000,
            variants={k: LLC_ABLATIONS[k] for k in ("full AVR", "no DBUF")},
        )
        assert set(results) == {"full AVR", "no DBUF"}
        assert results["no DBUF"].amat_cycles >= results["full AVR"].amat_cycles

    def test_every_shipped_variant_runs(self):
        results = run_llc_ablations(
            "heat", config=SystemConfig.scaled(num_cores=2), scale=0.15,
            max_accesses_per_core=1_500,
        )
        assert set(results) == set(LLC_ABLATIONS)
        assert all(p.cycles > 0 for p in results.values())

    def test_variants_share_one_front_end(self, monkeypatch):
        from repro.cache.array_lru import BatchedPrivateFilter

        calls = []
        original = BatchedPrivateFilter.filter

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BatchedPrivateFilter, "filter", counting)
        variants = ("full AVR", "no DBUF", "PFE always")
        results = run_llc_ablations(
            "heat", config=SystemConfig.scaled(num_cores=2), scale=0.15,
            max_accesses_per_core=1_500,
            variants={k: LLC_ABLATIONS[k] for k in variants},
        )
        assert set(results) == set(variants)
        assert len(calls) == 1

    def test_variants_share_the_experiment_cache(self, tmp_path):
        """"full AVR" is the AVR design itself, so it reads the timing
        entry ``run_experiment`` stored; the other variants are designs
        of their own, stored once each."""
        from repro.experiment import ExperimentSpec, run_experiment
        from repro.harness.cache import ResultCache

        size = dict(scale=0.15, max_accesses_per_core=1_500)
        config = SystemConfig.scaled(num_cores=2)
        spec = ExperimentSpec(
            workloads=("heat",), designs=("baseline", "AVR"),
            scales=(size["scale"],), num_cores=config.num_cores,
            max_accesses_per_core=size["max_accesses_per_core"],
        )
        ev = run_experiment(spec, cache_dir=tmp_path).by_workload()["heat"]
        entries = len(ResultCache(tmp_path))

        full = run_llc_ablations(
            "heat", config=config, variants={"full AVR": {}},
            cache_dir=tmp_path, **size,
        )
        assert len(ResultCache(tmp_path)) == entries
        assert full["full AVR"].cycles == ev.runs["AVR"].timing.cycles

        shipped = run_llc_ablations(
            "heat", config=config, cache_dir=tmp_path, **size
        )
        assert len(ResultCache(tmp_path)) == entries + 6
        again = run_llc_ablations(
            "heat", config=config, cache_dir=tmp_path, **size
        )
        assert len(ResultCache(tmp_path)) == entries + 6
        assert again == shipped

    def test_bad_variant_rejected_before_any_run(self):
        with pytest.raises(ValueError, match="valid options: enable_dbuf"):
            run_llc_ablations("heat", variants={"typo": {"enabel_dbuf": False}})

    def test_compressor_ablation_metrics(self):
        results = run_compressor_ablations("orbit", scale=0.13)
        assert "full pipeline" in results
        for v in results.values():
            assert v["ratio"] >= 1.0
            assert 0.0 <= v["success_pct"] <= 100.0

    def test_compressor_ablation_error_on_data_with_zeros(self):
        """lbm's fields hold exact zeros.  The error is the paper's mean
        relative error, not a per-value ratio floored at 1e-30 (which
        read 3.6e24 % on this data)."""
        results = run_compressor_ablations("lbm", scale=0.13)
        for label, v in results.items():
            assert 0.0 <= v["mean_error_pct"] < 100.0, label
        assert results["full pipeline"]["mean_error_pct"] == pytest.approx(9.2, abs=0.1)

    def test_compressor_ablation_blocks_regions_as_a_sync_does(self, monkeypatch):
        """lbm at scale 0.2 holds 9,600 velocity values: 38 blocks, the
        last padded with the final value, as ``AVRApproximator.apply``
        builds them (the ablation once compressed 37 and left 128 values
        out), so its ratio is the functional path's."""
        from repro.approx import AVRApproximator
        from repro.common.types import DataType
        from repro.designs import BASELINE
        from repro.workloads import make_workload

        seen = []
        compress = AVRCompressor.compress_blocks

        def recording(self, blocks, dtype=DataType.FLOAT32):
            seen.append(np.array(blocks, copy=True))
            return compress(self, blocks, dtype)

        with monkeypatch.context() as patch:
            patch.setattr(AVRCompressor, "compress_blocks", recording)
            results = run_compressor_ablations(
                "lbm", scale=0.2, variants={"full pipeline": {}}
            )

        workload = make_workload("lbm", scale=0.2)
        mem = workload.run(BASELINE).memory
        velocity = mem.region("velocity").array.ravel()
        assert velocity.size == 9600
        tail = np.full(38 * VALUES_PER_BLOCK - velocity.size, velocity[-1])
        expected = np.concatenate([velocity, tail]).reshape(38, VALUES_PER_BLOCK)
        assert [b.shape for b in seen] == [(38, VALUES_PER_BLOCK)]
        assert np.array_equal(seen[0].view(np.uint32), expected.view(np.uint32))

        stats = AVRApproximator(workload.default_thresholds).apply(mem.region("velocity"))
        assert results["full pipeline"]["ratio"] == stats.compression_ratio


class TestPerRegionThresholds:
    def test_region_knob_overrides_global(self):
        from repro.approx import ApproxMemory, AVRApproximator

        mem = ApproxMemory(AVRApproximator(ErrorThresholds.from_t2(0.01)))
        rng = np.random.default_rng(0)
        x = np.linspace(0, 3, 4096)
        # mild noise: invisible to the loose knob, outliers for the tight one
        data = (np.sin(x) + 2.0 + rng.normal(0, 1e-3, x.size)).astype(np.float32)
        mem.alloc("loose", 4096, init=data)
        mem.alloc("tight", 4096, init=data,
                  thresholds=ErrorThresholds.from_t2(0.0001))
        mem.sync()
        loose = mem.reports["loose"].last.compression_ratio
        tight = mem.reports["tight"].last.compression_ratio
        assert tight < loose  # tighter knob -> more outliers -> lower ratio
