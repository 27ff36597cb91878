"""Cross-module integration tests: the paper's headline claims in miniature."""

import pytest

from repro.common.config import CacheConfig, SystemConfig
from repro.designs import AVR, DGANGER, TRUNCATE, ZERO_AVR
from repro.harness import SweepSpec, run_sweep

#: The paper's regime: raw footprint >> LLC >= compressed footprint
#: (heat: 65 MB raw, 8 MB LLC, ~6 MB compressed).  Here: ~1.2 MB raw
#: footprint at scale 0.5, 256 KB LLC, ~0.2 MB compressed.
STREAM_CONFIG = SystemConfig(
    num_cores=4,
    l1=CacheConfig(2 * 1024, 4, 1),
    l2=CacheConfig(8 * 1024, 8, 8),
    llc=CacheConfig(256 * 1024, 16, 15),
)


@pytest.fixture(scope="module")
def heat_full():
    """heat at moderate scale, raw footprint >> LLC (streaming regime)."""
    spec = SweepSpec(
        workloads=("heat",),
        config=STREAM_CONFIG,
        scales=(0.5,),
        max_accesses_per_core=40_000,
        workload_kwargs=(("iterations", 25),),
    )
    return run_sweep(spec).by_workload()["heat"]


class TestHeadlineClaims:
    """§1: AVR reduces traffic, time and energy at small output error."""

    def test_avr_reduces_memory_traffic(self, heat_full):
        assert heat_full.normalized(AVR, "traffic") < 0.75

    def test_avr_reduces_execution_time(self, heat_full):
        assert heat_full.normalized(AVR, "time") < 0.95

    def test_avr_reduces_energy(self, heat_full):
        assert heat_full.normalized(AVR, "energy") < 1.0

    def test_avr_error_below_two_percent(self, heat_full):
        assert heat_full.runs[AVR].output_error < 0.02

    def test_avr_beats_truncate_on_compressible_data(self, heat_full):
        """heat compresses ~10:1, so AVR must beat Truncate's flat 2:1
        on traffic (the paper's central comparison)."""
        avr = heat_full.normalized(AVR, "traffic")
        trunc = heat_full.normalized(TRUNCATE, "traffic")
        assert avr < trunc

    def test_avr_amat_lowest(self, heat_full):
        amat = {
            d: heat_full.normalized(d, "amat")
            for d in (AVR, TRUNCATE, DGANGER)
        }
        assert amat[AVR] == min(amat.values())

    def test_zero_avr_overhead_small(self, heat_full):
        """§4.3: AVR without approximation adds no notable overhead."""
        assert heat_full.normalized(ZERO_AVR, "time") < 1.05
        assert heat_full.normalized(ZERO_AVR, "traffic") < 1.05

    def test_llc_requests_hit_on_chip(self, heat_full):
        """§4.3: 40-80% of approximate LLC requests hit DBUF or
        compressed blocks for streaming workloads."""
        stats = heat_full.runs[AVR].timing.llc_stats
        hits = (
            stats.get("req_hit_dbuf", 0)
            + stats.get("req_hit_compressed", 0)
            + stats.get("req_hit_uncompressed", 0)
        )
        total = hits + stats.get("req_miss", 0)
        assert hits / total > 0.4

    def test_lazy_or_recompress_dominate_evictions(self, heat_full):
        """§4.3: streaming benchmarks avoid fetch+recompress for 45-80%
        of evictions via laziness / on-chip recompression."""
        stats = heat_full.runs[AVR].timing.llc_stats
        cheap = stats.get("evict_recompress", 0) + stats.get(
            "evict_lazy_writeback", 0
        )
        total = cheap + stats.get("evict_fetch_recompress", 0) + stats.get(
            "evict_uncompressed_writeback", 0
        )
        assert total > 0
        assert cheap / total > 0.45


class TestDesignOrderings:
    """Relative orderings the paper reports for compressible workloads."""

    def test_traffic_ordering(self, heat_full):
        t = {d: heat_full.normalized(d, "traffic") for d in (
            AVR, TRUNCATE, DGANGER)}
        assert t[AVR] < t[TRUNCATE] < t[DGANGER]

    def test_mpki_ordering(self, heat_full):
        m = {d: heat_full.normalized(d, "mpki") for d in (
            AVR, TRUNCATE)}
        assert m[AVR] < m[TRUNCATE] <= 1.01


class TestComputeBoundWorkload:
    def test_bscholes_insensitive(self):
        """§4.3: compute-bound bscholes sees minimal impact from any design."""
        spec = SweepSpec(
            workloads=("bscholes",),
            config=STREAM_CONFIG,
            scales=(0.1,),
            max_accesses_per_core=20_000,
            workload_kwargs=(("passes", 2),),
        )
        ev = run_sweep(spec).by_workload()["bscholes"]
        for design in (AVR, TRUNCATE, DGANGER):
            assert ev.normalized(design, "time") == pytest.approx(1.0, abs=0.1)
