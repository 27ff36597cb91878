"""Tests for the evaluation harness, experiments and report formatting."""

import pytest

from repro.common.config import CacheConfig, SystemConfig
from repro.designs import AVR, BASELINE, PAPER_DESIGNS, ZERO_AVR
from repro.harness import (
    GEOMEAN,
    SweepSpec,
    fig09_execution_time,
    fig10_energy,
    fig11_memory_traffic,
    fig12_amat,
    fig13_mpki,
    fig14_llc_requests,
    fig15_llc_evictions,
    format_stacked,
    format_table,
    hardware_overheads,
    table3_output_error,
    run_sweep,
    table4_compression,
    transpose,
)

# LLC much smaller than the workload footprint: the paper's regime.
CONFIG = SystemConfig(
    num_cores=2,
    l1=CacheConfig(2 * 1024, 4, 1),
    l2=CacheConfig(8 * 1024, 8, 8),
    llc=CacheConfig(32 * 1024, 16, 15),
)


@pytest.fixture(scope="module")
def heat_eval():
    spec = SweepSpec(
        workloads=("heat",),
        config=CONFIG,
        scales=(0.15,),
        max_accesses_per_core=15_000,
        workload_kwargs=(("iterations", 12),),
    )
    return run_sweep(spec).by_workload()["heat"]


@pytest.fixture(scope="module")
def evals(heat_eval):
    return {"heat": heat_eval}


class TestEvaluateWorkload:
    def test_all_designs_present(self, heat_eval):
        # Runs are keyed by DesignSpec; registry names address the
        # same entries through the DesignMap.
        assert {d.name for d in heat_eval.runs} == {
            "baseline", "dganger", "truncate", "ZeroAVR", "AVR",
        }
        assert all(d.name in heat_eval.runs for d in PAPER_DESIGNS)

    def test_baseline_error_zero(self, heat_eval):
        assert heat_eval.runs[BASELINE].output_error == 0.0
        assert heat_eval.runs[ZERO_AVR].output_error == 0.0

    def test_avr_compresses(self, heat_eval):
        assert heat_eval.avr_compression_ratio > 1.5
        assert heat_eval.footprint_vs_baseline < 1.0

    def test_avr_reduces_misses(self, heat_eval):
        # At this smoke-test scale the grid is coarse (ratio ~2) and the
        # LLC tiny, so AVR's lazy-merge overhead can offset the traffic
        # win (the paper notes the same inflation for lattice); the miss
        # reduction is the robust signal.  Paper-regime traffic claims
        # are exercised in test_integration.
        assert heat_eval.normalized(AVR, "traffic") < 1.4
        assert heat_eval.normalized(AVR, "mpki") < 0.5

    def test_zero_avr_near_baseline(self, heat_eval):
        assert heat_eval.normalized(ZERO_AVR, "time") == pytest.approx(
            1.0, abs=0.1
        )

    def test_unknown_metric(self, heat_eval):
        with pytest.raises(ValueError):
            heat_eval.normalized(AVR, "bogus")


class TestExperiments:
    def test_table3_rows(self, evals):
        t3 = table3_output_error(evals)
        assert set(t3) == {"dganger", "truncate", "AVR"}
        assert t3["AVR"]["heat"] >= 0.0

    def test_table4_rows(self, evals):
        t4 = table4_compression(evals)
        assert t4["Compr. Ratio"]["heat"] > 1.0
        assert 0.0 < t4["Mem. Footprint"]["heat"] < 100.0

    def test_fig09_has_geomean(self, evals):
        f9 = fig09_execution_time(evals)
        assert GEOMEAN in f9
        assert set(f9["heat"]) == {"dganger", "truncate", "ZeroAVR", "AVR"}

    def test_fig10_components_sum_below_baseline_for_avr(self, evals):
        f10 = fig10_energy(evals)
        base_total = sum(f10["heat"]["baseline"].values())
        assert base_total == pytest.approx(1.0)
        avr_total = sum(f10["heat"]["AVR"].values())
        assert avr_total <= base_total * 1.05

    def test_fig11_split_sums_to_total(self, evals, heat_eval):
        f11 = fig11_memory_traffic(evals)
        parts = f11["heat"]["AVR"]
        total = parts["Approx"] + parts["Non-approx"]
        assert total == pytest.approx(
            heat_eval.normalized(AVR, "traffic"), rel=1e-6
        )

    def test_fig12_fig13_normalized(self, evals):
        assert fig12_amat(evals)["heat"]["AVR"] > 0.0
        assert fig13_mpki(evals)["heat"]["AVR"] > 0.0

    def test_fig14_percentages(self, evals):
        f14 = fig14_llc_requests(evals)
        assert sum(f14["heat"].values()) == pytest.approx(100.0)

    def test_fig15_percentages(self, evals):
        f15 = fig15_llc_evictions(evals)
        assert sum(f15["heat"].values()) == pytest.approx(100.0, abs=0.1)


class TestOverheads:
    def test_paper_figures(self):
        o = hardware_overheads()
        assert o["cmt_bits_per_page"] == 93  # paper §4.2
        assert o["tlb_overhead_factor"] == pytest.approx(93 / 88, rel=0.01)
        assert o["llc_extra_bits_per_entry"] == 18
        assert o["llc_overhead_fraction"] < 0.05


class TestReport:
    def test_format_table_contains_values(self):
        txt = format_table("T", {"r": {"a": 1.5, "b": 2.0}}, "{:.1f}")
        assert "1.5" in txt and "2.0" in txt and "T" in txt

    def test_format_table_missing_cell(self):
        txt = format_table("T", {"r1": {"a": 1.0}, "r2": {"b": 2.0}})
        assert "-" in txt

    def test_format_table_column_order(self):
        txt = format_table("T", {"r": {"a": 1.0, "b": 2.0}}, col_order=["b", "a"])
        assert txt.index("b") < txt.index("a")

    def test_format_stacked(self):
        data = {"w": {"AVR": {"Core": 0.5, "DRAM": 0.2}}}
        txt = format_stacked("S", data)
        assert "[w]" in txt and "total" in txt and "0.700" in txt

    def test_transpose(self):
        t = transpose({"r": {"a": 1.0, "b": 2.0}})
        assert t == {"a": {"r": 1.0}, "b": {"r": 2.0}}
