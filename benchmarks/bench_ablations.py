"""Ablations of the AVR design choices (paper §3).

Not a paper artifact — this quantifies how much each §3 optimization
contributes: the DBUF, PFE policy, lazy evictions, the
badly-compressed-block skip counters, the CMS-LRU-follows-UCL rule
(LLC side), and the dual downsampling variants, exponent biasing and
the hybrid error check (compressor side).
"""

import pytest

from repro.harness import (
    format_table,
    run_compressor_ablations,
    run_llc_ablations,
)


@pytest.fixture(scope="module")
def llc_ablations():
    # jobs=2 exercises the sweep engine's process-pool path; results
    # are bit-identical to a serial run.
    return run_llc_ablations(
        "heat", scale=0.75, max_accesses_per_core=25_000, jobs=2
    )


def test_llc_ablations(llc_ablations, benchmark):
    results = benchmark(lambda: llc_ablations)
    full = results["full AVR"]
    rows = {
        label: {
            "time": p.cycles / full.cycles,
            "traffic": p.total_bytes / full.total_bytes,
            "AMAT": p.amat_cycles / full.amat_cycles,
            "MPKI": p.llc_mpki / max(full.llc_mpki, 1e-12),
        }
        for label, p in results.items()
    }
    print()
    print(format_table("LLC ablations (normalized to full AVR)", rows, "{:.2f}",
                       col_order=["time", "traffic", "AMAT", "MPKI"]))

    # Removing the DBUF must hurt AMAT (requests fall through to
    # compressed-block lookups or misses).
    assert results["no DBUF"].amat_cycles > full.amat_cycles
    # Removing lazy eviction forces fetch+recompress round trips.
    assert results["no lazy eviction"].total_bytes >= full.total_bytes
    # Without the CMS-LRU refresh, compressed blocks get flushed by
    # streaming UCLs: more traffic.
    assert results["no CMS-LRU refresh"].total_bytes > full.total_bytes
    # No variant beats full AVR on time by more than noise.
    for label, p in results.items():
        assert p.cycles >= full.cycles * 0.97, label


def test_compressor_ablations(benchmark):
    results = benchmark(
        run_compressor_ablations, "orbit", scale=0.25
    )
    print()
    print(format_table(
        "Compressor ablations on orbit history data",
        {k: v for k, v in results.items()},
        "{:.2f}",
        col_order=["ratio", "mean_error_pct", "success_pct"],
    ))

    full = results["full pipeline"]
    # orbit's history is a time series: the 2D placement alone loses badly,
    # which is exactly why AVR runs both variants in parallel.
    assert results["2D only"]["ratio"] < full["ratio"] * 0.75
    assert results["1D only"]["ratio"] == pytest.approx(full["ratio"], rel=0.01)
    # The strict float check flags near-zero values as outliers: lower ratio.
    assert results["strict float check"]["ratio"] < full["ratio"]
    # Every variant respects the error budget on non-failed blocks.
    for label, v in results.items():
        assert v["mean_error_pct"] < 5.0, label
