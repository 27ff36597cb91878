"""Figure 12: average memory access time, normalized to baseline.

Paper shape: "AVR memory latency is substantially reduced and always
lower than the compared approaches" (§4.3 summary); Doppelgänger/
Truncate see milder reductions; bscholes/wrf barely move.
"""

from repro.designs import COMPARED
from repro.harness import fig12_amat, format_table

DESIGNS = [d.name for d in COMPARED]


def test_fig12(evaluations, benchmark):
    series = benchmark(fig12_amat, evaluations)
    print()
    print(format_table("Figure 12: AMAT (norm.)", series, "{:.2f}",
                       col_order=DESIGNS))

    # AVR's AMAT is the lowest (or ties) on every memory-bound workload
    for name in ("heat", "lattice", "lbm", "orbit", "kmeans"):
        row = series[name]
        assert row["AVR"] <= min(row["dganger"], row["truncate"]) + 0.02, name
        assert row["AVR"] < 0.9, name

    # ZeroAVR does not degrade memory latency
    for name in evaluations:
        assert series[name]["ZeroAVR"] < 1.05, name
