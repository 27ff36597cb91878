"""Figure 9: execution time normalized to baseline.

Paper shape: AVR achieves 40-55% reductions on heat/lattice/lbm, ~20%
on orbit, moderate gains on kmeans, negligible on bscholes/wrf;
ZeroAVR tracks the baseline; Truncate sits between baseline and AVR on
highly-compressible workloads.
"""

from repro.designs import COMPARED
from repro.harness import GEOMEAN, fig09_execution_time, format_table

DESIGNS = [d.name for d in COMPARED]


def test_fig09(evaluations, benchmark):
    series = benchmark(fig09_execution_time, evaluations)
    print()
    print(format_table("Figure 9: execution time (norm.)", series, "{:.2f}",
                       col_order=DESIGNS))

    # AVR speeds up the memory-bound compressible workloads...
    for name in ("heat", "lattice", "lbm"):
        assert series[name]["AVR"] < 0.85, name
        # ...and beats Truncate there (higher compression ratio)
        assert series[name]["AVR"] < series[name]["truncate"] + 0.02, name

    # Compute-bound bscholes is insensitive for every design
    for design in DESIGNS:
        assert abs(series["bscholes"][design] - 1.0) < 0.1, design

    # wrf: little approximable data -> negligible impact
    assert series["wrf"]["AVR"] > 0.9

    # ZeroAVR never adds notable overhead (paper: <= ~2%)
    for name in evaluations:
        assert series[name]["ZeroAVR"] < 1.05, name

    # Overall: AVR has the best geomean
    assert series[GEOMEAN]["AVR"] == min(series[GEOMEAN][d] for d in DESIGNS)
