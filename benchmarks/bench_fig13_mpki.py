"""Figure 13: LLC misses per kilo-instruction, normalized to baseline.

Paper shape: AVR has by far the lowest MPKI on compressible workloads
(heat: less than half of Truncate's; lattice: 14% of baseline vs
48%/53% for Doppelgänger/Truncate) because compressed blocks resident
in the LLC and the DBUF turn would-be misses into on-chip hits.
"""

from repro.designs import COMPARED
from repro.harness import fig13_mpki, format_table

DESIGNS = [d.name for d in COMPARED]


def test_fig13(evaluations, benchmark):
    series = benchmark(fig13_mpki, evaluations)
    print()
    print(format_table("Figure 13: LLC MPKI (norm.)", series, "{:.2f}",
                       col_order=DESIGNS))

    for name in ("heat", "lattice", "lbm", "orbit"):
        row = series[name]
        assert row["AVR"] < 0.5, name
        assert row["AVR"] < row["truncate"] / 2, name

    # ZeroAVR's decoupled LLC performs like the baseline LLC (paper §4.3)
    for name in evaluations:
        assert abs(series[name]["ZeroAVR"] - 1.0) < 0.05, name
