"""Figure 11: DRAM traffic normalized to baseline, approx/exact split.

Paper shape: AVR cuts traffic ~50-70% on heat/lattice/lbm, ~48% on
orbit, ~37% on kmeans, and only a few percent on bscholes/wrf;
Truncate is pinned near 50% on fully-approximable workloads; ZeroAVR
matches the baseline.
"""

from repro.harness import fig11_memory_traffic, format_stacked


def totals(data, name):
    return {d: sum(parts.values()) for d, parts in data[name].items()}


def test_fig11(evaluations, benchmark):
    data = benchmark(fig11_memory_traffic, evaluations)
    print()
    print(format_stacked("Figure 11: memory traffic (norm.)", data))

    # Strong reductions on the compressible, fully-approximable apps
    for name in ("heat", "lattice", "lbm"):
        t = totals(data, name)
        assert t["AVR"] < 0.7, name
        assert 0.4 < t["truncate"] < 0.75, name
    # AVR clearly beats Truncate's flat 2:1 on heat/lattice; on lbm our
    # scaled LLC cannot retain the compressed set between sweeps the way
    # the paper's 8 MB LLC does, so they end up comparable: AVR may sit
    # up to 0.1 above Truncate there
    for name in ("heat", "lattice"):
        t = totals(data, name)
        assert t["AVR"] < t["truncate"], name
    t = totals(data, "lbm")
    assert t["AVR"] <= t["truncate"] + 0.1

    # ZeroAVR: no approximate data, traffic ~= baseline, all exact
    for name in data:
        t = totals(data, name)
        assert abs(t["ZeroAVR"] - 1.0) < 0.05, name
        assert data[name]["ZeroAVR"]["Approx"] == 0.0

    # wrf's traffic is dominated by its exact fields under every design
    wrf_avr = data["wrf"]["AVR"]
    assert wrf_avr["Non-approx"] > wrf_avr["Approx"]

    # AVR's remaining traffic on fully-approx workloads is mostly approx
    heat_avr = data["heat"]["AVR"]
    assert heat_avr["Approx"] > heat_avr["Non-approx"]
