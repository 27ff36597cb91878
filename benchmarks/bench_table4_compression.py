"""Table 4: AVR compression ratio and memory footprint vs baseline.

Paper values for reference:
            heat   lattice  lbm    orbit  kmeans  bscholes  wrf
  ratio     10.5x  9.6x     15.6x  16.0x  2.3x    4.7x      3.4x
  footprint 12.6%  20.0%    7.9%   54.1%  58.5%   78.6%     89.6%

Our lattice/lbm ratios are scale-limited: their flow features span a
handful of cells at simulable grid sizes.
"""

from repro.harness import format_table, table4_compression


def test_table4(evaluations, workload_order, benchmark):
    table = benchmark(table4_compression, evaluations)
    print()
    print(format_table("Table 4: AVR compression", table, "{:.1f}",
                       col_order=workload_order))

    ratio = table["Compr. Ratio"]
    footprint = table["Mem. Footprint"]

    # Ordering: orbit/heat compress best; kmeans worst (rugged data)
    assert ratio["orbit"] > 10.0
    assert ratio["heat"] > 6.0
    assert 1.5 < ratio["kmeans"] < 4.0
    assert 3.0 < ratio["bscholes"] < 8.0
    for name in workload_order:
        assert 1.0 <= ratio[name] <= 16.0, name

    # Footprint shrinks most where approx fraction x ratio is largest
    assert footprint["heat"] < 30.0
    assert footprint["lbm"] < footprint["wrf"]
    assert footprint["wrf"] > 80.0  # only ~15% approximable
    for name in workload_order:
        assert 0.0 < footprint[name] <= 100.0, name
