"""Regenerate the paper's entire evaluation section in one run.

Evaluates all seven workloads under all five designs and prints every
table and figure series (Tables 3-4, Figures 9-15) plus the §4.2
hardware-overhead accounting.

Run:  python examples/full_evaluation.py            (~5-10 min)
      python examples/full_evaluation.py --quick    (scaled down, ~2 min)
      python examples/full_evaluation.py --jobs 8   (parallel sweep)
      python examples/full_evaluation.py --cache-dir .sweep-cache
"""

import argparse
import time

from repro.designs import COMPARED
from repro.experiment import ExperimentSpec, run_experiment
from repro.harness import (
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
    table4_compression,
)

DESIGN_ORDER = [d.name for d in COMPARED]


def main(quick: bool = False, jobs: int = 1, cache_dir: str | None = None) -> None:
    t0 = time.time()
    scale = 0.5 if quick else 1.0
    accesses = 20_000 if quick else 50_000
    spec = ExperimentSpec(scales=(scale,), max_accesses_per_core=accesses)
    evals = run_experiment(spec, jobs=jobs, cache_dir=cache_dir).by_workload()
    workloads = list(evals)

    print(format_table("Table 3: application output error (%)",
                       table3_output_error(evals), "{:.2f}", col_order=workloads))
    print()
    print(format_table("Table 4: AVR compression ratio and footprint (%)",
                       table4_compression(evals), "{:.1f}", col_order=workloads))
    print()
    print(format_table("Figure 9: execution time (normalized to baseline)",
                       fig09_execution_time(evals), "{:.2f}", col_order=DESIGN_ORDER))
    print()
    print(format_stacked("Figure 10: energy breakdown (normalized)",
                         fig10_energy(evals)))
    print()
    print(format_stacked("Figure 11: memory traffic (normalized, approx/exact)",
                         fig11_memory_traffic(evals)))
    print()
    print(format_table("Figure 12: AMAT (normalized)",
                       fig12_amat(evals), "{:.2f}", col_order=DESIGN_ORDER))
    print()
    print(format_table("Figure 13: LLC MPKI (normalized)",
                       fig13_mpki(evals), "{:.2f}", col_order=DESIGN_ORDER))
    print()
    print(format_table("Figure 14: AVR LLC requests on approx lines (%)",
                       fig14_llc_requests(evals), "{:.1f}"))
    print()
    print(format_table("Figure 15: AVR LLC evictions of approx lines (%)",
                       fig15_llc_evictions(evals), "{:.1f}"))
    print()

    o = hardware_overheads()
    print("Hardware overheads (paper §4.2)")
    print("===============================")
    print(f"  CMT + TLB bit per page:   {o['cmt_bits_per_page']:.0f} bits"
          f"  ({o['tlb_overhead_factor']:.2f}x a TLB entry)")
    print(f"  AVR LLC tag/BPA overhead: {o['llc_extra_bits_per_entry']:.0f} bits/entry"
          f" = {o['llc_extra_kbytes']:.0f} kB"
          f" ({o['llc_overhead_fraction'] * 100:.1f}% of the LLC)")
    print(f"\ntotal {time.time() - t0:.0f}s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()
    main(quick=args.quick, jobs=args.jobs, cache_dir=args.cache_dir)
