"""Heat diffusion under approximate memory: all four designs end to end.

Runs the paper's *heat* benchmark functionally under every design point
(output error, compression) and through the timing simulator (traffic,
time, AMAT), printing a one-workload slice of Tables 3/4 and Figures
9/11/12.

Run:  python examples/heat_diffusion.py            (full scale, ~1 min)
      python examples/heat_diffusion.py --quick    (small scale, seconds)
"""

import sys

from repro.common.config import CacheConfig, SystemConfig
from repro.designs import AVR, COMPARED
from repro.experiment import ExperimentSpec, run_experiment
from repro.harness import SweepSpec, run_sweep


def main(quick: bool = False) -> None:
    if quick:
        config = SystemConfig(
            num_cores=2,
            l1=CacheConfig(2 * 1024, 4, 1),
            l2=CacheConfig(8 * 1024, 8, 8),
            llc=CacheConfig(64 * 1024, 16, 15),
        )
        # A hand-built machine and a workload argument: beyond what an
        # ExperimentSpec expresses, so this drives the sweep engine.
        spec = SweepSpec(
            workloads=("heat",), config=config, scales=(0.25,),
            max_accesses_per_core=20_000,
            workload_kwargs=(("iterations", 15),),
        )
        ev = run_sweep(spec).by_workload()["heat"]
    else:
        spec = ExperimentSpec(workloads=("heat",))
        ev = run_experiment(spec).by_workload()["heat"]

    print("heat: 2D Jacobi heat propagation")
    print(f"  footprint: {ev.footprint_bytes / 1e6:.1f} MB, "
          f"AVR ratio {ev.avr_compression_ratio:.1f}:1, "
          f"footprint vs baseline {ev.footprint_vs_baseline * 100:.0f}%\n")

    header = f"  {'design':>9} {'error %':>8} {'time':>6} {'traffic':>8} {'AMAT':>6} {'MPKI':>6}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    for design in COMPARED:
        run = ev.runs[design]
        print(
            f"  {design.name:>9} {run.output_error * 100:8.3f}"
            f" {ev.normalized(design, 'time'):6.2f}"
            f" {ev.normalized(design, 'traffic'):8.2f}"
            f" {ev.normalized(design, 'amat'):6.2f}"
            f" {ev.normalized(design, 'mpki'):6.2f}"
        )
    print("\n  (all columns except error are normalized to the baseline)")

    stats = ev.runs[AVR].timing.llc_stats
    total = sum(
        stats.get(k, 0)
        for k in ("req_miss", "req_hit_uncompressed", "req_hit_dbuf", "req_hit_compressed")
    )
    if total:
        print(f"\n  AVR LLC requests: "
              f"{stats.get('req_hit_dbuf', 0) / total * 100:.0f}% DBUF, "
              f"{stats.get('req_hit_compressed', 0) / total * 100:.0f}% compressed, "
              f"{stats.get('req_hit_uncompressed', 0) / total * 100:.0f}% uncompressed, "
              f"{stats.get('req_miss', 0) / total * 100:.0f}% miss")


if __name__ == "__main__":
    main(quick="--quick" in sys.argv)
