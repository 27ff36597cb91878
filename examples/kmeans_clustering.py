"""Approximate k-means: clustering quality vs memory compression.

The paper's kmeans benchmark is the one workload whose *control flow*
depends on approximation quality (Lloyd's algorithm may need a
different number of iterations to converge on approximated points).
This example clusters a synthetic elevation profile under each design
and compares centroids, iteration counts and compression.

Run:  python examples/kmeans_clustering.py
"""

import numpy as np

from repro.designs import AVR, DGANGER, TRUNCATE
from repro.workloads import make_workload


def main() -> None:
    workload = make_workload("kmeans", scale=0.5)
    reference = workload.run("baseline")
    print(f"kmeans: {workload.npoints:,} elevation points, k={workload.k}")
    print(f"  baseline converged in {reference.iterations} iterations\n")
    print(f"  {'design':>9} {'iters':>6} {'centroid err %':>15} {'ratio':>7}")

    for design in (DGANGER, TRUNCATE, AVR):
        result = workload.run(design)
        err = workload.output_error(result, reference)
        ratio = result.memory.compression_ratio()
        print(
            f"  {design.name:>9} {result.iterations:6d} {err * 100:15.3f}"
            f" {ratio:6.1f}x"
        )

    # Show the actual clusters under AVR vs exact.
    avr = workload.run(AVR)
    print("\n  centroids (m):")
    print("   exact:", np.array2string(reference.output, precision=1))
    print("   AVR:  ", np.array2string(avr.output, precision=1))


if __name__ == "__main__":
    main()
