"""Benchmark: columnar trace synthesis vs the reference fragment loop.

Generates one workload's multi-core trace with :func:`generate_trace`
and with the fragment loop kept as a test oracle (``tests/oracles.py``),
verifies bit-identity, and reports the wall-clock ratio.

Default mode stresses the generators where the reference loop hurts
most: a fine-grained heat variant (25k short iterations on a small
grid, 8 cores, 600k accesses/core ≈ 4.8M accesses total) whose
per-fragment work is tiny, so the reference loop's per-(iteration,
phase) Python overhead dominates.  ``--check`` is the CI mode: a small
differential check of every workload, each case enforced bit-identical
(``tests/test_trace_equivalence.py`` also pins a composed scenario mix
against the oracle).  The repo's ``BENCH_trace_synthesis.json`` is
``--repeat 3 --json BENCH_trace_synthesis.json``.

Usage::

    python benchmarks/bench_trace_synthesis.py              # full numbers
    python benchmarks/bench_trace_synthesis.py --check      # CI matrix
    python benchmarks/bench_trace_synthesis.py --min-speedup 10
    python benchmarks/bench_trace_synthesis.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.approx.memory import ApproxMemory
from repro.trace.generator import generate_trace
from repro.workloads import WORKLOADS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import generate_trace_reference  # noqa: E402

#: default stress configuration: many tiny iterations make fragment
#: dispatch (not array arithmetic) the reference loop's bottleneck
DEFAULT_WORKLOAD = "heat"
DEFAULT_SCALE = 0.0625
DEFAULT_ITERATIONS = 25_000
DEFAULT_CORES = 8
DEFAULT_ACCESSES = 600_000


def allocate_only(workload) -> ApproxMemory:
    """The workload's region layout without running its computation.

    Trace generation consumes only region geometry (names, base
    addresses, sizes), so the functional execute step — the expensive
    part — is skipped entirely.
    """
    mem = ApproxMemory()
    workload.allocate(mem)
    return mem


def traces_identical(a, b) -> bool:
    return (
        a.iterations_simulated == b.iterations_simulated
        and a.iterations_total == b.iterations_total
        and len(a.cores) == len(b.cores)
        and all(
            x.dtype == y.dtype and np.array_equal(x, y)
            for x, y in zip(a.cores, b.cores)
        )
    )


def time_generator(spec, mem, cores, accesses, seed, generate, repeat):
    """Best-of-N wall clock plus the (deterministic) generated trace."""
    best = float("inf")
    trace = None
    for _ in range(repeat):
        start = time.perf_counter()
        trace = generate(
            spec, mem, num_cores=cores,
            max_accesses_per_core=accesses, seed=seed,
        )
        best = min(best, time.perf_counter() - start)
    return best, trace


# ----------------------------------------------------------------------
# CI differential matrix
# ----------------------------------------------------------------------
def check_workloads(scale: float, accesses: int) -> list[str]:
    """Every workload: fast path == oracle, bitwise."""
    failures = []
    for name, cls in sorted(WORKLOADS.items()):
        workload = cls(scale=scale)
        spec, mem = workload.trace_spec(), allocate_only(workload)
        kwargs = dict(num_cores=4, max_accesses_per_core=accesses, seed=0)
        vec = generate_trace(spec, mem, **kwargs)
        ref = generate_trace_reference(spec, mem, **kwargs)
        if not traces_identical(vec, ref):
            failures.append(f"{name} diverged")
    return failures


def run_check(scale: float, accesses: int) -> int:
    failures = check_workloads(scale, accesses)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"generators agree: {len(WORKLOADS)} workloads bit-identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=DEFAULT_WORKLOAD,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS,
                        help="workload iteration-count override (heat/"
                             "kmeans-style kwarg); 0 = workload default")
    parser.add_argument("--cores", type=int, default=DEFAULT_CORES)
    parser.add_argument("--accesses", type=int, default=DEFAULT_ACCESSES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="time each path N times, report the best")
    parser.add_argument("--json", metavar="PATH",
                        help="write the measurements as JSON")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless vectorized/reference reaches this")
    parser.add_argument("--check", action="store_true",
                        help="CI mode: small differential matrix over all "
                             "workloads")
    args = parser.parse_args(argv)

    if args.check:
        return run_check(scale=0.15, accesses=2_500)

    kwargs = {"iterations": args.iterations} if args.iterations else {}
    try:
        workload = WORKLOADS[args.workload](scale=args.scale, **kwargs)
    except TypeError:
        workload = WORKLOADS[args.workload](scale=args.scale)
    spec, mem = workload.trace_spec(), allocate_only(workload)

    # Warm numpy (and the generators' dispatch) before timing.
    generate_trace(spec, mem, num_cores=args.cores,
                   max_accesses_per_core=min(args.accesses, 10_000),
                   seed=args.seed)

    ref_s, ref = time_generator(
        spec, mem, args.cores, args.accesses, args.seed,
        generate_trace_reference, args.repeat,
    )
    vec_s, vec = time_generator(
        spec, mem, args.cores, args.accesses, args.seed, generate_trace,
        args.repeat,
    )
    identical = traces_identical(vec, ref)
    speedup = ref_s / vec_s if vec_s else float("inf")
    print(f"workload={args.workload} scale={args.scale} cores={args.cores} "
          f"accesses/core={args.accesses} "
          f"({vec.total_accesses} accesses total)")
    print(f"  reference  {ref_s:8.3f}s")
    print(f"  vectorized {vec_s:8.3f}s  ({speedup:.1f}x, "
          f"{'bit-identical' if identical else 'DIVERGED'})")


    if args.json:
        payload = {
            "version": __version__,
            "workload": args.workload,
            "scale": args.scale,
            "workload_kwargs": kwargs,
            "cores": args.cores,
            "accesses_per_core": args.accesses,
            "seed": args.seed,
            "total_accesses": vec.total_accesses,
            "repeat": args.repeat,
            "generator": {
                "reference_s": round(ref_s, 4),
                "vectorized_s": round(vec_s, 4),
                "speedup": round(speedup, 2),
                "identical": identical,
            },
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if not identical:
        print("FAIL: traces diverged")
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: generator speedup {speedup:.2f}x < "
              f"required {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
