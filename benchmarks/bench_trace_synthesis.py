"""Benchmark: columnar trace synthesis vs the reference fragment loop.

Generates one workload's multi-core trace with :func:`generate_trace`
and with the fragment loop kept as a test oracle (``tests/oracles.py``),
verifies bit-identity, and reports the wall-clock ratio; then measures the trace store's warm path — memory-mapping a
committed entry vs generating (and committing) it cold.

Default mode stresses the generators where the reference loop hurts
most: a fine-grained heat variant (25k short iterations on a small
grid, 8 cores, 600k accesses/core ≈ 4.8M accesses total) whose
per-fragment work is tiny, so the reference loop's per-(iteration,
phase) Python overhead dominates.  ``--check`` is the CI mode: a small
differential check of every workload plus one heterogeneous scenario
mix through full composition, each case enforced bit-identical, and a
store round-trip asserting the warm run maps (not regenerates) the
composed trace.  The repo's
``BENCH_trace_synthesis.json`` is ``--repeat 3 --json
BENCH_trace_synthesis.json``.

Usage::

    python benchmarks/bench_trace_synthesis.py              # full numbers
    python benchmarks/bench_trace_synthesis.py --check      # CI matrix
    python benchmarks/bench_trace_synthesis.py --min-speedup 10 \
        --min-warm-speedup 20                               # enforce floors
    python benchmarks/bench_trace_synthesis.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.approx.memory import ApproxMemory
from repro.trace.generator import generate_trace
from repro.trace.store import TraceStore, trace_key
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


def bench_store(spec, mem, cores, accesses, seed, trace, repeat, store_dir):
    """Cold (generate + commit) vs warm (memory-map) acquisition."""
    key = trace_key(spec, mem, cores, accesses, seed)
    cold_s = warm_s = float("inf")
    mapped = None
    for _ in range(repeat):
        with tempfile.TemporaryDirectory(dir=store_dir) as tmp:
            store = TraceStore(tmp)
            start = time.perf_counter()
            store.get_or_generate(
                key,
                lambda: generate_trace(
                    spec, mem, num_cores=cores,
                    max_accesses_per_core=accesses, seed=seed,
                ),
            )
            cold_s = min(cold_s, time.perf_counter() - start)
            start = time.perf_counter()
            mapped = store.get(key)
            warm_s = min(warm_s, time.perf_counter() - start)
    identical = mapped is not None and traces_identical(mapped, trace)
    return cold_s, warm_s, identical


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


def check_scenario(scale: float, accesses: int) -> list[str]:
    """One heterogeneous mix: cold composition == warm memory-mapped."""
    from repro.harness.scenario import scenario_timing_context

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp)
        _, _, cold, _ = scenario_timing_context(
            "kmeans*2+heat@2",
            seed=0, max_accesses_per_core=accesses, store=store,
        )
        if store.stats.stores != 1:
            failures.append(
                f"cold scenario run committed {store.stats.stores} "
                f"trace(s), expected 1"
            )
        warm_store = TraceStore(tmp)
        _, _, warm, _ = scenario_timing_context(
            "kmeans*2+heat@2",
            seed=0, max_accesses_per_core=accesses, store=warm_store,
        )
        if warm_store.stats.hits != 1 or warm_store.stats.stores != 0:
            failures.append(
                f"warm scenario run hit={warm_store.stats.hits} "
                f"stored={warm_store.stats.stores}, expected a pure map"
            )
        if not traces_identical(cold, warm):
            failures.append("scenario mix trace diverged cold vs warm")
    return failures


def run_check(scale: float, accesses: int) -> int:
    failures = check_workloads(scale, accesses)
    failures += check_scenario(scale, accesses)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"generators agree: {len(WORKLOADS)} workloads + 1 scenario mix "
          f"(composed, stored, mapped) bit-identical")
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
    parser.add_argument("--store-dir", default=None, metavar="PATH",
                        help="parent directory for the throwaway store "
                             "(default: the system temp dir)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the measurements as JSON")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless vectorized/reference reaches this")
    parser.add_argument("--min-warm-speedup", type=float, default=None,
                        help="fail unless warm-map/cold-generate reaches this")
    parser.add_argument("--check", action="store_true",
                        help="CI mode: small differential matrix over all "
                             "workloads + one scenario mix, store asserted")
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

    cold_s, warm_s, mapped_ok = bench_store(
        spec, mem, args.cores, args.accesses, args.seed, vec,
        args.repeat, args.store_dir,
    )
    warm_speedup = cold_s / warm_s if warm_s else float("inf")
    print(f"  store cold {cold_s:8.3f}s  (generate + commit)")
    print(f"  store warm {warm_s:8.3f}s  ({warm_speedup:.1f}x, memory-"
          f"mapped, {'bit-identical' if mapped_ok else 'DIVERGED'})")

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
            "store": {
                "cold_s": round(cold_s, 4),
                "warm_s": round(warm_s, 4),
                "warm_speedup": round(warm_speedup, 2),
                "identical": mapped_ok,
            },
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if not identical or not mapped_ok:
        print("FAIL: traces diverged")
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: generator speedup {speedup:.2f}x < "
              f"required {args.min_speedup}x")
        return 1
    if args.min_warm_speedup is not None and warm_speedup < args.min_warm_speedup:
        print(f"FAIL: warm-store speedup {warm_speedup:.2f}x < "
              f"required {args.min_warm_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
