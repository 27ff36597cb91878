"""Benchmark: batched timing replay vs the access-at-a-time oracle.

Runs one workload's trace through its timing front end
(:func:`compute_front_end`) and :meth:`TimingSystem.run`, and through
the reference loop kept as a test oracle (``tests/oracles.py``) under
each design, verifies the equivalence contract (every ``SimResult``
metric bit-identical), and reports the per-design wall-clock breakdown.

Default mode replays the largest seed workload trace (kmeans: 393k
accesses at the default 50k/core budget on 8 cores).  ``--check`` is
the CI mode: a small trace, equivalence enforced — it exits nonzero on
any metric divergence, and prints nothing slower than a smoke job
should be.  ``--designs`` narrows either mode to a subset (e.g. just
the AVR fast path), ``--repeat`` takes the best of N timings per
path (shared runners are noisy; state never carries over because
every timed run builds a fresh system), and ``--json`` records the
breakdown — the repo's ``BENCH_timing_avr.json`` is
``--designs avr --repeat 3 --json BENCH_timing_avr.json``.

``--scenario`` replays a multi-programmed mix (a registry name such as
``heat+lbm`` or a mix string like ``kmeans*2@2+heat@4``) instead of a
single workload, so heterogeneous co-run traffic enters the perf
trajectory; the core count then comes from the mix.

Usage::

    python benchmarks/bench_timing.py                  # full breakdown
    python benchmarks/bench_timing.py --designs avr    # one design
    python benchmarks/bench_timing.py --scenario heat+lbm
    python benchmarks/bench_timing.py --check          # CI equivalence
    python benchmarks/bench_timing.py --min-speedup 3  # enforce >= 3x
    python benchmarks/bench_timing.py --json out.json  # record results
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import __version__
from repro.common.config import SystemConfig
from repro.designs import AVR, BASELINE, DGANGER, TRUNCATE, list_designs, resolve_designs
from repro.harness.runner import _build_layout
from repro.harness.sweep import SweepPoint, run_functional_job
from repro.system.factory import build_system
from repro.system.frontend import compute_front_end
from repro.trace.generator import generate_trace
from repro.workloads import WORKLOADS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import run_reference  # noqa: E402

#: the largest seed trace at the default per-core access budget
DEFAULT_WORKLOAD = "kmeans"
BENCH_DESIGNS = (BASELINE, TRUNCATE, DGANGER, AVR)


def build_context(workload_name: str, scale: float, cores: int, accesses: int, seed: int):
    """Functional layer once, then the layout + trace both paths share."""
    point = SweepPoint(
        workload=workload_name, scale=scale, seed=seed,
        max_accesses_per_core=accesses,
    )
    workload = point.make()
    reference = run_functional_job(point, BASELINE)
    avr = run_functional_job(point, AVR, reference)
    layout = _build_layout(workload, avr)
    config = SystemConfig.scaled(num_cores=cores)
    trace = generate_trace(
        workload.trace_spec(), reference.memory,
        num_cores=cores, max_accesses_per_core=accesses, seed=seed,
    )
    return config, layout, trace, reference.memory.footprint_bytes


def build_scenario_bench_context(mix: str, scale: float, accesses: int, seed: int):
    """Composed layout + co-run trace of a multi-programmed mix."""
    from repro.harness.scenario import scenario_timing_context
    from repro.scenario import get_scenario

    scenario = get_scenario(mix).scaled(scale)
    return scenario_timing_context(
        scenario, seed=seed, max_accesses_per_core=accesses
    )


def time_replay(design, config, layout, trace, footprint, replay):
    """Wall clock and result of ``replay(system, trace)`` on a fresh system."""
    system = build_system(design, config, layout, footprint)
    start = time.perf_counter()
    result = replay(system, trace)
    return time.perf_counter() - start, result


def run_fast(system, trace):
    """The production path: the trace's front end, then its replay."""
    return system.run(compute_front_end(trace, system.config))


def compare(design, config, layout, trace, footprint, repeat: int = 1):
    """Time oracle and replay on ``design``; returns (ref_s, vec_s, diffs).

    With ``repeat > 1`` each path runs that many times and the best
    wall-clock is reported (every run builds a fresh system, so timings
    are independent); equivalence is checked on every pair of results.
    """
    ref_s = vec_s = float("inf")
    diffs: list[str] = []
    for _ in range(repeat):
        r_s, ref = time_replay(design, config, layout, trace, footprint, run_reference)
        v_s, vec = time_replay(design, config, layout, trace, footprint, run_fast)
        ref_s = min(ref_s, r_s)
        vec_s = min(vec_s, v_s)
        diffs = diffs or ref.metric_diffs(vec)
    return ref_s, vec_s, diffs


def parse_designs(names: list[str] | None, default: tuple) -> tuple:
    """Resolve --designs through the open registry (any registered name)."""
    if not names:
        return default
    try:
        return resolve_designs(names)
    except ValueError as exc:
        raise SystemExit(str(exc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=DEFAULT_WORKLOAD,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--scenario", metavar="MIX", default=None,
                        help="replay a multi-programmed mix (named or "
                             "WORKLOAD[*N][@CORES]+...) instead of "
                             "--workload; cores come from the mix")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--cores", type=int, default=8)
    parser.add_argument("--accesses", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--designs", nargs="+", metavar="DESIGN",
                        help="restrict the per-design breakdown (e.g. avr)")
    def positive_int(value):
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError("--repeat must be >= 1")
        return n

    parser.add_argument("--repeat", type=positive_int, default=1,
                        help="time each path N times, report the best")
    parser.add_argument("--json", metavar="PATH",
                        help="write the per-design breakdown as JSON")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the best per-design speedup "
                             "reaches this factor")
    parser.add_argument("--check", action="store_true",
                        help="CI mode: small trace, equivalence enforced")
    args = parser.parse_args(argv)

    if args.check:
        scale, cores, accesses = min(args.scale, 0.15), 2, min(args.accesses, 4_000)
        designs = parse_designs(args.designs, resolve_designs(list_designs()))
    else:
        scale, cores, accesses = args.scale, args.cores, args.accesses
        designs = parse_designs(args.designs, BENCH_DESIGNS)

    if args.scenario:
        config, layout, trace, footprint = build_scenario_bench_context(
            args.scenario, scale, accesses, args.seed
        )
        cores = config.num_cores
        print(f"scenario={args.scenario} scale={scale} cores={cores} "
              f"accesses/core={accesses}", flush=True)
    else:
        print(f"workload={args.workload} scale={scale} cores={cores} "
              f"accesses/core={accesses}", flush=True)
        config, layout, trace, footprint = build_context(
            args.workload, scale, cores, accesses, args.seed
        )
    print(f"trace: {trace.total_accesses} accesses total", flush=True)

    # Warm numpy's kernels so the first timed run is not penalized.
    time_replay(designs[0], config, layout, trace, footprint, run_fast)

    failures = 0
    best = 0.0
    breakdown = {}
    width = max(9, max(len(d.name) for d in designs))
    print(f"{'design':>{width}} {'reference':>10} {'vectorized':>11} "
          f"{'speedup':>8}  identical")
    for design in designs:
        ref_s, vec_s, diffs = compare(
            design, config, layout, trace, footprint, repeat=args.repeat
        )
        speedup = ref_s / vec_s if vec_s else float("inf")
        best = max(best, speedup)
        ok = not diffs
        failures += not ok
        breakdown[design.name] = {
            "reference_s": round(ref_s, 4),
            "vectorized_s": round(vec_s, 4),
            "speedup": round(speedup, 2),
            "identical": ok,
        }
        print(f"{design.name:>{width}} {ref_s:9.2f}s {vec_s:10.2f}s "
              f"{speedup:7.2f}x  {'yes' if ok else f'NO {diffs}'}", flush=True)

    if args.json:
        payload = {
            "version": __version__,
            "workload": args.scenario or args.workload,
            "scenario": bool(args.scenario),
            "scale": scale,
            "cores": cores,
            "accesses_per_core": accesses,
            "seed": args.seed,
            "total_accesses": trace.total_accesses,
            "repeat": args.repeat,
            "designs": breakdown,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    if failures:
        print(f"FAIL: {failures} design(s) diverged from the oracle")
        return 1
    if args.min_speedup is not None and best < args.min_speedup:
        print(f"FAIL: best speedup {best:.2f}x < required {args.min_speedup}x")
        return 1
    print("replay matches the oracle"
          + ("" if args.check else f"; best speedup {best:.2f}x"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
