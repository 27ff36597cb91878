"""Benchmark: batched warm-path cache reads vs per-key probing.

Seeds a result cache with a real (micro) workload sweep, then probes
it the two ways the harness historically could:

* **naive** — one ``get`` per key, the pre-index warm path: every
  probe costs a payload ``open`` attempt, *including the misses*
  (absent keys dominate the probes of a partially-warm cache).
* **batched** — one ``get_many`` over the same keys: per-shard
  ``index.jsonl`` scans answer every absent key for free, and only
  actual hits open payload files.

Reported numbers:

* **opens_ratio** — naive payload-open attempts divided by batched
  (deterministic: probe count vs hit count),
* **speedup** — naive wall time divided by batched wall time.

``--check`` is the CI mode: it passes when ``opens_ratio >= 5`` OR
``speedup >= 3`` — the repo's pinned warm-path win.  ``--json``
records the run; the repo's ``BENCH_cache.json`` is
``--json BENCH_cache.json``.

Usage::

    python benchmarks/bench_cache.py                  # default probe mix
    python benchmarks/bench_cache.py --absent 39      # more misses/hit
    python benchmarks/bench_cache.py --check          # CI assertion
    python benchmarks/bench_cache.py --json out.json  # record results
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time

from repro import __version__
from repro.experiment import ExperimentSpec, run_experiment
from repro.harness.cache import ResultCache

#: the micro sweep that seeds the cache (the test suite's smoke scale)
SEED_SWEEP = ExperimentSpec(
    workloads=("heat",),
    scales=(0.12,),
    max_accesses_per_core=2_000,
    num_cores=2,
    designs=("AVR", "truncate"),
)

_MISS = object()


def probe_keys(real: list[str], absent_per_real: int) -> list[str]:
    """The probe mix: every real key plus deterministic absent ones."""
    probes = list(real)
    for i in range(len(real) * absent_per_real):
        probes.append(hashlib.sha256(f"absent-{i}".encode()).hexdigest())
    return sorted(probes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--absent", type=int, default=19, metavar="N",
                        help="absent keys probed per real key "
                             "(default 19: a 5%% hit-rate warm path)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing repetitions; the fastest counts")
    parser.add_argument("--jobs", type=int, default=1,
                        help="sweep worker processes for the seeding run")
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="cache directory to seed and probe "
                             "(default: a temporary directory)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the comparison as JSON")
    parser.add_argument("--min-opens-ratio", type=float, default=5.0,
                        help="--check fails below this opens ratio "
                             "unless --min-speedup is met")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="--check fails below this speedup unless "
                             "--min-opens-ratio is met")
    parser.add_argument("--check", action="store_true",
                        help="CI mode: enforce the warm-path win")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        root = args.cache_dir or scratch
        run_experiment(
            SEED_SWEEP, jobs=args.jobs, cache_dir=root, trace_store="off"
        )
        real = ResultCache(root).keys()
        probes = probe_keys(real, args.absent)
        print(f"seeded {len(real)} entr(ies); probing {len(probes)} key(s) "
              f"({len(probes) - len(real)} absent)", flush=True)

        naive_s, batched_s = float("inf"), float("inf")
        for _ in range(args.repeat):
            naive = ResultCache(root)
            start = time.perf_counter()
            hits = {
                key: value for key in probes
                if (value := naive.get(key, _MISS)) is not _MISS
            }
            naive_s = min(naive_s, time.perf_counter() - start)
            naive_opens = naive.stats.file_opens

            batched = ResultCache(root)
            start = time.perf_counter()
            bulk = batched.get_many(probes)
            batched_s = min(batched_s, time.perf_counter() - start)
            batched_opens = batched.stats.file_opens
            # Values hold numpy arrays (no dict ==); the differential
            # tests pin payload identity, the bench pins coverage.
            assert set(bulk) == set(hits), \
                "get_many diverged from per-key gets"

    opens_ratio = naive_opens / max(1, batched_opens)
    speedup = naive_s / batched_s if batched_s else float("inf")

    print(f"naive:   {naive_opens} open attempt(s), {naive_s * 1e3:.1f} ms")
    print(f"batched: {batched_opens} open attempt(s), "
          f"{batched_s * 1e3:.1f} ms")
    print(f"opens_ratio {opens_ratio:.1f}x  speedup {speedup:.1f}x")

    if args.json:
        payload = {
            "version": __version__,
            "entries": len(real),
            "probes": len(probes),
            "naive_opens": naive_opens,
            "batched_opens": batched_opens,
            "opens_ratio": round(opens_ratio, 2),
            "naive_ms": round(naive_s * 1e3, 3),
            "batched_ms": round(batched_s * 1e3, 3),
            "speedup": round(speedup, 2),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    if args.check:
        if opens_ratio < args.min_opens_ratio and speedup < args.min_speedup:
            print(f"FAIL: opens_ratio {opens_ratio:.1f}x < "
                  f"{args.min_opens_ratio}x and speedup {speedup:.1f}x < "
                  f"{args.min_speedup}x")
            return 1
        print("cache check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
