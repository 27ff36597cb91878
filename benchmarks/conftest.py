"""Shared fixtures for the benchmark suite.

The full-system evaluation (all 7 workloads x 5 designs, functional +
timing) runs **once per session** and is shared by every per-figure
benchmark; the benchmarks then time the (cheap) figure regeneration and
assert the paper's qualitative shapes on the results.

Environment knobs:

* ``REPRO_BENCH_QUICK=1``  — scale workloads down (~2 min instead of ~8)
* ``REPRO_BENCH_JOBS=N``   — fan the evaluation sweep out over N workers
* ``REPRO_BENCH_CACHE=dir`` — reuse sweep results across bench sessions
"""

from __future__ import annotations

import os

import pytest

from repro.experiment import ExperimentSpec, run_experiment


@pytest.fixture(scope="session")
def evaluations():
    quick = os.environ.get("REPRO_BENCH_QUICK", "0") == "1"
    spec = ExperimentSpec(
        scales=(0.5 if quick else 1.0,),
        max_accesses_per_core=20_000 if quick else 50_000,
    )
    return run_experiment(
        spec,
        jobs=int(os.environ.get("REPRO_BENCH_JOBS", "1")),
        cache_dir=os.environ.get("REPRO_BENCH_CACHE") or None,
    ).by_workload()


@pytest.fixture(scope="session")
def workload_order(evaluations):
    return list(evaluations)
