"""Derived functional runs: one kernel run per trajectory.

A design that marks the regions the baseline marks, all of them
``write_only``, cannot change what the kernel reads, so its run differs
from the baseline's only in the final ``settle()``.
:meth:`Workload.derive` builds that run from the baseline result without
the kernel, and :func:`run_functional_job` does so when it is handed the
point's reference.

The cases here pin:
- the derived result pickles byte-identical to the direct run, for every
  workload and registered design, under the default thresholds and a
  looser T2, at the benchmark's scale and at lattice's and lbm's minimum
  and paper geometries;
- which cases derive, by counting ``execute`` calls: lattice under every
  design, lbm under every design but Doppelgänger (whose marking adds
  ``f``, which the kernel reads), no other workload;
- the reference keeps its bits after every derivation;
- toy workloads outside the rule never derive;
- ``run_sweep`` runs each point's kernel once where its designs allow,
  serially and over a pool, cold, from a cache holding only the
  baselines, and warm; it ships the reference only to the units that
  derive, and points that differ only in their thresholds share one
  baseline unit.
"""

from __future__ import annotations

import pickle
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.approx import ApproxMemory, AVRApproximator
from repro.common.config import CacheConfig, SystemConfig
from repro.common.types import ErrorThresholds
from repro.designs import BASELINE, PAPER_DESIGNS, list_designs
from repro.harness.cache import ResultCache
from repro.harness.report import evaluation_to_mapping
from repro.harness.sweep import (
    JobExecutor,
    SweepPoint,
    SweepSpec,
    functional_job_key,
    run_functional_job,
    run_sweep,
)
from repro.scenario import get_scenario
from repro.workloads import WORKLOADS
from repro.workloads.base import Phase, TraceSpec, Workload

DESIGNS = (
    "baseline", "truncate", "dganger", "ZeroAVR", "AVR", "avr-conservative",
    "truncate-16",
)
THRESHOLDS = {"default": None, "t2-0.05": ErrorThresholds.from_t2(0.05)}
#: the designs each workload derives under; every other case runs its kernel
DERIVES = {"lattice": set(DESIGNS), "lbm": set(DESIGNS) - {"dganger"}}
#: (workload, scale, kwargs): the benchmark's scale for every workload,
#: then lattice's and lbm's minimum and paper geometries with few steps
#: (as in test_workload_equivalence.py)
SIZES = [(name, 0.15, {}) for name in WORKLOADS] + [
    ("lattice", 0.01, {"steps": 30}),
    ("lattice", 1.0, {"steps": 3}),
    ("lbm", 0.01, {"steps": 20}),
    ("lbm", 1.0, {"steps": 4}),
]


@pytest.fixture
def executions(monkeypatch: pytest.MonkeyPatch) -> Counter[str]:
    """``execute`` calls per workload name."""
    calls: Counter[str] = Counter()
    for cls in WORKLOADS.values():
        original = cls.execute

        def counting(self: Workload, mem: ApproxMemory, _original=original) -> int:
            calls[self.name] += 1
            return _original(self, mem)

        monkeypatch.setattr(cls, "execute", counting)
    return calls


def test_designs_cover_the_registry():
    assert set(DESIGNS) == set(list_designs())


@pytest.mark.parametrize("thresholds", list(THRESHOLDS))
@pytest.mark.parametrize(("name", "scale", "kwargs"), SIZES,
                         ids=[f"{n}-{s}" for n, s, _ in SIZES])
def test_derived_run_is_the_direct_run(executions, name, scale, kwargs, thresholds):
    point = SweepPoint(
        workload=name,
        scale=scale,
        thresholds=THRESHOLDS[thresholds],
        workload_kwargs=tuple(sorted(kwargs.items())),
    )
    reference = run_functional_job(point, BASELINE)
    before = pickle.dumps(reference)
    derived = set()
    for design in DESIGNS:
        want = pickle.dumps(run_functional_job(point, design))
        calls = executions[name]
        got = pickle.dumps(run_functional_job(point, design, reference))
        if executions[name] == calls:
            derived.add(design)
        assert got == want, design
        # Regions, reports and output keep their bits.
        assert pickle.dumps(reference) == before, design
    assert derived == DERIVES.get(name, set())


# ----------------------------------------------------------------------
# toy workloads
# ----------------------------------------------------------------------
class WriteOnlyState(Workload):
    """Overwrites ``state`` from an exact input each step and reads it
    only for the output: every design derives."""

    name = "write-only-state"
    steps = 4

    def allocate(self, mem: ApproxMemory) -> None:
        mem.alloc("input", (2048,), approx=False, init=np.linspace(1.1, 2.3, 2048))
        mem.alloc("state", (2048,), approx=True, write_only=True)

    def execute(self, mem: ApproxMemory) -> int:
        for i in range(self.steps):
            state = mem.region("state").array
            state[:] = mem.region("input").array * np.float32(1.0 + 0.37 * i)
            mem.sync()
        return self.steps

    def output(self, mem: ApproxMemory) -> np.ndarray:
        return mem.region("state").array.copy()

    def trace_spec(self) -> TraceSpec:
        return TraceSpec(iterations=self.steps, phases=(Phase("state", writes=True),))


class ReadsAnApproximatedInput(WriteOnlyState):
    """``state`` is write-only, but the kernel reads ``input``, which
    every approximating design round-trips."""

    name = "reads-an-approximated-input"

    def allocate(self, mem: ApproxMemory) -> None:
        mem.alloc("input", (2048,), approx=True, init=np.linspace(1.1, 2.3, 2048))
        mem.alloc("state", (2048,), approx=True, write_only=True)


class UnmarkedUnderTruncate(WriteOnlyState):
    """Truncate leaves ``state`` exact: its marking differs from the
    baseline's."""

    name = "unmarked-under-truncate"

    def approx_regions_for(self, design):
        return () if design.approximator == "truncate" else None


@pytest.mark.parametrize("design", ["dganger", "truncate", "AVR"])
def test_toy_write_only_state_derives(design):
    reference = WriteOnlyState().run("baseline")
    derived = WriteOnlyState().derive(design, reference)
    assert derived is not None
    assert pickle.dumps(derived) == pickle.dumps(WriteOnlyState().run(design))


@pytest.mark.parametrize("design", DESIGNS)
def test_a_read_approximated_region_never_derives(design):
    workload = ReadsAnApproximatedInput()
    assert workload.derive(design, workload.run("baseline")) is None


def test_a_design_that_changes_the_marking_never_derives():
    workload = UnmarkedUnderTruncate()
    reference = workload.run("baseline")
    assert workload.derive("truncate", reference) is None
    assert workload.run("truncate").memory.reports["state"].syncs == 0
    assert workload.derive("AVR", reference) is not None


def test_resettled_refuses_what_it_cannot_rebuild():
    approximator = AVRApproximator()
    with pytest.raises(ValueError, match="exact"):
        WriteOnlyState().run("AVR").memory.resettled(approximator)
    with pytest.raises(ValueError, match="write-only"):
        ReadsAnApproximatedInput().run("baseline").memory.resettled(approximator)


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
CONFIG = SystemConfig(
    num_cores=2,
    l1=CacheConfig(2 * 1024, 4, 1),
    l2=CacheConfig(8 * 1024, 8, 8),
    llc=CacheConfig(32 * 1024, 16, 15),
)
SPEC = SweepSpec(
    workloads=("lattice", "lbm"),
    designs=PAPER_DESIGNS,
    config=CONFIG,
    scales=(0.15,),
    max_accesses_per_core=3_000,
)


@pytest.fixture(scope="module")
def serial_result():
    return run_sweep(SPEC, jobs=1)


def assert_same_evaluations(got, want):
    assert list(got.evaluations) == list(want.evaluations)
    for point, evaluation in want.evaluations.items():
        assert evaluation_to_mapping(got[point]) == evaluation_to_mapping(evaluation)


class TestSweep:
    def test_each_trajectory_runs_once(self, executions):
        result = run_sweep(SPEC, jobs=1)
        # lbm's Doppelgänger run marks f, so it keeps its own kernel.
        assert executions == {"lattice": 1, "lbm": 2}
        assert result.stats.functional_executed == 8

    def test_parallel_matches_serial(self, serial_result):
        assert_same_evaluations(run_sweep(SPEC, jobs=2), serial_result)

    def test_baseline_only_cache_derives_the_rest(
        self, tmp_path, executions, serial_result
    ):
        cache = ResultCache(tmp_path)
        for point in SPEC.points():
            cache.put(
                functional_job_key(point, BASELINE),
                run_functional_job(point, BASELINE),
            )
        executions.clear()
        result = run_sweep(SPEC, cache_dir=tmp_path)
        assert executions == {"lbm": 1}
        assert result.stats.functional_executed == 6
        assert_same_evaluations(result, serial_result)

    def test_warm_rerun_executes_nothing(self, tmp_path, executions):
        run_sweep(SPEC, cache_dir=tmp_path)
        executions.clear()
        warm = run_sweep(SPEC, cache_dir=tmp_path)
        assert warm.stats.executed == 0
        assert not executions

    def test_only_deriving_units_are_shipped_the_reference(self):
        executor = _RecordingExecutor()
        run_sweep(SPEC, executor=executor)
        shipped = {
            (args[0].workload, args[1].name): args[2] is not None
            for fn, args in executor.submitted
            if fn is run_functional_job and args[1] != BASELINE
        }
        assert shipped == {
            ("lattice", "dganger"): True,
            ("lattice", "truncate"): True,
            ("lattice", "AVR"): True,
            ("lbm", "dganger"): False,
            ("lbm", "truncate"): True,
            ("lbm", "AVR"): True,
        }

    def test_threshold_settings_share_one_baseline(self, tmp_path, executions):
        """Points that differ only in their thresholds, solo and as a
        mix's instances, share one baseline unit; each finds it."""
        spec = replace(
            SPEC,
            workloads=("lattice",),
            thresholds=(None, ErrorThresholds.from_t2(0.05)),
            scenarios=(get_scenario("lattice@1+lbm@1"),),
        )
        serial = run_sweep(spec, jobs=1)
        # One lattice baseline serves the solo and instance points of
        # both settings; lbm's Doppelgänger runs once per setting.
        assert executions == {"lattice": 1, "lbm": 3}
        parallel = run_sweep(spec, jobs=2, cache_dir=tmp_path)
        assert_same_evaluations(parallel, serial)
        assert list(parallel.scenario_evaluations) == list(serial.scenario_evaluations)
        for point, evaluation in serial.scenario_evaluations.items():
            assert parallel.scenario_evaluations[point] == evaluation


class _Done:
    def __init__(self, value):
        self.value = value

    def result(self):
        return self.value


class _RecordingExecutor(JobExecutor):
    """Runs each unit as it is submitted and records its arguments,
    which a pool executor would pickle."""

    def __init__(self):
        self.submitted = []

    def submit_unit(self, key, fn, /, *args):
        self.submitted.append((fn, args))
        return _Done(fn(*args)), True
