"""Differential tests: write-only regions are approximated once, at settle.

:class:`~repro.approx.ApproxMemory` defers the round trip of a region
allocated ``write_only`` to :meth:`~repro.approx.ApproxMemory.settle`;
``oracles.EagerApproxMemory`` approximates every approximable region at
every sync.  Every workload runs through :meth:`Workload.run` under
both memories, for six designs at two small scales, and the runs must
match bit for bit: the output, the iterations, every final region and
its block sizes, every :class:`RegionReport`, ``sync_count``,
``compression_ratio()`` and ``dedup_factor()``.  A toy workload that
reads its write-only region between syncs shows that the comparison
fails on a wrong declaration.  Unit cases pin the deferral's
bookkeeping.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable

import numpy as np
import pytest

from oracles import EagerApproxMemory
from repro.approx import ApproxMemory, Region, SyncStats, TruncateApproximator
from repro.workloads import WORKLOADS, base, make_workload
from repro.workloads.base import Phase, TraceSpec, Workload, WorkloadResult

DESIGNS = ("baseline", "dganger", "truncate", "AVR", "avr-conservative", "truncate-16")
#: the minimum geometry and scale 0.2; kmeans, whose iteration count
#: follows its data, from its 4,096-point minimum
SCALES = {name: (0.01, 0.2) for name in WORKLOADS} | {"kmeans": (0.001, 0.01)}
CASES = [(name, scale) for name in WORKLOADS for scale in SCALES[name]]
#: the regions each workload declares write-only
WRITE_ONLY = {
    "lattice": {"macro"},
    "lbm": {"velocity"},
    "kmeans": {"assignments"},
    "bscholes": {"call_price", "put_price"},
}


def _digest(array: np.ndarray) -> str:
    """Dtype, shape and bit pattern of an array."""
    data = np.ascontiguousarray(array)
    bits = hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest()
    return f"{data.dtype}{data.shape}:{bits}"


def snapshot(result: WorkloadResult) -> dict[str, Any]:
    """Everything a functional run hands on, floats as bit patterns."""
    mem = result.memory
    return {
        "output": _digest(result.output),
        "iterations": result.iterations,
        "regions": {n: _digest(r.array) for n, r in mem.regions.items()},
        "block_sizes": {
            n: None if r.block_sizes is None else _digest(r.block_sizes)
            for n, r in mem.regions.items()
        },
        "reports": {n: repr(report) for n, report in mem.reports.items()},
        "sync_count": mem.sync_count,
        "compression_ratio": mem.compression_ratio().hex(),
        "dedup_factor": mem.dedup_factor().hex(),
    }


def run_both(
    monkeypatch: pytest.MonkeyPatch, make: Callable[[], Workload], design: str
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Snapshots of one run under the package memory and one eager."""
    deferred = snapshot(make().run(design))
    with monkeypatch.context() as patch:
        patch.setattr(base, "ApproxMemory", EagerApproxMemory)
        eager = snapshot(make().run(design))
    return deferred, eager


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize(("name", "scale"), CASES, ids=[f"{n}-{s}" for n, s in CASES])
def test_deferred_run_matches_eager(monkeypatch, name, scale, design):
    deferred, eager = run_both(
        monkeypatch, lambda: make_workload(name, scale=scale), design
    )
    assert deferred == eager


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_write_only_declarations(name):
    """The regions the differential exercises, and no others."""
    mem = make_workload(name, scale=0.01).run("baseline").memory
    declared = {n for n, r in mem.regions.items() if r.write_only}
    assert declared == WRITE_ONLY.get(name, set())


# ----------------------------------------------------------------------
# toy workloads
# ----------------------------------------------------------------------
class WritesEveryStep(Workload):
    """Overwrites ``state`` from an exact input each step, reads it at
    the end: a correct write-only declaration."""

    name = "writes-every-step"
    steps = 4

    def allocate(self, mem: ApproxMemory) -> None:
        mem.alloc("input", (2048,), approx=False, init=np.linspace(1.1, 2.3, 2048))
        mem.alloc("state", (2048,), approx=True, write_only=True)

    def step(self, mem: ApproxMemory, i: int) -> None:
        state = mem.region("state").array
        state[:] = mem.region("input").array * np.float32(1.0 + 0.37 * i)

    def execute(self, mem: ApproxMemory) -> int:
        for i in range(self.steps):
            self.step(mem, i)
            mem.sync(["state"])
        return self.steps

    def output(self, mem: ApproxMemory) -> np.ndarray:
        return mem.region("state").array.copy()

    def trace_spec(self) -> TraceSpec:
        return TraceSpec(iterations=self.steps, phases=(Phase("state", writes=True),))


class ReadsItsWriteOnlyRegion(WritesEveryStep):
    """Declares ``state`` write-only, yet each step reads it back."""

    name = "reads-its-write-only-region"

    def step(self, mem: ApproxMemory, i: int) -> None:
        state = mem.region("state").array
        if i == 0:
            state[:] = mem.region("input").array
        else:
            state[:] = state * np.float32(1.37) + np.float32(0.11)


@pytest.mark.parametrize("design", ["dganger", "truncate", "AVR"])
def test_correct_toy_declaration_matches_eager(monkeypatch, design):
    deferred, eager = run_both(monkeypatch, WritesEveryStep, design)
    assert deferred == eager


@pytest.mark.parametrize("design", ["truncate", "AVR"])
def test_wrong_declaration_shows_a_difference(monkeypatch, design):
    """A kernel reading its write-only region between syncs sees exact
    values where the eager memory hands it approximated ones."""
    deferred, eager = run_both(monkeypatch, ReadsItsWriteOnlyRegion, design)
    assert deferred["output"] != eager["output"]
    assert deferred != eager


# ----------------------------------------------------------------------
# the deferral's bookkeeping
# ----------------------------------------------------------------------
class CountingTruncate(TruncateApproximator):
    """Truncation that records which region each call approximated."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[str] = []

    def apply(self, region: Region) -> SyncStats:
        self.calls.append(region.name)
        return super().apply(region)


def counting_memory() -> tuple[ApproxMemory, CountingTruncate]:
    approximator = CountingTruncate()
    mem = ApproxMemory(approximator)
    mem.alloc("read", (512,), init=np.linspace(1.1, 2.3, 512))
    mem.alloc("out", (512,), write_only=True)
    return mem, approximator


class TestDeferral:
    def test_n_syncs_apply_once(self):
        mem, approximator = counting_memory()
        out = mem.region("out").array
        for step in range(5):
            out[:] = np.float32(1.1 + step)
            mem.sync(["out"])
        assert approximator.calls == []
        assert mem.reports["out"].syncs == 5
        assert mem.sync_count == 5
        mem.settle()
        assert approximator.calls == ["out"]
        assert mem.reports["out"].syncs == 5
        assert mem.reports["out"].compression_ratio == 2.0
        expected = np.full(512, 5.1, dtype=np.float32)
        TruncateApproximator().apply(Region("x", 0, expected, True))
        assert out.tobytes() == expected.tobytes()

    def test_other_regions_approximate_at_their_sync(self):
        mem, approximator = counting_memory()
        mem.sync()
        assert approximator.calls == ["read"]
        mem.settle()
        assert approximator.calls == ["read", "out"]

    def test_settle_with_nothing_pending_applies_nothing(self):
        mem, approximator = counting_memory()
        mem.settle()
        mem.sync(["read"])
        mem.settle()
        assert approximator.calls == ["read"]
        assert mem.reports["out"].syncs == 0
        assert mem.reports["out"].compression_ratio == 1.0

    def test_sync_after_settle_defers_again(self):
        mem, approximator = counting_memory()
        mem.sync(["out"])
        mem.settle()
        mem.sync(["out"])
        assert approximator.calls == ["out"]
        assert mem.reports["out"].syncs == 2
        mem.settle()
        mem.settle()
        assert approximator.calls == ["out", "out"]

    def test_write_only_region_marked_exact_is_never_approximated(self, monkeypatch):
        class Unmarked(WritesEveryStep):
            def approx_regions_for(self, design):
                return ()

        calls: list[str] = []
        apply = TruncateApproximator.apply

        def counting_apply(self, region):
            calls.append(region.name)
            return apply(self, region)

        monkeypatch.setattr(TruncateApproximator, "apply", counting_apply)
        result = Unmarked().run("truncate")
        reference = WritesEveryStep().run("baseline")
        assert calls == []
        assert result.memory.reports["state"].syncs == 0
        assert result.memory.regions["state"].block_sizes is None
        assert result.output.tobytes() == reference.output.tobytes()
