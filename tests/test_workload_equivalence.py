"""Differential tests: the orbit, lattice and lbm kernels against their oracles.

``OrbitWorkload.execute`` runs its leapfrog on Python floats and writes
each 2,048-step chunk at once; ``LatticeWorkload.execute`` and
``LbmWorkload.execute`` run their step in preallocated buffers with one
gather for bounce-back, streaming and outflow.  ``tests/oracles.py``
keeps the per-step numpy loops they replaced.  Each case runs one
workload under one design through :meth:`Workload.run` twice: the
package kernel under the package's :class:`ApproxMemory`, and the
oracle loop under ``oracles.EagerApproxMemory``, which approximates
every approximable region at every sync.  Kernel and oracle alike
return the iteration count and leave the output in the regions;
:meth:`Workload.run` settles the memory and reads the output with
:meth:`Workload.output`, which the oracle run replaces with the
workload's ``*_output_reference``.  Under the package memory, ``settle()``
approximates lattice's ``macro`` and lbm's ``velocity`` (the
``write_only`` regions) once, at the end; under the eager memory every
sync did, and nothing is left for ``settle()``.  So the comparison
covers the kernels and the deferral together.  The direct run pinned
here is what ``tests/test_derived_runs.py`` compares each derived
result with.

The runs are compared as bit patterns.  At each ``mem.sync``: every
synced region before the sync; after it, every region the kernel reads
with its report and block sizes, and each write-only region's round
trip count.  Then every final region (so each write-only region's
approximated state), the output, the iteration count, every
:class:`RegionReport`, ``sync_count`` and the block sizes.

Sizes: the minimum geometry, scale 0.15 (the benchmark's), scale 0.2,
and the paper geometry (scale 1.0) with a few steps for lattice and lbm;
orbit at scale 1.0 runs all 32,768 steps.

bscholes' input data is pinned too: its spot prices, an AR(1) walk
``allocate`` computes as a running fold over Python floats, against the
element-by-element loop ``oracles.bscholes_spot_reference``.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Callable

import numpy as np
import pytest

from oracles import (
    EagerApproxMemory,
    bscholes_spot_reference,
    lattice_execute_reference,
    lattice_output_reference,
    lbm_execute_reference,
    lbm_output_reference,
    orbit_execute_reference,
    orbit_output_reference,
)
from repro.approx.memory import ApproxMemory
from repro.workloads import base, make_workload
from repro.workloads.base import Workload

#: workload -> (kernel oracle, output oracle)
Oracle = tuple[Callable[..., int], Callable[..., np.ndarray]]
REFERENCES: dict[str, Oracle] = {
    "orbit": (orbit_execute_reference, orbit_output_reference),
    "lattice": (lattice_execute_reference, lattice_output_reference),
    "lbm": (lbm_execute_reference, lbm_output_reference),
}
DESIGNS = ("baseline", "dganger", "truncate", "AVR")
#: (workload, scale, kwargs): 0.01 is each kernel's minimum geometry;
#: at 0.15 every kernel runs all its steps, as the benchmark's grid does
SIZES = [
    ("orbit", 0.01, {}),
    ("orbit", 0.2, {}),
    ("lattice", 0.01, {"steps": 30}),
    ("lattice", 0.15, {}),
    ("lattice", 0.2, {"steps": 50}),
    ("lattice", 1.0, {"steps": 3}),
    ("lbm", 0.01, {"steps": 20}),
    ("lbm", 0.15, {}),
    ("lbm", 0.2, {"steps": 25}),
    ("lbm", 1.0, {"steps": 4}),
]


def _digest(array: np.ndarray) -> str:
    """Dtype, shape and bit pattern of an array."""
    data = np.ascontiguousarray(array)
    bits = hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest()
    return f"{data.dtype}{data.shape}:{bits}"


def _run(
    monkeypatch: pytest.MonkeyPatch,
    workload: Workload,
    design: str,
    oracle: Oracle | None = None,
) -> dict[str, Any]:
    """Everything one run stores, with the state around each sync.

    ``oracle`` replaces the workload's kernel and output and runs them
    under the eager memory; ``None`` runs the package's kernel and
    output under the package's memory.  Floats are compared through
    their digests and reprs, which tell every bit pattern apart.
    """
    memory = ApproxMemory if oracle is None else EagerApproxMemory
    syncs: list[tuple[Any, ...]] = []
    sync = memory.sync

    def after_sync(mem: ApproxMemory, name: str) -> tuple[Any, ...]:
        region = mem.regions[name]
        if region.write_only:
            # Approximated at the end, by settle() or by the last sync.
            return name, mem.reports[name].syncs
        return (
            name,
            _digest(region.array),
            repr(mem.reports[name]),
            None if region.block_sizes is None else _digest(region.block_sizes),
        )

    def recording_sync(self: ApproxMemory, names: list[str] | None = None) -> None:
        targets = names if names is not None else list(self.regions)
        before = [(n, _digest(self.regions[n].array)) for n in targets]
        sync(self, names)
        syncs.append((before, [after_sync(self, n) for n in targets]))

    with monkeypatch.context() as patch:
        patch.setattr(memory, "sync", recording_sync)
        patch.setattr(base, "ApproxMemory", memory)
        if oracle is not None:
            execute, output = oracle
            patch.setattr(workload, "execute", functools.partial(execute, workload))
            patch.setattr(workload, "output", functools.partial(output, workload))
        result = workload.run(design)
    mem = result.memory
    return {
        "syncs": syncs,
        "regions": {n: _digest(r.array) for n, r in mem.regions.items()},
        "block_sizes": {
            n: None if r.block_sizes is None else _digest(r.block_sizes)
            for n, r in mem.regions.items()
        },
        "reports": {n: repr(report) for n, report in mem.reports.items()},
        "sync_count": mem.sync_count,
        "output": _digest(result.output),
        "iterations": result.iterations,
    }


def assert_same_run(got: dict[str, Any], want: dict[str, Any]) -> None:
    assert len(got["syncs"]) == len(want["syncs"])
    for i, (g, w) in enumerate(zip(got["syncs"], want["syncs"])):
        assert g[0] == w[0], f"sync {i}: regions differ before the sync"
        assert g[1] == w[1], f"sync {i}: regions or reports differ after the sync"
    for key in ("regions", "block_sizes", "reports", "sync_count", "output", "iterations"):
        assert got[key] == want[key], key


def check(monkeypatch: pytest.MonkeyPatch, name: str, scale: float,
          design: str, **kwargs: Any) -> None:
    got = _run(monkeypatch, make_workload(name, scale=scale, **kwargs), design)
    want = _run(monkeypatch, make_workload(name, scale=scale, **kwargs), design,
                REFERENCES[name])
    assert got["syncs"], "the kernel never synced"
    assert_same_run(got, want)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize(("name", "scale", "kwargs"), SIZES,
                         ids=[f"{n}-{s}" for n, s, _ in SIZES])
def test_kernel_matches_oracle(monkeypatch, name, scale, kwargs, design):
    check(monkeypatch, name, scale, design, **kwargs)


@pytest.mark.parametrize("design", ["baseline", "AVR"])
def test_orbit_full_length_matches_oracle(monkeypatch, design):
    """All 32,768 steps at scale 1.0: a norm computed without the BLAS
    dot's fused multiply-adds first drifts this late."""
    workload = make_workload("orbit", scale=1.0)
    assert workload.steps == 32768
    check(monkeypatch, "orbit", 1.0, design)


def test_orbit_partial_last_chunk_matches_oracle(monkeypatch):
    """A step count off the chunk grid: the tail is logged, not synced."""
    got_workload = make_workload("orbit", scale=0.01)
    want_workload = make_workload("orbit", scale=0.01)
    got_workload.steps = want_workload.steps = 4096 + 1000
    got = _run(monkeypatch, got_workload, "AVR")
    want = _run(monkeypatch, want_workload, "AVR", REFERENCES["orbit"])
    assert len(got["syncs"]) == 2
    assert_same_run(got, want)


def test_recorder_sees_a_changed_bit(monkeypatch):
    """The comparison is not vacuous: one flipped bit in one synced value
    of one step is reported."""
    def flipped(workload, mem):
        sync = mem.sync
        calls = []

        def flip_once(names=None):
            if len(calls) == 3:
                macro = mem.region("macro").array
                macro.view(np.uint32)[1, 5, 7] ^= 1
            calls.append(names)
            sync(names)

        mem.sync = flip_once
        return lattice_execute_reference(workload, mem)

    got = _run(monkeypatch, make_workload("lattice", scale=0.01, steps=6), "baseline",
               (flipped, lattice_output_reference))
    want = _run(monkeypatch, make_workload("lattice", scale=0.01, steps=6), "baseline",
                REFERENCES["lattice"])
    with pytest.raises(AssertionError, match="sync 3"):
        assert_same_run(got, want)


def test_recorder_sees_a_changed_output(monkeypatch):
    """The outputs are compared too: one flipped bit in the value an
    output oracle reads back is reported."""
    def flipped(workload, mem):
        output = lattice_output_reference(workload, mem)
        output.reshape(-1).view(np.uint8)[0] ^= 1
        return output

    got = _run(monkeypatch, make_workload("lattice", scale=0.01, steps=6), "baseline",
               (lattice_execute_reference, flipped))
    want = _run(monkeypatch, make_workload("lattice", scale=0.01, steps=6), "baseline",
                REFERENCES["lattice"])
    with pytest.raises(AssertionError, match="output"):
        assert_same_run(got, want)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
@pytest.mark.parametrize("scale", [0.05, 0.15, 1.0])
def test_bscholes_spot_matches_oracle(scale, seed):
    """bscholes' spot walk runs as one running fold; its float32 prices
    carry the element-by-element loop's bits."""
    workload = make_workload("bscholes", scale=scale, seed=seed)
    mem = ApproxMemory()
    workload.allocate(mem)
    got = mem.region("spot").array
    want = bscholes_spot_reference(workload)
    assert got.dtype == want.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
