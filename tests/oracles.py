"""Test oracles: the reference implementations the fast paths replaced.

The package keeps one production path per layer.  The slow, obviously
correct implementations those paths were derived from live here, where
the differential suites (``test_engine_equivalence.py``,
``test_trace_equivalence.py``, ``test_scenario.py``) and the
``--check`` modes of ``benchmarks/bench_timing.py`` and
``benchmarks/bench_trace_synthesis.py`` diff the fast paths against
them bit for bit:

* :func:`run_reference` — the interleaved access-at-a-time timing
  replay, the oracle of :meth:`repro.system.TimingSystem.run`;
* :func:`generate_trace_reference` — the per-(iteration, phase)
  fragment loop, the oracle of :func:`repro.trace.generate_trace`.

The benchmarks import this module by putting ``tests/`` on
``sys.path``.
"""

from __future__ import annotations

import numpy as np

from repro.approx.memory import ApproxMemory
from repro.cache.hierarchy import PrivateCaches
from repro.cpu.interval import IntervalCore
from repro.system.simulator import INTERLEAVE_CHUNK, SimResult, TimingSystem
from repro.trace.events import TRACE_DTYPE, concat_traces, make_trace
from repro.trace.generator import (
    _JITTER_BOUND,
    GeneratedTrace,
    _phase_addresses,
    budget_iterations,
)
from repro.workloads.base import TraceSpec

__all__ = ["generate_trace_reference", "run_reference"]


def run_reference(system: TimingSystem, trace: GeneratedTrace) -> SimResult:
    """The original interleaved per-access replay loop.

    Like :meth:`TimingSystem.run`, it mutates ``system``'s LLC and DRAM
    models, so each system should replay exactly one trace.
    """
    config = system.config
    num_cores = len(trace.cores)
    cores = [IntervalCore(config.core) for _ in range(num_cores)]
    privates = [PrivateCaches(config) for _ in range(num_cores)]

    positions = [0] * num_cores
    lengths = [len(t) for t in trace.cores]
    llc = system.llc
    active = True
    while active:
        active = False
        for cid in range(num_cores):
            pos = positions[cid]
            end = min(pos + INTERLEAVE_CHUNK, lengths[cid])
            if pos >= end:
                continue
            active = True
            core = cores[cid]
            priv = privates[cid]
            records = trace.cores[cid][pos:end]
            for rec in records:
                addr = int(rec["addr"])
                write = bool(rec["write"])
                core.advance(int(rec["gap"]))
                latency, needs_llc, writebacks = priv.access(addr, write)
                if needs_llc:
                    latency += llc.read(addr)
                for wb_addr, _dirty in writebacks:
                    llc.writeback(wb_addr)
                core.memory_event(latency, l1_hit=not needs_llc and latency <= priv.l1.latency)
            positions[cid] = end

    return system._finalize(
        trace,
        cores,
        l1_accesses=sum(p.l1.accesses for p in privates),
        l2_accesses=sum(p.l2.accesses for p in privates),
    )


def _generate_core_reference(
    spec: TraceSpec,
    mem: ApproxMemory,
    core: int,
    num_cores: int,
    iterations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The historical per-(iteration, phase) fragment loop."""
    fragments: list[np.ndarray] = []
    for iteration in range(iterations):
        for phase in spec.phases:
            region = mem.region(phase.region)
            addrs = _phase_addresses(
                phase, region.base_addr, region.nbytes,
                iteration, spec.iterations, core, num_cores,
            )
            if addrs.size == 0:
                continue
            gaps = np.full(addrs.size, phase.gap, dtype=np.uint32)
            # Jitter gaps slightly so cores drift out of lockstep.
            gaps += rng.integers(0, _JITTER_BOUND, addrs.size, dtype=np.uint32)
            if phase.reads and phase.writes:
                # Read-modify-write sweep: emit a read and a write
                # per line (interleaved in program order).
                n = addrs.size
                both = np.empty(2 * n, dtype=TRACE_DTYPE)
                both["addr"][0::2] = addrs
                both["addr"][1::2] = addrs
                both["write"][0::2] = False
                both["write"][1::2] = True
                both["gap"][0::2] = gaps
                both["gap"][1::2] = 0
                fragments.append(both)
            else:
                fragments.append(
                    make_trace(
                        addrs,
                        np.full(addrs.size, phase.writes, dtype=np.bool_),
                        gaps,
                    )
                )
    return concat_traces(fragments)


def generate_trace_reference(
    spec: TraceSpec,
    mem: ApproxMemory,
    num_cores: int = 1,
    max_accesses_per_core: int = 300_000,
    seed: int = 0,
    per_core_streams: bool = False,
) -> GeneratedTrace:
    """:func:`repro.trace.generate_trace` built on the fragment loop.

    Same signature, same iteration budget and the same jitter-stream
    plumbing (one shared RNG, or one ``SeedSequence`` child per core);
    only the per-core synthesis differs.
    """
    iters_sim = budget_iterations(spec, mem, num_cores, max_accesses_per_core)
    if per_core_streams:
        rngs = [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(max(num_cores, 1))
        ]
    else:
        rngs = [np.random.default_rng(seed)] * num_cores
    return GeneratedTrace(
        cores=[
            _generate_core_reference(spec, mem, core, num_cores, iters_sim, rng)
            for core, rng in zip(range(num_cores), rngs)
        ],
        iterations_simulated=iters_sim,
        iterations_total=spec.iterations,
    )
