"""Synthetic trace generation from a workload's :class:`TraceSpec`.

The generator turns the declarative access-pattern description (which
regions are swept, read/write mix, compute gaps) plus the concrete
region layout of an :class:`~repro.approx.ApproxMemory` into per-core
address streams.  Multi-core runs use domain decomposition: each core
sweeps its contiguous slice of every phase, as the paper's OpenMP-style
benchmarks do.

Each core's full stream is synthesized in one columnar pass: the
per-iteration access pattern is materialized once as a *template*
(addresses, write flags, rolling-window advance per element), the
(iteration x template) grid is expanded with a single broadcast add,
and all gap jitter is drawn in one RNG call per core.  The historical
per-(iteration, phase) fragment loop survives as the test oracle in
``tests/oracles.py``, and the trace equivalence suite pins this path
bit-identical to it.

Bit-identity holds because ``numpy``'s bounded ``integers`` sampling
consumes the underlying bit stream sequentially (the 32-bit buffer is
part of the generator state), so one draw of N values equals N draws of
one value — the columnar pass draws exactly the values the fragment
loop would, in the same order.

Trace volume is bounded by ``max_accesses_per_core``: when the spec's
full iteration count would exceed it, a prefix of iterations is
generated and the *scale factor* recorded, so the harness can report
full-run quantities (the simulated prefix is representative because
every iteration sweeps the same working set).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..approx.memory import ApproxMemory
from ..workloads.base import Phase, TraceSpec
from .events import TRACE_DTYPE

#: exclusive bound of the per-access gap jitter (cores drift out of
#: lockstep by 0-2 extra instructions per access)
_JITTER_BOUND = 3


@dataclass
class GeneratedTrace:
    """Per-core traces plus bookkeeping for full-run extrapolation."""

    cores: list[np.ndarray]
    iterations_simulated: int
    iterations_total: int

    @property
    def scale_factor(self) -> float:
        """Multiply simulated totals by this to estimate the full run."""
        if self.iterations_simulated == 0:
            return 1.0
        return self.iterations_total / self.iterations_simulated

    @property
    def total_accesses(self) -> int:
        return int(sum(len(t) for t in self.cores))

    def concatenated(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flatten the per-core streams for the batched timing engine.

        Returns ``(core_ids, addrs, writes, gaps, offsets)``: parallel
        arrays over all accesses in core-major order (core 0's whole
        stream, then core 1's, ...), plus the per-core start offsets
        (``offsets[c]:offsets[c+1]`` slices core ``c``).  Addresses are
        widened to int64 so downstream shift/compare arithmetic is
        signed and overflow-free; gaps keep the trace's own dtype.
        """
        lengths = np.array([len(t) for t in self.cores], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        n = int(offsets[-1])
        core_ids = np.repeat(np.arange(len(self.cores), dtype=np.int64), lengths)
        addrs = np.empty(n, dtype=np.int64)
        writes = np.empty(n, dtype=bool)
        gaps = np.empty(n, dtype=TRACE_DTYPE["gap"])
        for c, t in enumerate(self.cores):
            sl = slice(int(offsets[c]), int(offsets[c + 1]))
            addrs[sl] = t["addr"].astype(np.int64)
            writes[sl] = t["write"]
            gaps[sl] = t["gap"]
        return core_ids, addrs, writes, gaps, offsets


def _phase_addresses(
    phase: Phase,
    base: int,
    nbytes: int,
    iteration: int,
    iterations_total: int,
    core: int,
    num_cores: int,
) -> np.ndarray:
    """Cacheline-granular addresses for one phase, one core, one iteration."""
    span = phase.span_bytes(nbytes, iterations_total)
    slice_span = phase.slice_span(nbytes, iterations_total, num_cores)
    if phase.rolling:
        # Streaming-log pattern: iteration i touches the i-th window.
        start = base + iteration * span
    else:
        start = base
    # Domain decomposition across cores.
    start += core * slice_span
    if slice_span < phase.stride:
        return np.empty(0, dtype=np.int64)
    addrs = np.arange(start, start + slice_span, phase.stride, dtype=np.int64)
    if phase.repeats > 1:
        addrs = np.tile(addrs, phase.repeats)
    return addrs


def budget_iterations(
    spec: TraceSpec,
    mem: ApproxMemory,
    num_cores: int,
    max_accesses_per_core: int,
) -> int:
    """Iterations actually simulated under the per-core access budget.

    The cost of one iteration for one core is the *exact* per-core
    access count the generator emits (via the :class:`Phase` geometry
    helpers — the same arithmetic the generator uses),
    so ``iterations * per-iteration cost`` always equals the generated
    stream length.  When the full iteration count would blow the
    budget, a prefix is simulated and the caller reports the
    :attr:`GeneratedTrace.scale_factor`.  Exposed separately from
    :func:`generate_trace` so the scenario harness can compute scale
    factors without paying for trace generation (e.g. on a warm sweep
    cache).
    """
    per_iter = 0
    for phase in spec.phases:
        region = mem.region(phase.region)
        per_iter += (
            phase.lines_per_core(region.nbytes, spec.iterations, num_cores)
            * phase.accesses_per_line
        )
    per_iter = max(per_iter, 1)
    return max(1, min(spec.iterations, max_accesses_per_core // per_iter))


def _core_template(
    spec: TraceSpec, mem: ApproxMemory, core: int, num_cores: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[Phase, int, int, int]]]:
    """One core's per-iteration access pattern as columnar arrays.

    Returns ``(addrs, writes, steps, blocks)``: the iteration-0
    addresses (read-modify-write lines already doubled), the write
    flags, the per-element address advance between iterations (the
    rolling window size, 0 for fixed phases), and per-phase
    ``(phase, jitter_count, access_offset, access_count)`` bookkeeping
    for gap assembly.  Phases whose core slice emits nothing are
    skipped entirely — exactly as the fragment-loop oracle skips them
    before drawing any jitter.
    """
    addr_parts: list[np.ndarray] = []
    write_parts: list[np.ndarray] = []
    step_parts: list[np.ndarray] = []
    blocks: list[tuple[Phase, int, int, int]] = []
    offset = 0
    for phase in spec.phases:
        region = mem.region(phase.region)
        addrs = _phase_addresses(
            phase, region.base_addr, region.nbytes,
            0, spec.iterations, core, num_cores,
        )
        if addrs.size == 0:
            continue
        lines = addrs.size
        step = phase.span_bytes(region.nbytes, spec.iterations) if phase.rolling else 0
        if phase.reads and phase.writes:
            # Read-modify-write sweep: a read and a write per line,
            # interleaved in program order.
            addr_parts.append(np.repeat(addrs, 2))
            write_parts.append(np.tile([False, True], lines))
            count = 2 * lines
        else:
            addr_parts.append(addrs)
            write_parts.append(np.full(lines, phase.writes, dtype=np.bool_))
            count = lines
        step_parts.append(np.full(count, step, dtype=np.int64))
        blocks.append((phase, lines, offset, count))
        offset += count
    if not addr_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=bool), empty, blocks
    return (
        np.concatenate(addr_parts),
        np.concatenate(write_parts),
        np.concatenate(step_parts),
        blocks,
    )


def _generate_core(
    spec: TraceSpec,
    mem: ApproxMemory,
    core: int,
    num_cores: int,
    iterations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One core's full stream in one columnar pass.

    The (iteration x template) grid is a broadcast add of the rolling
    steps; all jitter is one RNG draw, reshaped so column ``j`` of
    iteration ``i`` is exactly the value the fragment-loop oracle's
    per-fragment draw would produce at that position.
    """
    addrs0, writes0, steps, blocks = _core_template(spec, mem, core, num_cores)
    width = addrs0.size
    if width == 0 or iterations == 0:
        return np.empty(0, dtype=TRACE_DTYPE)
    jitter_width = sum(lines for _, lines, _, _ in blocks)
    jitter = rng.integers(
        0, _JITTER_BOUND, iterations * jitter_width, dtype=np.uint32
    ).reshape(iterations, jitter_width)

    out = np.empty(iterations * width, dtype=TRACE_DTYPE)
    grid = addrs0[None, :] + steps[None, :] * np.arange(
        iterations, dtype=np.int64
    )[:, None]
    out["addr"] = grid.reshape(-1)
    out["write"] = np.tile(writes0, iterations)

    gaps = np.zeros((iterations, width), dtype=np.uint32)
    jitter_col = 0
    for phase, lines, offset, count in blocks:
        cols = jitter[:, jitter_col : jitter_col + lines]
        jitter_col += lines
        if count == 2 * lines:
            # Read-modify-write: the read carries the gap, the paired
            # write follows immediately (gap 0).
            gaps[:, offset : offset + count : 2] = np.uint32(phase.gap) + cols
        else:
            gaps[:, offset : offset + count] = np.uint32(phase.gap) + cols
    out["gap"] = gaps.reshape(-1)
    return out


def generate_trace(
    spec: TraceSpec,
    mem: ApproxMemory,
    num_cores: int = 1,
    max_accesses_per_core: int = 300_000,
    seed: int = 0,
) -> GeneratedTrace:
    """Build per-core traces for a workload's main loop.

    Deterministic in ``(spec, mem layout, num_cores,
    max_accesses_per_core, seed)``: the only
    randomness is the seeded per-access gap jitter that drifts cores
    out of lockstep.  The sweep engine relies on this determinism to
    rebuild identical traces in the parent process regardless of where
    the functional jobs ran, and the trace store relies on it to key
    stored front ends by the content of their traces.  When the spec's full iteration count
    would exceed the per-core access budget, a prefix of iterations is
    generated and recorded in the result's ``scale_factor``.

    All cores draw jitter from one sequential RNG stream, core by
    core.  Scenario composition spawns *instance*-level
    :class:`~numpy.random.SeedSequence` child seeds
    (:func:`repro.scenario.compose.instance_seeds`), which is what keeps
    two instances of one workload from emitting identical streams.
    """
    iters_sim = budget_iterations(spec, mem, num_cores, max_accesses_per_core)
    rng = np.random.default_rng(seed)
    return GeneratedTrace(
        cores=[
            _generate_core(spec, mem, core, num_cores, iters_sim, rng)
            for core in range(num_cores)
        ],
        iterations_simulated=iters_sim,
        iterations_total=spec.iterations,
    )
