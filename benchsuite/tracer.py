"""Span recorder for the benchmark's traced passes.

The package has no instrumentation of its own, so spans are recorded
from outside it: :meth:`Tracer.install` replaces the public function
each layer exposes with a wrapper that records a span around the
original.  A patch goes on the name the caller looks up — a module
global in the module that calls it (``generate_trace`` as
``repro.harness.scenario.generate_trace``), a method on its class — so
the package itself is untouched and every simulated output stays
bit-identical.

Spans stay in memory as ``(name, start_ns, end_ns, parent)`` and are
turned into per-layer metrics (:func:`layer_metrics`) and a Chrome
trace-event file (:func:`write_chrome_trace`) after the run.  The
recorder assumes one thread: traced passes run with ``jobs=1``, so
every layer runs in the calling thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: counter hook: ``hook(counts, args, result)`` after a wrapped call
CountHook = Callable[[dict, tuple, Any], None]


def _count_sweep(counts: dict, args: tuple, result: Any) -> None:
    stats = result.stats
    counts["units_executed"] += stats.executed
    counts["cache_hits"] += stats.cache_hits
    counts["cache_lookups"] += stats.cache_hits + stats.cache_misses


def _count_cache_io(counts: dict, args: tuple, result: Any) -> None:
    # One CacheStats object per ResultCache; remember the latest view
    # of each, the per-pass totals are summed from them afterwards.
    stats = args[0].stats
    counts.setdefault("cache_stats", {})[id(stats)] = stats


def _count_blocks(counts: dict, args: tuple, result: Any) -> None:
    counts["blocks"] += len(result.success)


def _count_generated(counts: dict, args: tuple, result: Any) -> None:
    counts["accesses_generated"] += sum(len(core) for core in result.cores)


def _count_store_get(counts: dict, args: tuple, result: Any) -> None:
    counts["store_gets"] += 1
    counts["store_hits"] += result is not None


def _count_filter(counts: dict, args: tuple, result: Any) -> None:
    counts["filter_accesses"] += len(result.needs_llc)
    counts["filter_llc"] += int(result.needs_llc.sum())


def _count_events(key: str) -> CountHook:
    def hook(counts: dict, args: tuple, result: Any) -> None:
        counts[key] += len(args[1])

    return hook


def _count_instructions(counts: dict, args: tuple, result: Any) -> None:
    counts["instructions"] += result.instructions


#: (module, attribute, span name, count hook) for every wrapped layer
#: entry point; ``content_key`` is patched in each module that calls it
TARGETS: tuple[tuple[str, str, str, CountHook | None], ...] = (
    ("repro.harness.sweep", "run_sweep", "run_sweep", _count_sweep),
    ("repro.harness.cache", "ResultCache.get_many", "ResultCache.get_many",
     _count_cache_io),
    ("repro.harness.cache", "ResultCache.put_many", "ResultCache.put_many",
     _count_cache_io),
    ("repro.harness.cache", "content_key", "content_key", None),
    ("repro.harness.sweep", "content_key", "content_key", None),
    ("repro.harness.scenario", "content_key", "content_key", None),
    ("repro.experiment", "content_key", "content_key", None),
    ("repro.harness.sweep", "build_scenario_context", "build_scenario_context",
     None),
    ("repro.harness.sweep", "run_functional_job", "run_functional_job", None),
    ("repro.workloads.base", "Workload.output_error", "Workload.output_error",
     None),
    ("repro.harness.sweep", "SweepPoint.make", "SweepPoint.make", None),
    ("repro.approx.memory", "ApproxMemory.sync", "ApproxMemory.sync", None),
    ("repro.compression.compressor", "AVRCompressor.compress_blocks",
     "AVRCompressor.compress_blocks", _count_blocks),
    ("repro.compression.compressor", "AVRCompressor.decompress_blocks",
     "AVRCompressor.decompress_blocks", None),
    ("repro.harness.scenario", "generate_trace", "generate_trace",
     _count_generated),
    ("repro.trace.store", "TraceStore.get", "TraceStore.get", _count_store_get),
    ("repro.trace.store", "TraceStore.put", "TraceStore.put", None),
    ("repro.harness.sweep", "build_system", "build_system", None),
    ("repro.system.simulator", "TimingSystem.run", "TimingSystem.run",
     _count_instructions),
    ("repro.cache.array_lru", "BatchedPrivateFilter.filter",
     "BatchedPrivateFilter.filter", _count_filter),
    ("repro.cache.llc_avr", "AVRLLC.replay_batch", "AVRLLC.replay_batch",
     _count_events("llc_avr_events")),
    ("repro.cache.llc_baseline", "BaselineLLC.replay_batch",
     "BaselineLLC.replay_batch", _count_events("llc_baseline_events")),
    ("repro.memory.dram", "DRAM.replay_transfers", "DRAM.replay_transfers",
     _count_events("dram_transfers")),
    ("repro.memory.dram", "DRAM.access_batch", "DRAM.access_batch",
     _count_events("dram_transfers")),
    ("repro.cpu.interval", "IntervalCore.replay_batch",
     "IntervalCore.replay_batch", None),
)

#: root span of one pass; its self time is what no layer accounts for
ROOT_SPAN = "run_experiment"


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent index or -1]`` per span
        self.spans: list[list[Any]] = []
        self.counts: dict[str, Any] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(
        self, name: str, fn: Callable, hook: CountHook | None = None
    ) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every :data:`TARGETS` entry point (undone by :meth:`uninstall`)."""
        for module_name, attribute, name, hook in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)


def span_totals(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Per span name: call count, total ns and self ns.

    Self time is a span's duration minus its children's; calls within
    one thread are sequential, so children never overlap.
    """
    child_ns = [0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for (name, start, end, _parent), children in zip(tracer.spans, child_ns):
        calls[name] += 1
        total[name] += end - start
        self_ns[name] += end - start - children
    return calls, total, self_ns


#: per-layer seconds: metric -> (span name, "total" or "self")
SPAN_SECONDS = {
    "harness.sweep.self_s": ("run_sweep", "self"),
    "harness.cache.get_many_s": ("ResultCache.get_many", "total"),
    "harness.cache.put_many_s": ("ResultCache.put_many", "total"),
    "harness.cache.content_key_s": ("content_key", "total"),
    "harness.scenario.context_s": ("build_scenario_context", "total"),
    "workloads.functional_self_s": ("run_functional_job", "self"),
    "workloads.output_error_s": ("Workload.output_error", "total"),
    "workloads.make_s": ("SweepPoint.make", "total"),
    "approx.sync_self_s": ("ApproxMemory.sync", "self"),
    "compression.compress_s": ("AVRCompressor.compress_blocks", "total"),
    "compression.decompress_s": ("AVRCompressor.decompress_blocks", "total"),
    "trace.generate_s": ("generate_trace", "total"),
    "trace.store_get_s": ("TraceStore.get", "total"),
    "trace.store_put_s": ("TraceStore.put", "total"),
    "system.build_s": ("build_system", "total"),
    "system.run_self_s": ("TimingSystem.run", "self"),
    "cache.private_filter_s": ("BatchedPrivateFilter.filter", "total"),
    "cache.llc_avr_self_s": ("AVRLLC.replay_batch", "self"),
    "cache.llc_baseline_self_s": ("BaselineLLC.replay_batch", "self"),
    "memory.dram_settle_s": ("DRAM.replay_transfers", "total"),
    "memory.dram_batch_s": ("DRAM.access_batch", "total"),
    "cpu.interval_s": ("IntervalCore.replay_batch", "total"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans and counters of ``passes`` passes."""
    calls, total, self_ns = span_totals(tracer)
    counts = tracer.counts
    seconds = {
        metric: (self_ns if kind == "self" else total)[span] / 1e9 / passes
        for metric, (span, kind) in SPAN_SECONDS.items()
    }
    cache_stats = list(counts.get("cache_stats", {}).values())
    llc_avr_events = counts["llc_avr_events"]
    per_pass = {
        "harness.sweep.units_executed": counts["units_executed"],
        "harness.cache.content_key_calls": calls["content_key"],
        "harness.cache.bytes_read": sum(s.bytes_read for s in cache_stats),
        "harness.cache.bytes_written": sum(s.bytes_written for s in cache_stats),
        "harness.cache.file_opens": sum(s.file_opens for s in cache_stats),
        "workloads.functional_jobs": calls["run_functional_job"],
        "approx.sync_calls": calls["ApproxMemory.sync"],
        "compression.blocks": counts["blocks"],
        "trace.accesses_generated": counts["accesses_generated"],
        "cache.private_filter_accesses": counts["filter_accesses"],
        "cache.llc_avr_events": llc_avr_events,
        "cache.llc_baseline_events": counts["llc_baseline_events"],
        "memory.dram_transfers": counts["dram_transfers"],
    }
    metrics = {**seconds, **{k: v / passes for k, v in per_pass.items()}}
    metrics.update({
        "harness.sweep.cache_hit_ratio":
            _ratio(counts["cache_hits"], counts["cache_lookups"]),
        "trace.store_hit_ratio":
            _ratio(counts["store_hits"], counts["store_gets"]),
        "cache.private_filter_llc_ratio":
            _ratio(counts["filter_llc"], counts["filter_accesses"]),
        "cache.llc_avr_ns_per_event":
            _ratio(self_ns["AVRLLC.replay_batch"], llc_avr_events),
        "bench.unattributed_frac":
            _ratio(self_ns[ROOT_SPAN], total[ROOT_SPAN]),
    })
    return metrics


def layer_table(tracer: Tracer) -> list[tuple[str, int, float, float]]:
    """``(span name, calls, total s, self s)`` rows, largest self time first."""
    calls, total, self_ns = span_totals(tracer)
    rows = [
        (name, calls[name], total[name] / 1e9, self_ns[name] / 1e9)
        for name in calls
    ]
    return sorted(rows, key=lambda row: -row[3])


def write_chrome_trace(tracer: Tracer, path: Path) -> None:
    """Write the spans as Chrome trace-event JSON (Perfetto opens it as-is)."""
    origin = min((span[1] for span in tracer.spans), default=0)
    events = [
        {
            "name": name,
            "ph": "X",
            "ts": (start - origin) / 1e3,
            "dur": (end - start) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {"id": index, "parent": parent},
        }
        for index, (name, start, end, parent) in enumerate(tracer.spans)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))
