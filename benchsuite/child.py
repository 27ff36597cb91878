"""One workload in one process: set up, signal ready, measure, report.

Started by ``suite.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It prints ``READY`` once set-up is done (the parent times
set-up from its own clock, start to ready) and, at the end, one JSON
line holding the measured metrics, the attempted and failed operation
counts and the output digests.  With ``--setup-only`` it exits after
``READY``: the parent starts a few of those to take the median set-up
time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any

from tracer import Tracer, layer_metrics, layer_table, write_chrome_trace
from workloads import GridLoad, Op, make_load
from yardstick import Yardstick


def check(
    ops: list[Op], references: dict[str, str], pinned: dict[str, str]
) -> tuple[int, list[str], dict[str, str]]:
    """Failed-op count, problems, and the digest seen per key.

    An op fails when it raised, broke an invariant, or produced a
    digest different from the pinned one for its key, or else from the
    first one seen for its key (set-up runs included).
    """
    problems = [
        f"set-up output of {key} differs from its pinned digest"
        for key, value in references.items()
        if pinned.get(key, value) != value
    ]
    seen = dict(references)
    mismatches: Counter[str] = Counter()
    failed = 0
    for op in ops:
        if not op.ok or op.digest is None:
            failed += 1
            continue
        expected = pinned.get(op.key, seen.setdefault(op.key, op.digest))
        if op.digest != expected:
            failed += 1
            mismatches[f"{op.key}: digest {op.digest[:12]} != {expected[:12]}"] += 1
    problems += [f"{text} ({count} op(s))" for text, count in mismatches.items()]
    return failed, problems, seen


def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated quantile; a single value is its own quantile."""
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def end_to_end(
    ops: list[Op], busy: list[tuple[float, float]], yardstick: Yardstick
) -> dict[str, float]:
    """Median op time and throughput, in reference seconds."""
    seconds = [
        yardstick.scaled(op.start, op.start + op.seconds) for op in ops if op.ok
    ]
    return {
        "op_p50_s": quantile(seconds, 0.5),
        "ops_per_s": len(seconds) / sum(yardstick.scaled(a, b) for a, b in busy),
    }


def op_p90_s(ops: list[Op]) -> float:
    """90th percentile op time: per-layer, since it does not repeat
    across runs within the end-to-end bounds (see README.md)."""
    return quantile([op.seconds for op in ops if op.ok], 0.9)


def serve_metrics(ops: list[Op], rollup: dict[str, int]) -> dict[str, float]:
    """Client-side serve metrics (zeros when there was no daemon)."""
    accept = [op.accept_s for op in ops if op.accept_s is not None]
    first = [op.first_unit_s for op in ops if op.first_unit_s is not None]
    hits = sum(op.stats.get("cache_hits", 0) for op in ops)
    lookups = hits + sum(op.stats.get("cache_misses", 0) for op in ops)
    launched = rollup.get("units_launched", 0)
    deduped = rollup.get("units_deduped", 0)
    return {
        "serve.accept_s": quantile(accept, 0.5),
        "serve.first_unit_s": quantile(first, 0.5),
        "serve.units_launched": launched,
        "serve.units_deduped": deduped,
        "serve.dedup_ratio": deduped / (launched + deduped) if launched else 0.0,
        "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serve.units_failed": rollup.get("units_failed", 0),
    }


def traced(
    load: GridLoad, seconds: float, trace_out: Path | None, name: str
) -> tuple[list[Op], list[Op], dict[str, float], list]:
    """Untraced and traced passes, alternating until ``seconds`` elapse.

    Alternating pairs each traced pass with the untraced pass just
    before it; the tracing overhead is the median of the pairs' ratios,
    so the machine's drift cancels.
    """
    tracer = Tracer()
    plain: list[Op] = []
    spanned: list[Op] = []
    deadline = time.perf_counter() + seconds
    while not spanned or time.perf_counter() < deadline:
        plain.append(load.op())
        tracer.install()
        try:
            spanned.append(load.op(tracer))
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer, len(spanned))
    base = statistics.median(op.seconds for op in plain)
    metrics["bench.tracing_overhead_frac"] = (
        statistics.median(b.seconds / a.seconds for a, b in zip(plain, spanned)) - 1
    )
    metrics["system.sim_minstr_per_s"] = (
        tracer.counts["instructions"] / len(spanned) / base / 1e6
    )
    if trace_out is not None:
        write_chrome_trace(tracer, trace_out / f"{name}.trace.json")
    return plain, spanned, metrics, layer_table(tracer)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pinned", type=Path, required=True)
    args = parser.parse_args(argv)

    load = make_load(args.workload, args.seed, args.smoke)
    load.setup(args.work)
    print("READY", flush=True)
    if args.setup_only:
        load.close()
        return 0

    warm = load.warm_up()
    yardstick = Yardstick()
    layers: list = []
    rollup: dict[str, int] = {}
    traced_ops = 0
    if args.trace and isinstance(load, GridLoad):
        plain, spanned, metrics, layers = traced(
            load, args.seconds, args.trace_out, args.workload
        )
        ops, traced_ops = plain + spanned, len(spanned)
        metrics["bench.op_p90_s"] = op_p90_s(plain)
        metrics.update(serve_metrics([], {}))
    else:
        ops, busy = load.measure(args.seconds, yardstick)
        if not isinstance(load, GridLoad):
            rollup = load.daemon.scheduler.stats.as_mapping()
        if args.trace:
            # The daemon runs its units in worker processes, out of the
            # tracer's reach: only the client-side serve metrics are real.
            metrics = layer_metrics(Tracer(), 1)
            metrics["bench.tracing_overhead_frac"] = 0.0
            metrics["system.sim_minstr_per_s"] = 0.0
            metrics["bench.op_p90_s"] = op_p90_s(ops)
            metrics.update(serve_metrics(ops, rollup))
        else:
            metrics = end_to_end(ops, busy, yardstick)
    load.close()
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()

    pinned = json.loads(args.pinned.read_text())
    failed, problems, digests = check(warm + ops, load.references, pinned)
    if rollup.get("units_failed"):
        problems.append(f"{rollup['units_failed']} daemon unit(s) failed")
    report: dict[str, Any] = {
        "attempted": len(warm) + len(ops),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "digests": digests,
        "pinned": sorted(key for key in digests if key in pinned),
        "layers": layers,
        "timed": len(ops),
        "traced": traced_ops,
        "reference_s": yardstick.median() if yardstick.samples else None,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
