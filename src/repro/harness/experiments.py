"""Regenerators for every table and figure of the paper's evaluation.

Each function turns a set of :class:`WorkloadEvaluation` objects into
the rows/series the corresponding paper artifact reports.  Numbers are
normalized to the baseline exactly as in the paper; "Geom. Mean"
columns are appended where the paper plots them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..common.config import SystemConfig
from ..common.constants import (
    AVR_LLC_EXTRA_BITS_PER_ENTRY,
    BLOCKS_PER_PAGE,
    CMT_ENTRY_BITS,
)
from ..common.types import EvictionOutcome, LLCRequestOutcome
from ..designs import AVR, BASELINE
from .runner import WorkloadEvaluation

GEOMEAN = "Geom. Mean"

#: figure 14 category labels (paper legend order)
REQUEST_CATEGORIES = {
    LLCRequestOutcome.MISS: "Miss",
    LLCRequestOutcome.HIT_UNCOMPRESSED: "Uncompressed Hit",
    LLCRequestOutcome.HIT_DBUF: "DBUF Hit",
    LLCRequestOutcome.HIT_COMPRESSED: "Compressed Hit",
}

#: figure 15 category labels (paper legend order)
EVICTION_CATEGORIES = {
    EvictionOutcome.RECOMPRESS: "Recompress",
    EvictionOutcome.LAZY_WRITEBACK: "Lazy Writeback",
    EvictionOutcome.FETCH_RECOMPRESS: "Fetch+Recompress",
    EvictionOutcome.UNCOMPRESSED_WRITEBACK: "Uncompressed Writeback",
}

_REQUEST_STATS = {
    LLCRequestOutcome.MISS: "req_miss",
    LLCRequestOutcome.HIT_UNCOMPRESSED: "req_hit_uncompressed",
    LLCRequestOutcome.HIT_DBUF: "req_hit_dbuf",
    LLCRequestOutcome.HIT_COMPRESSED: "req_hit_compressed",
}

_EVICTION_STATS = {
    EvictionOutcome.RECOMPRESS: "evict_recompress",
    EvictionOutcome.LAZY_WRITEBACK: "evict_lazy_writeback",
    EvictionOutcome.FETCH_RECOMPRESS: "evict_fetch_recompress",
    EvictionOutcome.UNCOMPRESSED_WRITEBACK: "evict_uncompressed_writeback",
}


def _geomean(values: list[float]) -> float:
    """Geometric mean over the positive entries (0.0 if none)."""
    arr = np.asarray([v for v in values if v > 0], dtype=np.float64)
    return float(np.exp(np.log(arr).mean())) if arr.size else 0.0


def compared_designs(evals: dict[str, WorkloadEvaluation]) -> list:
    """Non-baseline designs present in the evaluations, stable order.

    Evaluation runs preserve the sweep's design order, so for the
    default grid this is exactly the paper's ``COMPARED`` tuple; extra
    registry designs appear after, in evaluation order.
    """
    out: list = []
    for ev in evals.values():
        for design in ev.runs:
            if design != BASELINE and design not in out:
                out.append(design)
    return out


def _normalized_metric(
    evals: dict[str, WorkloadEvaluation], metric: str
) -> dict[str, dict[str, float]]:
    """Per-workload design/baseline ratios plus a geomean column."""
    compared = compared_designs(evals)
    out: dict[str, dict[str, float]] = {}
    for name, ev in evals.items():
        out[name] = {
            d.value: ev.normalized(d, metric)
            for d in compared
            if d in ev.runs
        }
    designs = [d.value for d in compared]
    out[GEOMEAN] = {
        d: _geomean([out[w][d] for w in evals if d in out[w]]) for d in designs
    }
    return out


# ----------------------------------------------------------------------
# One-call regeneration (sweep-powered)
# ----------------------------------------------------------------------
def regenerate_all(
    names: tuple[str, ...] | None = None,
    config: SystemConfig | None = None,
    scale: float = 1.0,
    seed: int = 0,
    max_accesses_per_core: int = 50_000,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> dict[str, object]:
    """Regenerate every paper artifact in one call.

    Runs the full workloads x designs grid through the sweep engine
    (``jobs`` workers, optional on-disk ``cache_dir``) and returns a
    mapping from artifact name (``"table3"`` ... ``"fig15"``,
    ``"overheads"``) to the corresponding rows/series, plus the raw
    ``"evaluations"`` for custom post-processing.
    """
    from .runner import evaluate_all

    evals = evaluate_all(
        names=names,
        config=config,
        scale=scale,
        seed=seed,
        max_accesses_per_core=max_accesses_per_core,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    return {
        "evaluations": evals,
        "table3": table3_output_error(evals),
        "table4": table4_compression(evals),
        "fig09": fig09_execution_time(evals),
        "fig10": fig10_energy(evals),
        "fig11": fig11_memory_traffic(evals),
        "fig12": fig12_amat(evals),
        "fig13": fig13_mpki(evals),
        "fig14": fig14_llc_requests(evals),
        "fig15": fig15_llc_evictions(evals),
        "overheads": hardware_overheads(),  # §4.2 uses the paper config
    }


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table3_output_error(
    evals: dict[str, WorkloadEvaluation]
) -> dict[str, dict[str, float]]:
    """Table 3: application output error (%) per design.

    Rows cover every approximating design present in the evaluations
    (exact designs — baseline, ZeroAVR — have zero error by
    construction and are omitted, as in the paper).
    """
    rows: dict[str, dict[str, float]] = {}
    for design in compared_designs(evals):
        if not design.runs_functional:
            continue
        rows[design.value] = {
            name: ev.runs[design].output_error * 100.0
            for name, ev in evals.items()
            if design in ev.runs
        }
    return rows


def table4_compression(
    evals: dict[str, WorkloadEvaluation]
) -> dict[str, dict[str, float]]:
    """Table 4: AVR compression ratio and memory footprint (%)."""
    return {
        "Compr. Ratio": {n: ev.avr_compression_ratio for n, ev in evals.items()},
        "Mem. Footprint": {
            n: ev.footprint_vs_baseline * 100.0 for n, ev in evals.items()
        },
    }


# ----------------------------------------------------------------------
# Figures 9-13 (normalized bar charts)
# ----------------------------------------------------------------------
def fig09_execution_time(evals: dict[str, WorkloadEvaluation]) -> dict[str, dict[str, float]]:
    """Figure 9: total execution time, normalized to baseline."""
    return _normalized_metric(evals, "time")


def fig10_energy(evals: dict[str, WorkloadEvaluation]) -> dict[str, dict[str, dict[str, float]]]:
    """Figure 10: energy breakdown per component, normalized to the
    baseline's *total* energy (so stacked bars compare directly)."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    compared = compared_designs(evals)
    for name, ev in evals.items():
        base_total = ev.baseline().timing.energy.total
        per_design: dict[str, dict[str, float]] = {
            BASELINE.value: {
                c: j / base_total for c, j in ev.baseline().timing.energy.joules.items()
            }
        }
        for design in compared:
            if design not in ev.runs:
                continue
            run = ev.runs[design]
            factor = run.timing.iteration_factor / base_total
            per_design[design.value] = {
                c: j * factor for c, j in run.timing.energy.joules.items()
            }
        out[name] = per_design
    return out


def fig11_memory_traffic(evals: dict[str, WorkloadEvaluation]) -> dict[str, dict[str, dict[str, float]]]:
    """Figure 11: DRAM traffic normalized to baseline, split into the
    approximate and non-approximate shares."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    compared = compared_designs(evals)
    for name, ev in evals.items():
        base_bytes = ev.baseline().timing.total_bytes
        per_design: dict[str, dict[str, float]] = {}
        for design in compared:
            if design not in ev.runs:
                continue
            run = ev.runs[design].timing
            total = run.adjusted_bytes / base_bytes if base_bytes else 0.0
            tagged = run.approx_bytes + run.exact_bytes
            approx_share = run.approx_bytes / tagged if tagged else 0.0
            per_design[design.value] = {
                "Approx": total * approx_share,
                "Non-approx": total * (1.0 - approx_share),
            }
        out[name] = per_design
    return out


def fig12_amat(evals: dict[str, WorkloadEvaluation]) -> dict[str, dict[str, float]]:
    """Figure 12: average memory access time, normalized to baseline."""
    return _normalized_metric(evals, "amat")


def fig13_mpki(evals: dict[str, WorkloadEvaluation]) -> dict[str, dict[str, float]]:
    """Figure 13: LLC misses per kilo-instruction, normalized."""
    return _normalized_metric(evals, "mpki")


# ----------------------------------------------------------------------
# Figures 14-15 (AVR LLC behaviour breakdowns)
# ----------------------------------------------------------------------
def fig14_llc_requests(evals: dict[str, WorkloadEvaluation]) -> dict[str, dict[str, float]]:
    """Figure 14: AVR LLC requests on approximate cachelines (%)."""
    out: dict[str, dict[str, float]] = {}
    for name, ev in evals.items():
        stats = ev.runs[AVR].timing.llc_stats
        counts = {
            label: stats.get(_REQUEST_STATS[outcome], 0)
            for outcome, label in REQUEST_CATEGORIES.items()
        }
        total = sum(counts.values())
        out[name] = {
            label: 100.0 * v / total if total else 0.0 for label, v in counts.items()
        }
    return out


def fig15_llc_evictions(evals: dict[str, WorkloadEvaluation]) -> dict[str, dict[str, float]]:
    """Figure 15: AVR LLC evictions of approximate cachelines (%)."""
    out: dict[str, dict[str, float]] = {}
    for name, ev in evals.items():
        stats = ev.runs[AVR].timing.llc_stats
        counts = {
            label: stats.get(_EVICTION_STATS[outcome], 0)
            for outcome, label in EVICTION_CATEGORIES.items()
        }
        total = sum(counts.values())
        out[name] = {
            label: 100.0 * v / total if total else 0.0 for label, v in counts.items()
        }
    return out


# ----------------------------------------------------------------------
# §4.2 hardware overheads
# ----------------------------------------------------------------------
def hardware_overheads(config: SystemConfig | None = None) -> dict[str, float]:
    """Static overhead accounting of §4.2."""
    config = config or SystemConfig.paper()
    cmt_bits_per_page = CMT_ENTRY_BITS * BLOCKS_PER_PAGE + 1  # + TLB approx bit
    tlb_entry_bits = 52 + 36
    llc_lines = config.llc.num_lines
    extra_bytes = llc_lines * AVR_LLC_EXTRA_BITS_PER_ENTRY / 8
    return {
        "cmt_bits_per_page": cmt_bits_per_page,
        "tlb_overhead_factor": cmt_bits_per_page / tlb_entry_bits,
        "llc_extra_bits_per_entry": AVR_LLC_EXTRA_BITS_PER_ENTRY,
        "llc_extra_kbytes": extra_bytes / 1024,
        "llc_overhead_fraction": extra_bytes / config.llc.size_bytes,
    }
