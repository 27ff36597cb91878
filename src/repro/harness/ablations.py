"""Ablation studies of the AVR design choices (paper §3).

Two families:

* **LLC ablations** — switch off the AVR architecture's optimizations
  one at a time (DBUF, PFE policy, lazy eviction, skip counters,
  CMS-LRU refresh) and measure time/traffic/AMAT against full AVR.
* **Compressor ablations** — restrict the compression pipeline (single
  downsampling variant, no exponent biasing, strict hardware error
  check) and measure ratio/error on real workload data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..approx.approximators import padded_blocks
from ..common.config import SystemConfig
from ..common.types import CompressionMethod
from ..compression.compressor import AVRCompressor
from ..compression.errors import mean_relative_error
from ..designs import BASELINE, get_design, layout_source_design
from ..system.frontend import compute_front_end
from ..trace.generator import generate_trace
from .cache import resolve_result_cache
from .runner import _build_layout
from .sweep import (
    SweepPoint,
    _execute_jobs,
    _make_pool,
    _run_jobs,
    _SerialExecutor,
    functional_job_key,
    run_functional_job,
    run_timing_job,
    timing_job_key,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..designs import DesignLike

#: LLC-level ablation variants: label -> AVRLLC keyword overrides.
#: ``pfe_threshold=None`` genuinely disables the PFE (the paper default
#: is the :data:`repro.cache.llc_avr.PFE_DEFAULT` sentinel, so ``None``
#: is free to mean "off" all the way down to the DBUF).
LLC_ABLATIONS: dict[str, dict] = {
    "full AVR": {},
    "no DBUF": {"enable_dbuf": False},
    "no lazy eviction": {"enable_lazy_eviction": False},
    "no skip counters": {"enable_skip_counters": False},
    "no CMS-LRU refresh": {"enable_cms_lru_refresh": False},
    "PFE always": {"pfe_threshold": 0},
    "PFE disabled": {"pfe_threshold": None},
}


@dataclass
class AblationPoint:
    """Timing metrics of one ablation variant (normalized by caller)."""

    cycles: float
    total_bytes: int
    amat_cycles: float
    llc_mpki: float


def run_llc_ablations(
    workload_name: str = "heat",
    config: SystemConfig | None = None,
    scale: float = 1.0,
    max_accesses_per_core: int = 40_000,
    variants: dict[str, dict] | None = None,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    design: "DesignLike" = "AVR",
    **workload_kwargs: object,
) -> dict[str, AblationPoint]:
    """Run one AVR-family design under each LLC ablation variant.

    ``design`` is any registered AVR-family design (spec or name); any
    other design is rejected up front.  Each variant is that design
    with the variant's options merged into its ``avr_options`` and its
    name kept, so "full AVR" is the design itself.  Built on the sweep
    engine's job units: the functional runs (baseline reference + the
    design's layout source) and each variant's timing replay are
    independent jobs, fanned out over ``jobs`` workers and memoized in
    ``cache_dir``; the variants share one timing front end.  The
    functional jobs share cache entries with
    :func:`~repro.experiment.run_experiment` and
    :func:`~repro.harness.sweep.run_sweep` runs of the same point, and
    the "full AVR" variant shares its timing entry with them too.
    """
    config = config or SystemConfig.scaled(num_cores=8)
    variants = variants if variants is not None else LLC_ABLATIONS
    design = get_design(design)
    if design.llc != "avr":
        raise ValueError(
            f"design {design.name!r} cannot consume LLC ablation options; "
            "pick an AVR-family design"
        )
    # Building the variants checks every option before any run.
    variant_designs = {
        label: replace(
            design,
            avr_options=tuple({**dict(design.avr_options), **options}.items()),
        )
        for label, options in variants.items()
    }
    layout_design = layout_source_design(design)
    point = SweepPoint(
        workload=workload_name,
        scale=scale,
        seed=seed,
        max_accesses_per_core=max_accesses_per_core,
        workload_kwargs=tuple(sorted(workload_kwargs.items())),
    )
    cache = resolve_result_cache(cache_dir)
    workload = point.make()

    with _make_pool(jobs) as pool:
        functional_jobs = {
            functional_job_key(point, d): (run_functional_job, point, d)
            for d in (BASELINE, layout_design)
        }
        functional, _ = _run_jobs(pool, cache, functional_jobs)
        reference = functional[functional_job_key(point, BASELINE)]
        layout_run = functional[functional_job_key(point, layout_design)]

        layout = _build_layout(workload, layout_run)
        timing: dict[str, object] = {}
        timing_jobs: dict[str, tuple] = {}
        variant_keys = {
            timing_job_key(point, variant, config): variant
            for variant in variant_designs.values()
        }
        # One batched pass over every variant's key; only misses pay
        # for trace generation and a replay job.  The variants differ in
        # the LLC alone, so they all replay one front end.
        if cache is not None:
            timing.update(cache.get_many(list(variant_keys)))
        front_end = None
        for key, variant in variant_keys.items():
            if key in timing:
                continue
            if front_end is None:
                trace = generate_trace(
                    workload.trace_spec(),
                    reference.memory,
                    num_cores=config.num_cores,
                    max_accesses_per_core=max_accesses_per_core,
                    seed=point.seed,
                )
                front_end = compute_front_end(trace, config)
            timing_jobs[key] = (
                run_timing_job,
                variant,
                config,
                layout,
                front_end,
                None,
                reference.memory.footprint_bytes,
                1.0,
            )
        timing_results, _ = _execute_jobs(pool, cache, timing_jobs)
        timing.update(timing_results)

    results: dict[str, AblationPoint] = {}
    for label, variant in variant_designs.items():
        res = timing[timing_job_key(point, variant, config)]
        results[label] = AblationPoint(
            cycles=res.cycles,
            total_bytes=res.total_bytes,
            amat_cycles=res.amat_cycles,
            llc_mpki=res.llc_mpki,
        )
    return results


#: Compressor-level ablation variants: label -> AVRCompressor kwargs.
COMPRESSOR_ABLATIONS: dict[str, dict] = {
    "full pipeline": {},
    "1D only": {"methods": (CompressionMethod.DOWNSAMPLE_1D,)},
    "2D only": {"methods": (CompressionMethod.DOWNSAMPLE_2D,)},
    "no biasing": {"enable_bias": False},
    "strict float check": {"check_mode": "hardware"},
}


def run_compressor_ablations(
    workload_name: str = "orbit",
    scale: float = 0.5,
    variants: dict[str, dict] | None = None,
    seed: int = 0,
    cache_dir: str | Path | None = None,
    **workload_kwargs: object,
) -> dict[str, dict[str, float]]:
    """Compression ratio / mean error per compressor variant, measured
    on the workload's real (baseline-run) approximable data.

    The error is the paper's output-quality metric,
    :func:`~repro.compression.errors.mean_relative_error`, whose
    denominators are floored at a fraction of the data's mean magnitude,
    so exact zeros in the data do not dominate the mean.

    The baseline run is the sweep engine's functional job unit, so with
    ``cache_dir`` it is shared with any other sweep of the same point.
    """
    variants = variants if variants is not None else COMPRESSOR_ABLATIONS
    point = SweepPoint(
        workload=workload_name,
        scale=scale,
        seed=seed,
        workload_kwargs=tuple(sorted(workload_kwargs.items())),
    )
    cache = resolve_result_cache(cache_dir)
    key = functional_job_key(point, BASELINE)
    functional, _ = _run_jobs(
        _SerialExecutor(), cache, {key: (run_functional_job, point, BASELINE)}
    )
    reference = functional[key]
    workload = point.make()

    # Each approximable region becomes its own blocks, padded as a sync
    # pads them; the error is taken over the regions' values only.
    regions = [r.array for r in reference.memory.regions.values() if r.approx]
    padded = [padded_blocks(a) for a in regions]
    blocks = np.concatenate(padded).astype(np.float32)
    values = np.concatenate([np.arange(p.size) < a.size for a, p in zip(regions, padded)])
    original = blocks.ravel()[values]

    thresholds = workload.default_thresholds
    out: dict[str, dict[str, float]] = {}
    for label, kwargs in variants.items():
        comp = AVRCompressor(thresholds, **kwargs)
        result = comp.compress_blocks(blocks)
        recon = result.reconstructed.ravel()[values]
        out[label] = {
            "ratio": result.compression_ratio,
            "mean_error_pct": mean_relative_error(original, recon) * 100.0,
            "success_pct": float(result.success.mean()) * 100.0,
        }
    return out
