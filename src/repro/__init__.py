"""repro — reproduction of AVR: Approximate Value Reconstruction (ICPP 2019).

Public API highlights:

* :class:`repro.compression.AVRCompressor` — the downsampling
  compressor/decompressor pipeline.
* :class:`repro.approx.ApproxMemory` — approximable-region registry that
  applies functional round-trips to workload data.
* :mod:`repro.workloads` — the seven evaluation applications.
* :func:`repro.system.build_system` — full timing-simulator instances
  for baseline / AVR / ZeroAVR / Truncate / Doppelgänger.
* :class:`repro.ExperimentSpec` / :func:`repro.run_experiment` — the
  one way to run an evaluation (:mod:`repro.experiment`): a whole
  evaluation as one TOML/JSON-serializable, cache-addressable value,
  also behind ``repro experiment``.
* :mod:`repro.harness` — turns evaluations into every table and figure
  of the paper's evaluation.
* :class:`repro.SweepSpec` / :func:`repro.run_sweep` — the parallel
  sweep engine under ``run_experiment``: enumerate the evaluation grid
  as independent job units, fan them out over worker processes, and
  cache results on disk (see :mod:`repro.harness.sweep`).  Call it
  directly for grids an experiment spec cannot express (a hand-built
  ``SystemConfig``, workload constructor arguments).
* :class:`repro.Scenario` — the scenario subsystem: multi-programmed
  workload mixes with per-core slowdown / weighted-speedup contention
  metrics (see :mod:`repro.scenario` and :mod:`repro.harness.scenario`).
* :class:`repro.DesignSpec` / :func:`repro.register_design` — the open
  design registry (:mod:`repro.designs`): design points are
  registrable values, named by registry name; the five paper designs
  are shipped entries.
* :mod:`repro.trace` — vectorized trace synthesis (bit-identical to
  the reference fragment loop) and the content-keyed, memory-mapped
  :class:`repro.trace.TraceStore` that warm sweeps map timing front
  ends from.
* :mod:`repro.analysis` — the ``repro check`` static analysis pass:
  repo invariants (RNG discipline, kernel dtypes, cache-key
  completeness, picklable hooks, engine parity, docstrings) as
  registrable AST rules, gating CI.
* :mod:`repro.serve` — the long-running evaluation service:
  ``repro serve`` hosts a shared result cache and worker pool behind
  a socket; ``repro submit`` streams specs from many concurrent
  clients, with overlapping job units executed exactly once.
"""

from .common import ErrorThresholds, SystemConfig
from .compression import AVRCompressor

# 1.7.0: repo-invariant static analysis pass (``repro check``) +
# strict typing gate.  No simulation semantics changed; the bump marks
# the typed (py.typed) API surface.
# 1.8.0: a multi-fidelity design-space planner, since deleted (the
# paper runs no design-space search).  Simulation results were
# unchanged; the bump kept its cache entries apart from earlier runs.
# 1.10.0: repro.serve — the evaluation daemon (session multiplexing,
# cross-client unit dedup, shared cache).  Simulation results are
# unchanged; the bump marks the service protocol's first version.
# 1.11.0: the result cache's shard index and its API are gone; stores
# live under ``<cache-dir>/m<MODEL_VERSION>/``.  The package version no
# longer reaches any cache key.
# 1.12.0: public names removed: the byte-level block image and its
# bitmap packing, the block-image backing store, the BDI stack, the
# scalar fixed-point and float-field helpers and the trace builders.
# Simulation results and keys are unchanged.
# 1.13.0: public names removed: ``truncate_values``,
# ``truncate_roundtrip`` and ``max_truncation_error``.
# ``FilteredTrace``'s four per-access writeback columns became the
# core-major LLC event columns.  Simulation results and keys are
# unchanged.
# 1.14.0: ``ApproxMemory.alloc(..., write_only=True)`` and
# ``ApproxMemory.settle()``: a write-only region is approximated once,
# at settle, instead of at every sync.  ``RegionReport.approx`` is
# removed.  Simulation results and keys are unchanged.
# 1.15.0: public names removed: ``DesignSpec.builder``,
# ``LLCBuildContext``, ``DesignSpec.validate_options`` and
# ``consumes_avr_options``, the ``avr_options`` keyword of
# ``build_system``, ``run_timing_job`` and ``timing_job_key`` (an AVR
# LLC option lives in ``DesignSpec.avr_options`` alone), the
# ``trace_store`` keyword of ``run_sweep`` and ``run_experiment``, the
# ``ExperimentSpec.trace_store`` field, ``repro experiment
# --trace-store`` and ``resolve_trace_store`` (the store always lives
# at ``<cache-dir>/m<MODEL_VERSION>/traces``), and the
# ``per_core_streams`` keyword of ``generate_trace`` and of the trace
# key function.
# A spec file or daemon submission that still carries ``trace_store``
# fails with the unknown-key error, as ``engine`` and ``cache_backend``
# do.  Simulation results and keys are unchanged.
# 1.16.0: the timing front end is the one timing input that is stored
# and shipped: it carries each access's ``gap`` and the trace's
# iteration counts, ``TimingSystem.run`` takes only a front end, and
# ``run_timing_job`` lost its trace argument.  Public names removed
# (CHANGES.md lists each verbatim): the trace store's trace entries
# with their content-key function, handle class and get-or-generate
# method; ``TraceStore.contains``, ``len(TraceStore)``,
# ``get_front_end`` and ``put_front_end`` (``get`` and ``put`` now
# read and write front ends); ``TraceStoreUsage``'s trace count; the scenario context's
# trace-payload method; ``GeneratedTrace.restrict``; the ``store``
# keyword of ``scenario_timing_context``; ``SweepStats``' two trace
# counters; and from the functional layer the ``thresholds`` keyword
# of ``ApproxMemory.alloc``, ``Region.thresholds``, the ``check_mode``
# keyword of ``Workload.run``, ``approximator_for`` and
# ``AVRApproximator``, and the ``dganger_threshold`` keyword of
# ``Workload.run``.  A stored front end without a ``gap`` column reads
# as a miss and is rewritten.  Simulation results and keys are
# unchanged.
__version__ = "1.16.0"

#: The version of the simulated model, folded into every result-cache
#: and front-end key and naming the ``m<MODEL_VERSION>/`` store
#: directory.  Bump it when a change moves a simulated output, changes
#: what a key's inputs mean, or changes the shape of a stored payload
#: in a way a reader would misread (a pickled result dataclass).  A
#: stored record whose older form reads as a miss needs no bump: the
#: front-end reader rejects a record that lacks a column or field it
#: needs, and the recomputed entry it writes under the unchanged key
#: holds the same values.  A release that does none of these leaves
#: it, so caches stay warm.
MODEL_VERSION = "1.10.0"

#: sweep-engine names re-exported lazily so ``import repro`` stays
#: lightweight (the harness pulls in every simulator module).
_SWEEP_EXPORTS = ("SweepPoint", "SweepResult", "SweepSpec", "run_sweep")

#: design-registry names, re-exported lazily for the same reason
_DESIGN_EXPORTS = {
    "DesignSpec": ("repro.designs", "DesignSpec"),
    "register_design": ("repro.designs", "register_design"),
    "get_design": ("repro.designs", "get_design"),
    "list_designs": ("repro.designs", "list_designs"),
    "PAPER_DESIGNS": ("repro.designs", "PAPER_DESIGNS"),
}

#: experiment-facade names, re-exported lazily for the same reason
_EXPERIMENT_EXPORTS = {
    "ExperimentSpec": ("repro.experiment", "ExperimentSpec"),
    "ExperimentResult": ("repro.experiment", "ExperimentResult"),
    "run_experiment": ("repro.experiment", "run_experiment"),
}

#: scenario names re-exported lazily for the same reason
_SCENARIO_EXPORTS = {
    "Scenario": ("repro.scenario", "Scenario"),
    "ScenarioEntry": ("repro.scenario", "ScenarioEntry"),
    "get_scenario": ("repro.scenario", "get_scenario"),
    "parse_mix": ("repro.scenario", "parse_mix"),
    "ScenarioPoint": ("repro.harness.scenario", "ScenarioPoint"),
    "ScenarioEvaluation": ("repro.harness.scenario", "ScenarioEvaluation"),
}

_LAZY_EXPORTS = {**_DESIGN_EXPORTS, **_EXPERIMENT_EXPORTS, **_SCENARIO_EXPORTS}

__all__ = [
    "AVRCompressor",
    "ErrorThresholds",
    "MODEL_VERSION",
    "SystemConfig",
    "__version__",
    *_SWEEP_EXPORTS,
    *_LAZY_EXPORTS,
]


def __getattr__(name: str) -> object:
    if name in _SWEEP_EXPORTS:
        from .harness import sweep

        return getattr(sweep, name)
    if name in _LAZY_EXPORTS:
        import importlib

        module, attr = _LAZY_EXPORTS[name]
        return getattr(importlib.import_module(module), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
