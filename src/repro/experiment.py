"""Declarative experiments: one serializable value describes a whole run.

This is the one way to run an evaluation.  An :class:`ExperimentSpec`
composes everything the evaluation stack can vary — workloads and
multi-programmed scenarios, registered designs, machine size, grid
axes (scales / seeds / error thresholds), trace budget, and execution
settings (worker processes, cache directory) — into a single frozen
value that loads from and dumps to TOML or JSON.
:func:`run_experiment` executes it through the sweep engine, so a
spec-driven run decomposes into exactly the same job units (with
exactly the same content-hash cache keys) as the equivalent
:func:`~repro.harness.sweep.run_sweep` call, and a warm cache serves
either path.  ``repro experiment`` builds the spec from a file, from
flags, or both.  Grids a spec cannot express (a hand-built
``SystemConfig``, workload constructor arguments) call ``run_sweep``
directly.

::

    spec = ExperimentSpec.from_file("examples/experiment_spec.toml")
    result = run_experiment(spec)
    result.by_workload()["heat"].normalized("AVR", "time")

Specs are identity-stable: :meth:`ExperimentSpec.content_hash` is a
SHA-256 over the spec's canonical form (the same canonicalization the
sweep cache uses), so two specs hash equal iff they describe the same
experiment — file round-trips are bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, TYPE_CHECKING

from .common.config import SystemConfig
from .common.types import ErrorThresholds
from .designs import PAPER_DESIGNS, resolve_designs
from .harness.cache import content_key

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .harness.runner import WorkloadEvaluation
    from .harness.scenario import ScenarioEvaluation
    from .harness.sweep import SweepSpec

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "dump_flat_toml",
    "load_spec_mapping",
    "run_experiment",
]

#: default machine width when the spec pins neither cores nor scenarios
DEFAULT_CORES = 8


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment — workloads/scenarios x designs x settings.

    Every field is a plain scalar or tuple, so specs are hashable,
    picklable, canonicalizable into cache keys, and round-trip through
    TOML/JSON bit-identically.  Designs and scenarios are referenced by
    *name* (registry names / mix strings); resolution happens at
    construction (typos fail fast, with suggestions).
    """

    #: label for reports and file names (not part of the grid identity)
    name: str = "experiment"
    #: workload names; empty = all seven paper workloads unless
    #: ``scenarios`` is non-empty (mixes bring their own workloads)
    workloads: tuple[str, ...] = ()
    #: scenario registry names or mix strings (``heat@4+lbm@4``)
    scenarios: tuple[str, ...] = ()
    #: registered design names (see :func:`repro.designs.list_designs`);
    #: default: the five paper designs
    designs: tuple[str, ...] = tuple(d.name for d in PAPER_DESIGNS)
    #: workload size multipliers
    scales: tuple[float, ...] = (1.0,)
    #: trace-jitter seeds
    seeds: tuple[int, ...] = (0,)
    #: T2 error-threshold overrides (T1 = 2*T2); empty = per-workload
    #: defaults
    t2_thresholds: tuple[float, ...] = ()
    #: trace accesses per core
    max_accesses_per_core: int = 50_000
    #: simulated cores; None derives it (scenario width, else 8)
    num_cores: int | None = None
    #: default worker processes (overridable at :func:`run_experiment`)
    jobs: int = 1
    #: default on-disk result-cache directory (None = no cache)
    cache_dir: str | None = None
    #: memory-mapped composed-trace store directory; None derives
    #: ``<cache_dir>/m<MODEL_VERSION>/traces`` when caching, ``"off"``
    #: disables it (see :func:`repro.trace.store.resolve_trace_store`)
    trace_store: str | None = None

    def __post_init__(self) -> None:
        for name, kind in (("workloads", str), ("scenarios", str),
                           ("designs", str), ("seeds", int)):
            object.__setattr__(
                self, name, tuple(kind(v) for v in getattr(self, name))
            )
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        object.__setattr__(
            self, "t2_thresholds", tuple(float(t) for t in self.t2_thresholds)
        )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_accesses_per_core < 1:
            raise ValueError(
                "max_accesses_per_core must be >= 1, "
                f"got {self.max_accesses_per_core}"
            )
        if self.num_cores is not None and self.num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {self.num_cores}")
        for t2 in self.t2_thresholds:
            try:
                ErrorThresholds.from_t2(t2)
            except ValueError as exc:
                raise ValueError(f"bad T2 threshold {t2}: {exc}") from None
        if not self.designs:
            raise ValueError("an experiment needs at least one design")
        # Fail fast, with did-you-mean suggestions, on unknown names.
        resolve_designs(self.designs)
        from .scenario import get_scenario
        from .workloads import WORKLOADS

        for name in self.scenarios:
            # Reject a machine narrower than a mix here, not mid-run.
            scenario = get_scenario(name)
            if self.num_cores is not None and self.num_cores < scenario.total_cores:
                raise ValueError(
                    f"mix {scenario.name!r} needs {scenario.total_cores} "
                    f"cores, num_cores gave {self.num_cores}"
                )
        for workload in self.workloads:
            if workload not in WORKLOADS:
                raise ValueError(
                    f"unknown workload {workload!r}; available: "
                    f"{', '.join(sorted(WORKLOADS))}"
                )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    #: fields that do not affect results: the display label and the
    #: execution settings; stored traces are bit-identical to
    #: regenerated ones, so the trace store is execution-only too
    _NON_IDENTITY_FIELDS = frozenset({"name", "jobs", "cache_dir", "trace_store"})

    def content_hash(self) -> str:
        """Stable SHA-256 of the spec's *grid identity*.

        Built by the same canonicalization the sweep cache keys use, so
        it is stable across processes and interpreter runs and blind to
        everything that cannot change results: field ordering in a spec
        file, the ``name`` label, and the ``jobs``/``cache_dir``/
        ``trace_store`` execution settings.  Two specs hash equal iff
        they enumerate the same job units.

        The digest is computed once per instance and memoized: the
        spec is frozen, so re-serializing the full canonical form for
        every caller (the CLI header, the JSON report, the daemon's
        session events) is pure waste.
        The memo rides along through ``pickle`` (it lives in the
        instance ``__dict__``), so worker processes inherit it too.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is not None:
            return cached  # type: ignore[no-any-return]
        identity = tuple(
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if f.name not in self._NON_IDENTITY_FIELDS
        )
        digest = content_key("experiment", identity)
        object.__setattr__(self, "_content_hash", digest)
        return digest

    # ------------------------------------------------------------------
    # execution view
    # ------------------------------------------------------------------
    def resolved_cores(self) -> int:
        """Machine width: pinned, or wide enough for every scenario."""
        if self.num_cores is not None:
            return self.num_cores
        from .scenario import get_scenario

        widths = [get_scenario(s).total_cores for s in self.scenarios]
        if self.workloads or not self.scenarios:
            widths.append(DEFAULT_CORES)
        return max(widths)

    def to_sweep_spec(self) -> SweepSpec:
        """The :class:`~repro.harness.sweep.SweepSpec` this spec runs as.

        The decomposition seam that makes spec-driven and programmatic
        runs share cache entries: both enumerate identical job units.
        """
        from .harness.sweep import SweepSpec
        from .scenario import get_scenario

        thresholds = (
            tuple(ErrorThresholds.from_t2(t) for t in self.t2_thresholds)
            or (None,)
        )
        return SweepSpec(
            workloads=self.workloads,
            designs=resolve_designs(self.designs),
            config=SystemConfig.scaled(num_cores=self.resolved_cores()),
            scales=self.scales,
            seeds=self.seeds,
            thresholds=thresholds,
            max_accesses_per_core=self.max_accesses_per_core,
            scenarios=tuple(get_scenario(s) for s in self.scenarios),
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_mapping(self) -> dict[str, Any]:
        """Plain-scalar mapping form (tuples as lists, None omitted)."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_mapping(cls, mapping: dict[str, Any]) -> "ExperimentSpec":
        """Build a spec from a mapping, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(
                f"unknown experiment spec keys {unknown}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**mapping)

    def to_file(self, path: str | Path) -> Path:
        """Write the spec as TOML (default) or JSON, by extension."""
        path = Path(path)
        mapping = self.to_mapping()
        if path.suffix == ".json":
            text = json.dumps(mapping, indent=2) + "\n"
        else:
            text = dump_flat_toml(mapping)
        path.write_text(text)
        return path

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        return cls.from_mapping(load_spec_mapping(path))


def load_spec_mapping(path: str | Path) -> dict[str, Any]:
    """Parse a ``.toml`` or ``.json`` spec file into a plain mapping.

    Format is chosen by extension, and the returned mapping feeds
    :meth:`ExperimentSpec.from_mapping`.  ``repro submit`` sends the
    mapping itself, so the daemon builds the spec on its side.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        return dict(json.loads(text))
    import tomllib

    return tomllib.loads(text)


def dump_flat_toml(mapping: dict[str, Any]) -> str:
    """Minimal TOML emitter for the flat spec schemas.

    The stdlib parses TOML (``tomllib``) but cannot write it; specs are
    flat scalars/lists, so a small exact emitter keeps the round trip
    dependency-free and bit-stable.
    """

    def scalar(value: Any) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, float)):
            return repr(value)
        if isinstance(value, str):
            return json.dumps(value)  # TOML basic strings == JSON strings
        raise TypeError(f"cannot emit {type(value).__name__} as TOML: {value!r}")

    lines = []
    for key, value in mapping.items():
        if isinstance(value, list):
            lines.append(f"{key} = [{', '.join(scalar(v) for v in value)}]")
        else:
            lines.append(f"{key} = {scalar(value)}")
    return "\n".join(lines) + "\n"


@dataclass
class ExperimentResult:
    """A finished experiment: the spec plus its sweep results."""

    spec: ExperimentSpec
    sweep: Any  # SweepResult (kept loose to avoid import cycles)

    @property
    def stats(self) -> Any:
        """Execution accounting (jobs executed vs served from cache)."""
        return self.sweep.stats

    def by_workload(self) -> dict[str, WorkloadEvaluation]:
        """``{workload name: WorkloadEvaluation}`` (singleton grids)."""
        return self.sweep.by_workload()

    def by_scenario(self) -> dict[str, ScenarioEvaluation]:
        """``{scenario name: ScenarioEvaluation}`` (singleton grids)."""
        return self.sweep.by_scenario()

    @property
    def evaluations(self) -> Any:
        """Raw per-point evaluations, keyed by sweep point."""
        return self.sweep.evaluations

    @property
    def scenario_evaluations(self) -> Any:
        """Raw per-point scenario evaluations, keyed by scenario point."""
        return self.sweep.scenario_evaluations


def run_experiment(
    spec: ExperimentSpec | str | Path,
    jobs: int | None = None,
    cache_dir: str | Path | Any | None = None,
    trace_store: str | Path | bool | None = None,
    executor: Any | None = None,
    on_unit_done: Any | None = None,
) -> ExperimentResult:
    """Execute an experiment spec (or spec file) end to end.

    The spec is decomposed into the sweep engine's job units
    (:meth:`ExperimentSpec.to_sweep_spec`), so results are
    bit-identical to the equivalent
    :func:`~repro.harness.sweep.run_sweep` call and cache entries are
    shared with it.  ``jobs`` / ``cache_dir`` /
    ``trace_store`` override the spec's execution settings without
    touching its identity;
    ``cache_dir`` may also be a prebuilt
    :class:`~repro.harness.cache.ResultCache`.  ``executor`` /
    ``on_unit_done`` forward to :func:`~repro.harness.sweep.run_sweep`
    — the ``repro serve`` daemon injects its shared deduplicating
    scheduler and streams per-unit progress through them.
    """
    from .harness.sweep import run_sweep

    if isinstance(spec, (str, Path)):
        spec = ExperimentSpec.from_file(spec)
    resolved_cache = cache_dir if cache_dir is not None else spec.cache_dir
    sweep = run_sweep(
        spec.to_sweep_spec(),
        jobs=jobs if jobs is not None else spec.jobs,
        cache_dir=resolved_cache,
        trace_store=trace_store if trace_store is not None else spec.trace_store,
        executor=executor,
        on_unit_done=on_unit_done,
    )
    return ExperimentResult(spec=spec, sweep=sweep)
