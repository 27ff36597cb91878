"""Declarative plan specs: a design-space search as one value.

A :class:`PlanSpec` describes everything a planning run needs — the
candidate :class:`~repro.designs.DesignSpec` parameter space (base
designs x thresholds scales x T2 overrides x compression widths x AVR
option toggles), the objective and constraints, the full-fidelity
evaluation budget, and the fidelity ladder the successive-halving loop
climbs — as a frozen value that round-trips through TOML/JSON and
hashes stably (:meth:`PlanSpec.content_hash`), mirroring
:class:`~repro.experiment.ExperimentSpec`.

Objectives and constraints name *metrics*: quantities the sweep
engine's :class:`~repro.harness.runner.WorkloadEvaluation` already
measures per design.  ``traffic`` / ``time`` / ``amat`` / ``mpki`` /
``energy`` are normalized against the baseline design (lower is
better); ``error`` is the absolute output-error fraction; and
``compression`` is the functional compression ratio (the one metric
where higher is better).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from ..cache.llc_avr import AVR_FLAGS
from ..designs import resolve_designs
from ..harness.cache import content_key
from ..workloads import WORKLOADS

__all__ = ["Constraint", "METRICS", "MAXIMIZE", "PlanSpec"]

#: every metric a plan may target, in display order
METRICS = ("traffic", "time", "amat", "mpki", "energy", "error", "compression")

#: metrics where larger values are better (all others are minimized)
MAXIMIZE = frozenset({"compression"})

#: AVRLLC boolean options ``avr_toggles`` may switch off
AVR_TOGGLEABLE = AVR_FLAGS


@dataclass(frozen=True)
class Constraint:
    """One feasibility bound: ``metric <op> value``.

    Parsed from the compact text form the CLI and spec files use
    (``"error<=0.05"``); a candidate violating any constraint is
    infeasible — it is ranked behind every feasible candidate during
    halving and excluded from the final Pareto front.
    """

    metric: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(
                f"unknown constraint metric {self.metric!r}; "
                f"expected one of {METRICS}"
            )
        if self.op not in ("<=", ">="):
            raise ValueError(f"constraint operator must be <= or >=, got {self.op!r}")

    @classmethod
    def parse(cls, text: str) -> "Constraint":
        """Parse ``"error<=0.05"`` / ``"compression>=4"`` forms."""
        for op in ("<=", ">="):
            if op in text:
                metric, _, value = text.partition(op)
                try:
                    return cls(metric.strip(), op, float(value))
                except ValueError as exc:
                    raise ValueError(
                        f"cannot parse constraint {text!r}: {exc}"
                    ) from exc
        raise ValueError(
            f"cannot parse constraint {text!r}; expected METRIC<=VALUE "
            "or METRIC>=VALUE"
        )

    def satisfied(self, value: float) -> bool:
        """Whether a measured metric value meets this bound."""
        return value <= self.value if self.op == "<=" else value >= self.value

    def render(self) -> str:
        """The compact text form this constraint parses from."""
        return f"{self.metric}{self.op}{self.value:g}"


@dataclass(frozen=True)
class PlanSpec:
    """One planning run: search space x objective x budget x fidelity.

    Every field is a plain scalar or tuple (like
    :class:`~repro.experiment.ExperimentSpec`), so specs are hashable,
    picklable, and TOML/JSON round-trippable.  The candidate space is
    the cross product of ``designs`` x ``thresholds_scales`` x
    ``t2_thresholds``, widened by ``approx_line_bytes`` for
    truncate-family designs and ``avr_toggles`` for AVR-family designs
    (axes that do not apply to a base design collapse instead of
    multiplying), deduplicated by design identity.
    """

    #: label for reports and file names (not part of the plan identity)
    name: str = "plan"
    #: the workload the plan optimizes over
    workload: str = "heat"
    #: base registry designs the candidate space varies
    designs: tuple[str, ...] = ("AVR",)
    #: ``DesignSpec.thresholds_scale`` variants of every base design
    thresholds_scales: tuple[float, ...] = (1.0,)
    #: T2 error-threshold overrides (T1 = 2*T2) crossed with every
    #: candidate design; empty = the workload's default thresholds
    t2_thresholds: tuple[float, ...] = ()
    #: compression-width variants for truncate-family designs (bytes an
    #: approximate line occupies); other designs ignore this axis
    approx_line_bytes: tuple[int, ...] = ()
    #: AVRLLC boolean options toggled *off* one at a time, each
    #: producing an extra AVR-family candidate (see ``AVR_TOGGLEABLE``)
    avr_toggles: tuple[str, ...] = ()
    #: metric the plan minimizes (``compression`` maximizes)
    objective: str = "traffic"
    #: feasibility bounds in ``METRIC<=VALUE`` text form
    constraints: tuple[str, ...] = ()
    #: metrics spanning the final Pareto front
    pareto_metrics: tuple[str, ...] = ("traffic", "error", "compression")
    #: max candidates promoted to full fidelity; 0 = unbounded, which
    #: degenerates to the exhaustive grid (every candidate evaluated at
    #: full fidelity — the equivalence anchor the tests pin)
    budget: int = 0
    #: halving factor between rungs (survivors and fidelity both)
    eta: int = 2
    #: accesses/core at the lowest rung; 0 derives it from the ladder
    min_fidelity: int = 0
    #: cap on rung-0 candidates; 0 = all.  When the space is larger,
    #: the surrogate model (or, lacking data, a seeded shuffle) picks
    #: which candidates enter the race at all.
    initial_candidates: int = 0
    #: planner RNG seed (rung sampling; threaded into every stochastic
    #: choice — planning is deterministic given the spec and this seed)
    seed: int = 0
    #: workload size multiplier
    scale: float = 1.0
    #: trace-jitter seed of every candidate evaluation
    trace_seed: int = 0
    #: full-fidelity trace accesses per core (the final rung)
    max_accesses_per_core: int = 50_000
    #: simulated cores; None = 8
    num_cores: int | None = None
    #: default worker processes (overridable at :func:`run_plan`)
    jobs: int = 1
    #: default on-disk result-cache directory (None = no cache)
    cache_dir: str | None = None
    #: memory-mapped trace store directory (see ``ExperimentSpec``)
    trace_store: str | None = None

    def __post_init__(self) -> None:
        for name, kind in (("designs", str), ("avr_toggles", str),
                           ("constraints", str), ("pareto_metrics", str)):
            object.__setattr__(
                self, name, tuple(kind(v) for v in getattr(self, name))
            )
        for name in ("thresholds_scales", "t2_thresholds"):
            object.__setattr__(
                self, name, tuple(float(v) for v in getattr(self, name))
            )
        object.__setattr__(
            self, "approx_line_bytes",
            tuple(int(v) for v in self.approx_line_bytes),
        )
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; available: "
                f"{', '.join(sorted(WORKLOADS))}"
            )
        if not self.designs:
            raise ValueError("a plan needs at least one base design")
        resolve_designs(self.designs)  # fail fast with suggestions
        if not self.thresholds_scales:
            raise ValueError("a plan needs at least one thresholds_scale")
        if self.objective not in METRICS:
            raise ValueError(
                f"unknown objective {self.objective!r}; expected one of {METRICS}"
            )
        for metric in self.pareto_metrics:
            if metric not in METRICS:
                raise ValueError(
                    f"unknown pareto metric {metric!r}; expected one of {METRICS}"
                )
        if not self.pareto_metrics:
            raise ValueError("a plan needs at least one pareto metric")
        for toggle in self.avr_toggles:
            if toggle not in AVR_TOGGLEABLE:
                raise ValueError(
                    f"unknown AVR toggle {toggle!r}; expected one of "
                    f"{AVR_TOGGLEABLE}"
                )
        for text in self.constraints:
            Constraint.parse(text)
        if self.eta < 2:
            raise ValueError(f"eta must be >= 2, got {self.eta}")
        if self.budget < 0 or self.min_fidelity < 0 or self.initial_candidates < 0:
            raise ValueError("budget, min_fidelity and initial_candidates "
                             "must be >= 0 (0 = unbounded/derived/all)")
        if self.max_accesses_per_core < 1:
            raise ValueError("max_accesses_per_core must be >= 1")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    #: execution-only fields outside the plan's identity (mirrors
    #: ``ExperimentSpec``: the label/worker/cache settings cannot change
    #: what is planned)
    _NON_IDENTITY_FIELDS = frozenset({"name", "jobs", "cache_dir", "trace_store"})

    def content_hash(self) -> str:
        """Stable SHA-256 of the plan's identity (memoized per spec)."""
        cached = self.__dict__.get("_content_hash")
        if cached is not None:
            return cached  # type: ignore[no-any-return]
        identity = tuple(
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if f.name not in self._NON_IDENTITY_FIELDS
        )
        digest = content_key("plan", identity)
        object.__setattr__(self, "_content_hash", digest)
        return digest

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def parsed_constraints(self) -> tuple[Constraint, ...]:
        """The ``constraints`` texts as :class:`Constraint` values."""
        return tuple(Constraint.parse(text) for text in self.constraints)

    def resolved_cores(self) -> int:
        """Machine width of every candidate evaluation."""
        return self.num_cores if self.num_cores is not None else 8

    # ------------------------------------------------------------------
    # serialization (the ExperimentSpec file idiom)
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
    def from_mapping(cls, mapping: dict[str, Any]) -> "PlanSpec":
        """Build a spec from a mapping, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(
                f"unknown plan spec keys {unknown}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**mapping)

    def to_file(self, path: str | Path) -> Path:
        """Write the spec as TOML (default) or JSON, by extension."""
        from ..experiment import dump_flat_toml

        path = Path(path)
        mapping = self.to_mapping()
        if path.suffix == ".json":
            text = json.dumps(mapping, indent=2) + "\n"
        else:
            text = dump_flat_toml(mapping)
        path.write_text(text)
        return path

    @classmethod
    def from_file(cls, path: str | Path) -> "PlanSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        from ..experiment import load_spec_mapping

        return cls.from_mapping(load_spec_mapping(path))
