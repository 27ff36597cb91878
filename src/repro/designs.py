"""Open design registry: design points as first-class, registrable values.

A design point is a :class:`DesignSpec` — a frozen, hashable, picklable
value describing how the functional layer approximates data and how
the timing layer's LLC is wired — and the five paper designs are
simply the first five registry entries.  A design is named either by
its spec or by its registry name; every design-accepting API resolves
names through :func:`get_design`.  A new design point is one
:func:`register_design` call; nothing in ``system/factory.py`` or
``common/types.py`` changes.

Three layers of extensibility, cheapest first:

1. **Parameterized variants** — new capacity/compression parameters on
   the built-in LLC families (``llc="baseline"`` /, ``llc="avr"``).
   The shipped ``truncate-16`` (quarter-width approximate lines) and
   ``avr-conservative`` (halved error thresholds, self-measured
   layout) are examples.
2. **Baked-in AVR options** — ``avr_options`` pins
   :class:`~repro.cache.llc_avr.AVRLLC` ablation knobs into a design's
   identity (e.g. a no-DBUF AVR variant).
3. **A custom builder hook** — ``builder`` takes over LLC construction
   entirely for genuinely new cache organizations (see
   ``examples/custom_design.py``).  The hook must be a module-level
   callable so specs still pickle into sweep worker processes; it is
   excluded from a spec's identity (equality, hashing and sweep-cache
   keys cover the declarative fields only, so two specs that differ
   only in builder must differ in name).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from difflib import get_close_matches
from typing import Any, Callable, Iterable, TYPE_CHECKING

from .common.types import ErrorThresholds

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .cache.llc_avr import AVRLLC
    from .cache.llc_baseline import BaselineLLC
    from .common.config import SystemConfig
    from .memory.dram import DRAM
    from .system.layout import AddressLayout

__all__ = [
    "AVR",
    "AVR_CONSERVATIVE",
    "BASELINE",
    "COMPARED",
    "DGANGER",
    "DesignMap",
    "DesignLike",
    "DesignSpec",
    "LLCBuildContext",
    "PAPER_DESIGNS",
    "TRUNCATE",
    "TRUNCATE_16",
    "ZERO_AVR",
    "derive_design",
    "get_design",
    "layout_source_design",
    "list_designs",
    "register_design",
    "resolve_designs",
    "unregister_design",
]

#: approximation strategies the functional layer knows how to apply
APPROXIMATORS = ("exact", "avr", "truncate", "dganger")

#: built-in LLC families ``DesignSpec.build_llc`` can construct
LLC_FAMILIES = ("baseline", "avr")

#: capacity models for the ``baseline`` LLC family
CAPACITY_MODELS = ("none", "truncate", "dganger")


@dataclass
class LLCBuildContext:
    """Everything an LLC builder may consume, bundled as one value.

    Passed to :meth:`DesignSpec.build_llc` and to custom ``builder``
    hooks, so growing the construction interface never changes hook
    signatures.  ``options`` already merges the spec's baked-in
    ``avr_options`` with the caller's runtime overrides (ablations).
    """

    config: "SystemConfig"
    dram: "DRAM"
    layout: "AddressLayout"
    footprint_bytes: int
    dedup_factor: float = 1.0
    options: dict[str, Any] = field(default_factory=dict)

    @property
    def approx_fraction(self) -> float:
        """Fraction of the workload footprint that is approximable."""
        if not self.footprint_bytes:
            return 0.0
        return min(1.0, self.layout.approx_bytes / self.footprint_bytes)


@dataclass(frozen=True, eq=False)
class DesignSpec:
    """One system design point, as an open, declarative value.

    Identity (equality, hashing, and sweep-cache canonicalization)
    covers every field except ``builder``; a spec therefore keys result
    dictionaries and on-disk cache entries stably across processes and
    interpreter runs.  A spec equals only another spec, never its name
    string: resolve names through :func:`get_design` (or look results
    up in a :class:`DesignMap`, which does).
    """

    #: registry name; also the display label in tables and the CLI
    name: str
    #: built-in LLC family the timing layer builds (see ``builder``)
    llc: str = "baseline"
    #: functional-layer approximation strategy applied to marked data
    approximator: str = "exact"
    #: capacity model of the ``baseline`` LLC family: ``"none"`` (plain
    #: cache), ``"truncate"`` (approximate lines stored narrow) or
    #: ``"dganger"`` (measured dedup, capped by the tag-array reach)
    capacity_model: str = "none"
    #: bytes an approximate line occupies in the cache and on the
    #: memory link (``truncate`` capacity model); None = full width
    approx_line_bytes: int | None = None
    #: multiplier applied to the resolved error thresholds (t1 and t2)
    #: of every functional run — ``0.5`` halves the error budget
    thresholds_scale: float = 1.0
    #: AVRLLC keyword overrides baked into the design's identity,
    #: as a sorted tuple of pairs (``(("enable_dbuf", False),)``)
    avr_options: tuple[tuple[str, Any], ...] = ()
    #: AVR machinery present but nothing marked approximable (ZeroAVR)
    approximate_nothing: bool = False
    #: name of the design whose functional run measures the block sizes
    #: this design's timing layout uses; None = the canonical ``AVR``
    #: reference run (only AVR-family timing reads block sizes)
    layout_source: str | None = None
    #: one-line description shown by ``list`` surfaces and docs
    doc: str = ""
    #: custom LLC constructor hook ``(spec, ctx) -> LLC``; overrides the
    #: built-in family dispatch.  Excluded from identity — must be a
    #: picklable module-level callable.
    builder: Callable[["DesignSpec", LLCBuildContext], Any] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"design name must be a non-empty string, got {self.name!r}")
        if self.llc not in LLC_FAMILIES:
            raise ValueError(
                f"unknown LLC family {self.llc!r}; expected one of {LLC_FAMILIES}"
            )
        if self.approximator not in APPROXIMATORS:
            raise ValueError(
                f"unknown approximator {self.approximator!r}; "
                f"expected one of {APPROXIMATORS}"
            )
        if self.capacity_model not in CAPACITY_MODELS:
            raise ValueError(
                f"unknown capacity model {self.capacity_model!r}; "
                f"expected one of {CAPACITY_MODELS}"
            )
        if self.thresholds_scale <= 0:
            raise ValueError(
                f"thresholds_scale must be positive, got {self.thresholds_scale}"
            )
        if self.approx_line_bytes is not None and not (
            0 < self.approx_line_bytes <= 64
        ):
            raise ValueError(
                f"approx_line_bytes must be in (0, 64], got {self.approx_line_bytes}"
            )
        # The functional and timing views of a truncate-family design
        # both key off the stored line width; requiring it up front
        # keeps them consistent by construction.
        if (
            "truncate" in (self.approximator, self.capacity_model)
            and self.approx_line_bytes is None
        ):
            raise ValueError(
                f"design {self.name!r} uses the truncate approximator/"
                "capacity model but does not set approx_line_bytes"
            )
        options = self.avr_options
        if isinstance(options, dict):
            options = tuple(options.items())
        for pair in options:
            if not (
                isinstance(pair, tuple)
                and len(pair) == 2
                and isinstance(pair[0], str)
            ):
                raise ValueError(
                    f"avr_options must be (name, value) pairs, got {pair!r}"
                )
        if options and self.llc != "avr" and self.builder is None:
            raise ValueError(
                f"design {self.name!r} bakes in avr_options but its "
                f"{self.llc!r} LLC family cannot consume them"
            )
        object.__setattr__(self, "avr_options", tuple(sorted(options)))

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def _identity(self) -> tuple:
        return tuple(
            getattr(self, f.name) for f in fields(self) if f.compare
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DesignSpec):
            return self._identity() == other._identity()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._identity())

    # ------------------------------------------------------------------
    # derived roles
    # ------------------------------------------------------------------
    @property
    def is_reference(self) -> bool:
        """Functionally exact: its run equals the baseline reference."""
        return self.approximator == "exact"

    @property
    def runs_functional(self) -> bool:
        """Needs its own functional round-trip (non-exact designs)."""
        return not self.is_reference

    @property
    def measures_dedup(self) -> bool:
        """Its functional run's dedup factor parameterizes capacity."""
        return self.approximator == "dganger"

    @property
    def consumes_avr_options(self) -> bool:
        """Whether runtime ``avr_options`` overrides are meaningful."""
        return self.llc == "avr" or self.builder is not None

    def validate_options(self, avr_options: dict | None) -> None:
        """Reject runtime LLC options a design cannot consume.

        ``build_system`` used to silently drop ``avr_options`` for
        non-AVR designs; an ablation sweep over the wrong design then
        measured nothing.  Now it is a loud error.
        """
        if avr_options and not self.consumes_avr_options:
            raise ValueError(
                f"design {self.name!r} ({self.llc!r} LLC family) cannot "
                f"consume avr_options {sorted(avr_options)}; only AVR-family "
                "designs (or designs with a custom builder) accept them"
            )

    # ------------------------------------------------------------------
    # functional layer
    # ------------------------------------------------------------------
    def resolve_thresholds(
        self,
        explicit: ErrorThresholds | None = None,
        default: ErrorThresholds | None = None,
    ) -> ErrorThresholds | None:
        """Error thresholds of one functional run under this design.

        ``explicit`` (a sweep-point override) wins over ``default`` (the
        workload's per-application knob); ``thresholds_scale`` then
        scales whichever applies, so a tightened design stays tightened
        even inside threshold-ablation sweeps.
        """
        base = explicit if explicit is not None else default
        if self.thresholds_scale == 1.0:
            return base
        base = base if base is not None else ErrorThresholds()
        return ErrorThresholds(
            t1=min(1.0, base.t1 * self.thresholds_scale),
            t2=min(1.0, base.t2 * self.thresholds_scale),
        )

    # ------------------------------------------------------------------
    # timing layer
    # ------------------------------------------------------------------
    def build_llc(self, ctx: LLCBuildContext) -> Any:
        """Construct this design's LLC from the build context.

        Custom ``builder`` hooks take over entirely; otherwise the
        built-in family dispatch applies (the open-registry replacement
        of the old ``build_system`` if/elif chain).
        """
        if self.builder is not None:
            return self.builder(self, ctx)
        if self.llc == "avr":
            return self._build_avr_llc(ctx)
        return self._build_baseline_llc(ctx)

    def _capacity_multiplier(self, ctx: LLCBuildContext) -> float:
        frac = ctx.approx_fraction
        if self.capacity_model == "truncate":
            # Approximate lines stored at ``approx_line_bytes`` width:
            # capacity stretches by the approximate share's saved space.
            line = ctx.config.llc.line_bytes
            narrow = self.approx_line_bytes or line
            return 1.0 / (1.0 - frac * (1.0 - narrow / line))
        if self.capacity_model == "dganger":
            # Dedup shares data entries between similar lines; reach is
            # bounded by the enlarged tag array.
            effective = min(
                max(ctx.dedup_factor, 1.0), float(ctx.config.dganger_tag_factor)
            )
            return 1.0 / (1.0 - frac * (1.0 - 1.0 / effective))
        return 1.0

    def _build_baseline_llc(self, ctx: LLCBuildContext) -> BaselineLLC:
        from .cache.llc_baseline import BaselineLLC

        if self.capacity_model == "none" and self.approx_line_bytes is None:
            return BaselineLLC(ctx.config.llc, ctx.dram)
        return BaselineLLC(
            ctx.config.llc,
            ctx.dram,
            is_approx=ctx.layout.is_approx,
            capacity_multiplier=self._capacity_multiplier(ctx),
            approx_line_bytes=self.approx_line_bytes
            or ctx.config.llc.line_bytes,
            is_approx_batch=ctx.layout.is_approx_batch,
        )

    def _build_avr_llc(self, ctx: LLCBuildContext) -> AVRLLC:
        import numpy as np

        from .cache.llc_avr import AVRLLC
        from .common.constants import BLOCK_CACHELINES

        if self.approximate_nothing:
            # AVR machinery present, nothing marked approximable.
            return AVRLLC(
                ctx.config.llc,
                ctx.dram,
                block_size_of=lambda addr: BLOCK_CACHELINES,
                is_approx=lambda addr: False,
                is_approx_batch=lambda addrs: np.zeros(addrs.shape, dtype=bool),
                block_size_of_batch=lambda addrs: np.full(
                    addrs.shape, BLOCK_CACHELINES, dtype=np.int64
                ),
                **ctx.options,
            )
        return AVRLLC(
            ctx.config.llc,
            ctx.dram,
            block_size_of=ctx.layout.block_size_of,
            is_approx=ctx.layout.is_approx,
            is_approx_batch=ctx.layout.is_approx_batch,
            block_size_of_batch=ctx.layout.block_size_of_batch,
            **ctx.options,
        )


#: anything the design-accepting APIs resolve through :func:`get_design`
DesignLike = DesignSpec | str


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, DesignSpec] = {}


def register_design(spec: DesignSpec, replace: bool = False) -> DesignSpec:
    """Add ``spec`` to the registry (returned for chaining).

    Names are matched case-insensitively; registering a taken name
    raises unless ``replace=True`` (re-registering the identical spec
    is always a no-op, so module re-imports stay idempotent).
    """
    key = spec.name.lower()
    existing = _REGISTRY.get(key)
    if existing is not None and not replace:
        if existing == spec and existing.builder is spec.builder:
            return existing
        raise ValueError(
            f"design name {spec.name!r} is already registered; pass "
            "replace=True to override it"
        )
    _REGISTRY[key] = spec
    return spec


def unregister_design(name: str) -> None:
    """Remove a registered design (primarily for tests)."""
    _REGISTRY.pop(name.lower(), None)


def list_designs() -> tuple[str, ...]:
    """Display names of every registered design, registration order."""
    return tuple(spec.name for spec in _REGISTRY.values())


def get_design(design: DesignLike) -> DesignSpec:
    """Resolve a design reference to its :class:`DesignSpec`.

    Accepts a spec (returned as-is, registered or not) or a registry
    name (case-insensitive).  Unknown names raise a ``ValueError`` with
    close-match suggestions — the error surface the CLI and
    :class:`~repro.experiment.ExperimentSpec` share.
    """
    if isinstance(design, DesignSpec):
        return design
    if isinstance(design, str):
        spec = _REGISTRY.get(design.lower())
        if spec is not None:
            return spec
        names = list_designs()
        by_lower = {n.lower(): n for n in names}
        close = [
            by_lower[c]
            for c in get_close_matches(design.lower(), list(by_lower), n=3, cutoff=0.4)
        ]
        hint = f"; did you mean {', '.join(repr(c) for c in close)}?" if close else ""
        raise ValueError(
            f"unknown design {design!r}{hint} registered designs: "
            f"{', '.join(names)}"
        )
    raise TypeError(
        f"cannot resolve a design from {type(design).__name__}: {design!r}"
    )


def resolve_designs(designs: Iterable[DesignLike]) -> tuple[DesignSpec, ...]:
    """Resolve a sequence of design references to specs."""
    return tuple(get_design(d) for d in designs)


def derive_design(
    base: DesignLike,
    *,
    thresholds_scale: float | None = None,
    approx_line_bytes: int | None = None,
    avr_options: tuple[tuple[str, Any], ...] | None = None,
    name: str | None = None,
) -> DesignSpec:
    """A parameterized variant of ``base``, deterministically named.

    The planner's way of turning one registry design into a family of
    candidate design points: each override that actually changes the
    spec contributes a stable name suffix (``AVR~s0.5``,
    ``truncate~w16``, ``AVR~no-enable_dbuf``), so the same overrides
    always produce the same spec — and therefore the same sweep-cache
    keys — across processes and runs.  Passing no effective overrides
    returns ``base`` itself.
    """
    from dataclasses import replace as _replace

    spec = get_design(base)
    changes: dict[str, Any] = {}
    suffixes: list[str] = []
    if (
        thresholds_scale is not None
        and thresholds_scale != spec.thresholds_scale
    ):
        changes["thresholds_scale"] = thresholds_scale
        suffixes.append(f"s{thresholds_scale:g}")
    if (
        approx_line_bytes is not None
        and approx_line_bytes != spec.approx_line_bytes
    ):
        changes["approx_line_bytes"] = approx_line_bytes
        suffixes.append(f"w{approx_line_bytes}")
    if avr_options:
        merged = dict(spec.avr_options)
        merged.update(avr_options)
        merged_tuple = tuple(sorted(merged.items()))
        if merged_tuple != spec.avr_options:
            changes["avr_options"] = merged_tuple
            for key, value in sorted(avr_options):
                suffixes.append(
                    f"no-{key}" if value is False else f"{key}={value!r}"
                )
    if not changes:
        return spec
    derived_name = name or f"{spec.name}~{'~'.join(suffixes)}"
    return _replace(spec, name=derived_name, **changes)


def layout_source_design(design: DesignLike) -> DesignSpec:
    """The design whose functional run measures a design's timing layout.

    ``layout_source=None`` means the canonical ``AVR`` reference run
    (only AVR-family LLCs consume measured block sizes).
    """
    spec = get_design(design)
    return get_design(spec.layout_source) if spec.layout_source else AVR


class DesignMap(dict):
    """Result mapping keyed by :class:`DesignSpec`.

    Lookups also accept registry names, resolved through
    :func:`get_design` — ``runs["AVR"]`` and ``runs[AVR]`` address the
    same entry.
    """

    @staticmethod
    def _key(key: object) -> object:
        try:
            return get_design(key)
        except (TypeError, ValueError):
            return key

    def __getitem__(self, key: object) -> Any:
        return super().__getitem__(self._key(key))

    def __setitem__(self, key: object, value: Any) -> None:
        super().__setitem__(self._key(key), value)

    def __contains__(self, key: object) -> bool:
        return super().__contains__(self._key(key))

    def get(self, key: object, default: Any = None) -> Any:
        return super().get(self._key(key), default)

    def pop(self, key: object, *args: Any) -> Any:
        return super().pop(self._key(key), *args)

    def setdefault(self, key: object, default: Any = None) -> Any:
        return super().setdefault(self._key(key), default)


# ----------------------------------------------------------------------
# shipped designs: the five paper design points ...
# ----------------------------------------------------------------------
BASELINE = register_design(DesignSpec(
    name="baseline",
    doc="Conventional LLC, no approximation (the normalization anchor).",
))

TRUNCATE = register_design(DesignSpec(
    name="truncate",
    approximator="truncate",
    capacity_model="truncate",
    approx_line_bytes=32,
    doc="Approximate lines truncated to half width in cache and on the link.",
))

DGANGER = register_design(DesignSpec(
    name="dganger",
    approximator="dganger",
    capacity_model="dganger",
    doc="Doppelgänger: similar approximate lines share one data entry.",
))

ZERO_AVR = register_design(DesignSpec(
    name="ZeroAVR",
    llc="avr",
    approximate_nothing=True,
    doc="AVR hardware present, nothing marked approximable (overhead probe).",
))

AVR = register_design(DesignSpec(
    name="AVR",
    llc="avr",
    approximator="avr",
    doc="Approximate Value Reconstruction: compressed approximate LLC lines.",
))

# ... and two parameterized variants demonstrating the open registry.
AVR_CONSERVATIVE = register_design(DesignSpec(
    name="avr-conservative",
    llc="avr",
    approximator="avr",
    thresholds_scale=0.5,
    layout_source="avr-conservative",
    doc="AVR with halved error budgets; layout from its own measured blocks.",
))

TRUNCATE_16 = register_design(DesignSpec(
    name="truncate-16",
    approximator="truncate",
    capacity_model="truncate",
    approx_line_bytes=16,
    doc="Truncation to quarter-width lines: more capacity, coarser values.",
))

#: the five paper design points, registry order (baseline first)
PAPER_DESIGNS = (BASELINE, DGANGER, TRUNCATE, ZERO_AVR, AVR)

#: design points shown in the figures, paper order (baseline is the
#: normalization reference)
COMPARED = (DGANGER, TRUNCATE, ZERO_AVR, AVR)
