"""Construction of evaluated design points, via the design registry.

Dispatch lives in the spec itself
(:meth:`repro.designs.DesignSpec.build_llc`): a new design point is
one ``register_design`` call and this file never changes.
"""

from __future__ import annotations

from ..common.config import SystemConfig
from ..designs import DesignSpec, get_design
from ..memory.dram import DRAM
from .layout import AddressLayout
from .simulator import TimingSystem


def build_system(
    design: "DesignSpec | str",
    config: SystemConfig,
    layout: AddressLayout,
    footprint_bytes: int,
    dedup_factor: float = 1.0,
) -> TimingSystem:
    """Wire up DRAM + the design's LLC into a runnable timing system.

    ``design`` is anything :func:`repro.designs.get_design` resolves: a
    :class:`~repro.designs.DesignSpec` or a registry name.  ``layout``
    carries the approximable ranges and measured block sizes;
    ``footprint_bytes`` the total workload footprint (to estimate the
    fraction of LLC-resident data that is approximate for the capacity
    models); ``dedup_factor`` the functional layer's measured
    Doppelgänger dedup.  AVR LLC options come from the design's
    ``avr_options``.
    """
    spec = get_design(design)
    dram = DRAM(config.dram, line_bytes=config.llc.line_bytes)
    llc = spec.build_llc(config, dram, layout, footprint_bytes, dedup_factor)
    return TimingSystem(spec, config, llc, dram)
