"""Full-system timing simulation of the five design points."""

from .factory import build_system
from .frontend import TimingFrontEnd, compute_front_end
from .layout import AddressLayout
from .simulator import SimResult, TimingSystem

__all__ = [
    "AddressLayout",
    "SimResult",
    "TimingFrontEnd",
    "TimingSystem",
    "build_system",
    "compute_front_end",
]
