"""Cache hierarchy: batched private stacks, baseline LLC, AVR decoupled LLC.

The per-event models they are pinned against live in the test oracle.
"""

from .cmt import CMTEntry
from .llc_avr import AVRLLC, PFE_DEFAULT, PFE_THRESHOLD
from .llc_baseline import BaselineLLC

__all__ = [
    "AVRLLC",
    "BaselineLLC",
    "CMTEntry",
    "PFE_DEFAULT",
    "PFE_THRESHOLD",
]
