"""Shipped analysis rules.

Importing this package registers every built-in rule with the
:mod:`repro.analysis.registry`; the catalogue order below is the
order ``repro check --list-rules`` displays.
"""

from __future__ import annotations

from . import (
    cachefile,
    cachekey,
    docstrings,
    dtype,
    parity,
    picklable,
    rng,
    serve,
)

__all__ = [
    "cachefile", "cachekey", "docstrings", "dtype", "parity", "picklable",
    "rng", "serve",
]
