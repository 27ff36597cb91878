"""`repro.serve` — the long-running evaluation service.

A resident asyncio daemon (``repro serve``) accepts
:class:`~repro.experiment.ExperimentSpec` submissions from many
concurrent clients over a length-prefixed JSON protocol (TCP or Unix
socket).
Per-connection :class:`~repro.serve.session.Session` objects are
multiplexed onto one shared process pool and one shared result cache;
the central :class:`~repro.serve.scheduler.UnitScheduler` dedups
in-flight job units across clients by their content-hash keys, so two
clients submitting overlapping grids wait on the same futures and a
unit runs at most once.

The client half lives in :mod:`repro.serve.client`
(:class:`~repro.serve.client.ServeClient`, backing ``repro submit``
and ``repro status``).
"""

from .client import ServeClient
from .daemon import EvalDaemon
from .protocol import FrameDecoder, ProtocolError, encode_frame
from .scheduler import (
    JobHandle,
    LockedResultCache,
    ServeStats,
    SubmissionCancelled,
    UnitScheduler,
)

__all__ = [
    "EvalDaemon",
    "FrameDecoder",
    "JobHandle",
    "LockedResultCache",
    "ProtocolError",
    "ServeClient",
    "ServeStats",
    "SubmissionCancelled",
    "UnitScheduler",
    "encode_frame",
]
