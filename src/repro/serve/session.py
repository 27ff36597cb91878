"""Per-connection session state for the evaluation daemon.

One :class:`Session` per accepted connection: an asyncio read loop
turns incoming frames into operations (``submit`` / ``cancel`` /
``status``), each submission runs in a worker thread
(``asyncio.to_thread``) driving the shared scheduler through its own
:class:`~repro.serve.scheduler.JobHandle`, and a single writer task
streams structured events back in order.  Worker threads never touch
the socket — per-unit progress crosses into the event loop via
``loop.call_soon_threadsafe`` onto the session's event queue.

A client disconnect (or a ``cancel`` op) detaches the session's
handles from the shared units: queued units nobody else wants are
cancelled, running ones drain in the pool, and the daemon keeps
serving every other session.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import CancelledError
from typing import Any

from .protocol import ProtocolError, read_frame, write_frame
from .scheduler import JobHandle, SubmissionCancelled

__all__ = ["Session"]

#: spec keys describing *where/how* to execute rather than *what* —
#: the daemon substitutes its own shared cache (and with it the trace
#: store) and executor, so client-side settings for these must not
#: leak through
_EXECUTION_ONLY_KEYS = ("jobs", "cache_dir")


class _Job:
    """One accepted submission: spec, handle, and cancellation flag."""

    def __init__(self, job_id: str, spec: Any, handle: JobHandle):
        self.id = job_id
        self.spec = spec
        self.handle = handle
        #: checked by the sweep thread's ``on_unit_done``; set from the
        #: event loop on a ``cancel`` op or disconnect
        self.cancel_flag = threading.Event()
        self.task: asyncio.Task | None = None
        self.units_done = 0
        self.units_launched = 0

    def cancel(self) -> None:
        self.cancel_flag.set()
        self.handle.cancel()


class Session:
    """One connected client: frame reader, job runner, event writer."""

    def __init__(
        self, daemon: Any, reader: Any, writer: Any, session_id: int
    ) -> None:
        self.daemon = daemon
        self.reader = reader
        self.writer = writer
        self.id = session_id
        self.jobs: dict[str, _Job] = {}
        self._job_seq = itertools.count(1)
        self._events: asyncio.Queue = asyncio.Queue()
        self._loop = asyncio.get_running_loop()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Serve this connection until EOF, error, or daemon shutdown."""
        writer_task = asyncio.create_task(self._drain_events())
        try:
            while True:
                try:
                    message = await read_frame(self.reader)
                except (ProtocolError, ConnectionError):
                    break
                if message is None:
                    break
                await self._dispatch(message)
        finally:
            tasks = [
                job.task for job in list(self.jobs.values()) if job.task
            ]
            for job in list(self.jobs.values()):
                job.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._events.put_nowait(None)
            await writer_task
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _drain_events(self) -> None:
        while True:
            event = await self._events.get()
            if event is None:
                return
            try:
                await write_frame(self.writer, event)
            except (ConnectionError, OSError, RuntimeError):
                # peer is gone; keep draining so producers never block
                continue

    def _post(self, event: dict[str, Any]) -> None:
        if event.get("event") == "unit_done":
            job = self.jobs.get(event.get("job", ""))
            if job is not None:
                job.units_done += 1
                if event.get("launched"):
                    job.units_launched += 1
        self._events.put_nowait(event)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def _dispatch(self, message: Any) -> None:
        op = message.get("op") if isinstance(message, dict) else None
        if op == "submit":
            self._handle_submit(message)
        elif op == "cancel":
            job = self.jobs.get(message.get("job", ""))
            if job is None:
                self._post({
                    "event": "error",
                    "job": message.get("job"),
                    "error": "unknown or already-finished job",
                })
            else:
                job.cancel()
        elif op == "status":
            self._post({"event": "status", **self.daemon.status_snapshot()})
        else:
            self._post({"event": "error", "error": f"unknown op {op!r}"})

    def _handle_submit(self, message: dict[str, Any]) -> None:
        from ..experiment import ExperimentSpec

        mapping = message.get("spec")
        try:
            priority = int(message.get("priority", 0))
            if not isinstance(mapping, dict):
                raise ValueError("submit needs a 'spec' mapping")
            mapping = {
                k: v for k, v in mapping.items()
                if k not in _EXECUTION_ONLY_KEYS
            }
            spec = ExperimentSpec.from_mapping(mapping)
        except (ValueError, TypeError) as exc:
            self._post({"event": "error", "error": str(exc)})
            return
        job_id = f"{self.id}-{next(self._job_seq)}"
        handle = self.daemon.scheduler.handle(priority=priority, label=job_id)
        job = _Job(job_id, spec, handle)
        self.jobs[job_id] = job
        self._post({
            "event": "accepted",
            "job": job_id,
            "name": spec.name,
            "spec_hash": spec.content_hash(),
            "priority": priority,
        })
        job.task = asyncio.create_task(self._run_job(job))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _run_job(self, job: _Job) -> None:
        try:
            result_mapping, stats_mapping = await asyncio.to_thread(
                self._execute, job
            )
        except (SubmissionCancelled, CancelledError):
            self._post({
                "event": "error",
                "job": job.id,
                "error": "cancelled",
                "cancelled": True,
            })
        except Exception as exc:  # noqa: BLE001 — one job must not kill the session
            self._post({
                "event": "error",
                "job": job.id,
                "error": f"{type(exc).__name__}: {exc}",
            })
        else:
            self._post({"event": "stats", "job": job.id, "stats": stats_mapping})
            self._post({
                "event": "result",
                "job": job.id,
                "result": result_mapping,
            })
        finally:
            job.handle.release()
            self.jobs.pop(job.id, None)

    def _execute(self, job: _Job) -> tuple[dict[str, Any], dict[str, Any]]:
        """Run one submission in a worker thread against shared state."""
        from ..experiment import run_experiment
        from ..harness.report import (
            experiment_result_to_mapping,
            sweep_stats_to_mapping,
        )

        def on_unit_done(key: str, launched: bool) -> None:
            if job.cancel_flag.is_set():
                raise SubmissionCancelled(job.id)
            self._loop.call_soon_threadsafe(self._post, {
                "event": "unit_done",
                "job": job.id,
                "unit": key[:16],
                "launched": launched,
            })

        result = run_experiment(
            job.spec,
            cache_dir=self.daemon.cache,
            executor=job.handle,
            on_unit_done=on_unit_done,
        )
        return (
            experiment_result_to_mapping(result),
            sweep_stats_to_mapping(result.stats),
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        return {
            "session": self.id,
            "jobs": [
                {
                    "job": job.id,
                    "name": job.spec.name,
                    "priority": job.handle.priority,
                    "units_done": job.units_done,
                    "units_launched": job.units_launched,
                    "cancelled": job.cancel_flag.is_set(),
                }
                for job in self.jobs.values()
            ],
        }
