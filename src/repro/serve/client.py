"""Synchronous client for the evaluation daemon (``repro submit``).

:class:`ServeClient` speaks the length-prefixed JSON protocol over a
plain blocking socket — it lives on the *client* side of the wire, in
ordinary synchronous code, so the async-discipline rules that bind the
daemon (SRV001) do not apply here.  One client holds one session;
events for every job submitted through it arrive interleaved on the
same stream, tagged with their job id, and :meth:`events` filters the
stream for one job while buffering the rest.

Typical use::

    with ServeClient(socket_path=sock) as client:
        job = client.submit(spec.to_mapping())
        outcome = client.wait(job)
        results = outcome["result"]
"""

from __future__ import annotations

import socket
from pathlib import Path
from typing import Any, Iterator

from .protocol import FrameDecoder, ProtocolError, encode_frame

__all__ = ["ServeClient", "ServeError"]

#: events that end a job's stream
_TERMINAL_EVENTS = frozenset({"result", "error"})


class ServeError(RuntimeError):
    """The daemon reported an error, or the connection broke."""


class ServeClient:
    """One connection to a running daemon; usable as a context manager."""

    def __init__(
        self,
        socket_path: str | Path | None = None,
        host: str | None = None,
        port: int | None = None,
        timeout: float | None = None,
    ) -> None:
        if socket_path is None and port is None:
            raise ValueError("need a socket path or a host/port pair")
        if socket_path is not None and port is not None:
            raise ValueError("socket path and port are mutually exclusive")
        self.socket_path = str(socket_path) if socket_path else None
        self.host = host or "127.0.0.1"
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._decoder = FrameDecoder()
        #: frames read while looking for something else, in order
        self._backlog: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def connect(self) -> "ServeClient":
        if self._sock is not None:
            return self
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
        else:
            assert self.port is not None
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        self._sock = sock
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # framing
    # ------------------------------------------------------------------
    def _send(self, message: dict[str, Any]) -> None:
        if self._sock is None:
            self.connect()
        assert self._sock is not None
        self._sock.sendall(encode_frame(message))

    def _fill_backlog(self) -> None:
        """Read the wire until at least one frame lands in the backlog."""
        assert self._sock is not None, "not connected"
        while True:
            try:
                chunk = self._sock.recv(65536)
            except OSError as exc:
                raise ServeError(f"connection lost: {exc}") from exc
            if not chunk:
                raise ServeError("daemon closed the connection")
            try:
                frames = self._decoder.feed(chunk)
            except ProtocolError as exc:
                raise ServeError(str(exc)) from exc
            if frames:
                self._backlog.extend(frames)
                return

    def _next_for(self, job: str | None, kinds: frozenset) -> dict[str, Any]:
        """Earliest buffered-or-read event matching ``job``/``kinds``.

        Non-matching events stay buffered in arrival order, so
        interleaved jobs on one session each see their own stream
        in sequence.
        """
        scanned = 0
        while True:
            while scanned < len(self._backlog):
                event = self._backlog[scanned]
                if (job is None or event.get("job") == job) and (
                    event.get("event") in kinds
                ):
                    return self._backlog.pop(scanned)
                scanned += 1
            self._fill_backlog()

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def submit(self, spec_mapping: dict[str, Any], priority: int = 0) -> str:
        """Submit an experiment spec mapping; return the job id."""
        self._send({
            "op": "submit",
            "spec": spec_mapping,
            "priority": priority,
        })
        event = self._next_for(None, frozenset({"accepted", "error"}))
        if event.get("event") == "error":
            raise ServeError(event.get("error", "submission rejected"))
        return str(event["job"])

    def events(self, job: str) -> Iterator[dict[str, Any]]:
        """Yield ``job``'s events in order, ending after result/error."""
        wanted = frozenset({"unit_done", "stats"}) | _TERMINAL_EVENTS
        while True:
            event = self._next_for(job, wanted)
            yield event
            if event.get("event") in _TERMINAL_EVENTS:
                return

    def wait(self, job: str) -> dict[str, Any]:
        """Block until ``job`` finishes; return a summary mapping.

        Raises :class:`ServeError` if the job errored (including
        cancellation).  The returned mapping has the final ``result``
        payload, the job's ``stats`` (when the daemon sent them), and
        the per-unit event count.
        """
        stats: dict[str, Any] | None = None
        units_done = 0
        for event in self.events(job):
            name = event.get("event")
            if name == "unit_done":
                units_done += 1
            elif name == "stats":
                stats = event.get("stats")
            elif name == "error":
                raise ServeError(event.get("error", "job failed"))
            else:
                return {
                    "job": job,
                    "result": event.get("result"),
                    "stats": stats,
                    "units_done": units_done,
                }
        raise ServeError("event stream ended without a result")

    def cancel(self, job: str) -> None:
        """Ask the daemon to cancel ``job`` (queued units drop now,
        running ones drain)."""
        self._send({"op": "cancel", "job": job})

    def status(self) -> dict[str, Any]:
        """The daemon's status snapshot (sessions, queue, cache stats)."""
        self._send({"op": "status"})
        return self._next_for(None, frozenset({"status"}))
