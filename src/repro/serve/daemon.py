"""The resident evaluation daemon behind ``repro serve``.

:class:`EvalDaemon` owns every piece of shared state: one
:class:`~repro.serve.scheduler.UnitScheduler` (process pool + dedup
queue), one :class:`~repro.serve.scheduler.LockedResultCache` spanning
all sessions (with the trace store derived under its root, exactly as
one-shot runs derive it), and the listening socket — TCP
(``host``/``port``) or Unix (``socket_path``).  Each accepted
connection becomes a :class:`~repro.serve.session.Session`; sessions
never see each other, only the shared substrate.

``SIGTERM``/``SIGINT`` trigger a clean shutdown: stop accepting,
cancel every live session's jobs, drain the pool, remove the socket
file.  All daemon-side timing uses the event loop's monotonic clock —
no wall-clock reads, per the SRV001 analysis rule.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import signal
from pathlib import Path
from typing import Any, Callable

from .scheduler import LockedResultCache, UnitScheduler
from .session import Session

__all__ = ["EvalDaemon"]


class EvalDaemon:
    """Shared scheduler + cache + listener; one instance per ``repro serve``."""

    def __init__(
        self,
        cache_dir: str | Path,
        socket_path: str | Path | None = None,
        host: str | None = None,
        port: int | None = None,
        workers: int = 2,
    ) -> None:
        from ..harness.cache import ResultCache

        if socket_path is None and port is None:
            raise ValueError("need a --socket path or a --port to listen on")
        if socket_path is not None and port is not None:
            raise ValueError("--socket and --port are mutually exclusive")
        self.socket_path = Path(socket_path) if socket_path else None
        self.host = host or "127.0.0.1"
        self.port = port
        self.cache = LockedResultCache(ResultCache(cache_dir))
        self.scheduler = UnitScheduler(workers=workers)
        self.sessions: dict[int, Session] = {}
        self._session_ids = itertools.count(1)
        self._server: Any = None
        #: created inside start() so it binds to the serving loop
        self._stop: asyncio.Event | None = None
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (``port=0`` picks a free port)."""
        self._stop = asyncio.Event()
        self._started_at = asyncio.get_running_loop().time()
        if self.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connect, path=str(self.socket_path)
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connect, host=self.host, port=self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return str(self.socket_path)
        return f"{self.host}:{self.port}"

    async def _on_connect(self, reader: Any, writer: Any) -> None:
        session_id = next(self._session_ids)
        session = Session(self, reader, writer, session_id)
        self.sessions[session_id] = session
        try:
            await session.run()
        finally:
            self.sessions.pop(session_id, None)

    def request_stop(self) -> None:
        """Signal-handler entry: schedule a clean shutdown."""
        if self._stop is not None:
            self._stop.set()

    async def run_until_stopped(
        self, announce: Callable[[str], None] | None = None
    ) -> None:
        """Start, install signal handlers, serve until SIGTERM/SIGINT."""
        await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_stop)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        if announce is not None:
            announce(f"repro serve: listening on {self.address}")
        assert self._stop is not None
        try:
            await self._stop.wait()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(sig)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
            await self.shutdown()
            if announce is not None:
                announce("repro serve: shut down cleanly")

    async def shutdown(self) -> None:
        """Stop accepting, cancel live jobs, drain the worker pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for session in list(self.sessions.values()):
            for job in list(session.jobs.values()):
                job.cancel()
            session.writer.close()
        # worker threads drain their in-flight units, then release
        await asyncio.to_thread(self.scheduler.shutdown)
        if self.socket_path is not None:
            try:
                self.socket_path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def status_snapshot(self) -> dict[str, Any]:
        """What ``repro status`` reports: sessions, queue, cache rollup."""
        from .. import __version__

        loop = asyncio.get_running_loop()
        return {
            "version": __version__,
            "address": self.address,
            "uptime_s": loop.time() - self._started_at,
            "active_sessions": len(self.sessions),
            "sessions": [
                session.snapshot() for session in self.sessions.values()
            ],
            "scheduler": self.scheduler.snapshot(),
            "cache_stats": dataclasses.asdict(self.cache.stats),
            "cache_entries": len(self.cache),
        }
