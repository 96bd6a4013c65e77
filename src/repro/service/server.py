"""`ColoringService`: the op dispatcher and its TCP / stdio transports.

Ops (see :mod:`repro.service.protocol` for framing):

- ``ping`` — liveness probe;
- ``create`` — open a session (``spec`` object, optional ``lists``);
- ``feed`` — append an edge block (``session``, ``edges`` = [[u, v], ...]);
- ``advance`` — seal the stream and run its next pass;
- ``finalize`` — run to completion; returns the uniform result record;
- ``result`` — re-fetch a finalized session's result;
- ``status`` / ``stats`` — per-session and manager-level introspection;
- ``metrics`` — live obs snapshot (JSON + Prometheus text) when the
  server was started with metrics enabled (``repro serve --obs``);
- ``checkpoint`` — evict a session to its ``REPROCK1`` file now;
- ``drop`` — discard a session (and its checkpoint);
- ``shutdown`` — stop the server loop (used by tests and the bench).

Errors never kill a connection: any :class:`ReproError` (bad spec, edge
out of range, guarantee violation under ``verify="strict"``, dead
session) is returned as an ``ok: false`` envelope and the read loop
continues.
"""

import asyncio
import contextlib
import sys

from repro.common.exceptions import ReproError, ServiceError
import repro.obs as obs
from repro.obs.clock import perf_now
from repro.service.manager import SessionManager
from repro.service.protocol import (
    MAX_LINE,
    decode_message,
    encode_message,
    error_response,
    reuse_read_buffer,
)

__all__ = ["ColoringService"]


class ColoringService:
    """Dispatches protocol requests onto a :class:`SessionManager`."""

    def __init__(self, manager: SessionManager | None = None, **manager_kwargs):
        # Anything with the SessionManager op surface works — notably
        # repro.service.pool.WorkerPool, the sharded execution plane.
        self.manager = (
            manager if manager is not None else SessionManager(**manager_kwargs)
        )
        self.shutdown_event = asyncio.Event()
        self._inflight = 0
        self._writers: set = set()
        self._obs_requests = obs.counter(
            "repro_requests_total", "protocol requests dispatched")
        self._obs_request_seconds = obs.histogram(
            "repro_request_seconds", "wall seconds per protocol request")

    # ------------------------------------------------------------------
    async def dispatch(self, request: dict) -> dict:
        """Handle one request; always returns a response envelope."""
        self._obs_requests.inc()
        start = perf_now()
        with obs.span("service.request", op=str(request.get("op"))) as sp:
            try:
                payload = await self._dispatch(request)
            except ReproError as error:
                if sp is not None:
                    sp.set("error", type(error).__name__)
                return error_response(error, request)
            except (TypeError, ValueError, KeyError) as error:
                # Unvalidated request shapes (string sizes, unhashable ids,
                # ...) must produce an envelope, never kill the connection.
                return error_response(
                    ServiceError(f"bad request: {error}"), request
                )
            finally:
                self._obs_request_seconds.observe(perf_now() - start)
        response = {"ok": True, **payload}
        if "id" in request:
            response["id"] = request["id"]
        return response

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        manager = self.manager
        if op == "ping":
            return {"pong": True}
        if op == "create":
            sid = await manager.create(
                request.get("spec"), request.get("lists")
            )
            return {"session": sid}
        if op == "stats":
            return manager.stats()
        if op == "metrics":
            if not obs.metrics_enabled():
                return {"metrics_enabled": False}
            return {
                "metrics_enabled": True,
                "metrics": obs.metrics_snapshot(),
                "prometheus": obs.render_prometheus(),
            }
        if op == "shutdown":
            self.shutdown_event.set()
            return {"stopping": True}
        sid = request.get("session")
        if op == "feed":
            return await manager.feed(sid, request.get("edges", []))
        if op == "advance":
            return await manager.advance(sid)
        if op == "finalize":
            return {"result": await manager.finalize(sid)}
        if op == "result":
            return {"result": await manager.result(sid)}
        if op == "status":
            return await manager.status(sid)
        if op == "checkpoint":
            return {"path": await manager.checkpoint(sid)}
        if op == "drop":
            return await manager.drop(sid)
        raise ServiceError(f"unknown op {op!r}")

    # ------------------------------------------------------------------
    # transports
    # ------------------------------------------------------------------
    async def _serve_stream(self, reader, writer) -> None:
        """One connection: read framed requests until EOF or shutdown."""
        reuse_read_buffer(writer)
        self._writers.add(writer)
        try:
            while not self.shutdown_event.is_set():
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError,
                        ValueError):
                    # An over-limit line surfaces as ValueError (readline
                    # wraps LimitOverrunError); the stream is desynced
                    # mid-line, so drop the connection cleanly.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_message(line)
                except ServiceError as error:
                    writer.write(encode_message(error_response(error)))
                    await writer.drain()
                    continue
                self._inflight += 1
                try:
                    response = await self.dispatch(request)
                finally:
                    self._inflight -= 1
                writer.write(encode_message(response))
                await writer.drain()
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(ConnectionResetError, OSError):
                writer.close()
                await writer.wait_closed()

    async def drain(self, timeout: float = 10.0) -> bool:
        """Wait for in-flight requests to finish (10 ms polling).

        Returns True when the service went quiet within ``timeout``
        seconds; connections are left open (reads just stop being
        answered once the caller closes the listener).
        """
        waited = 0.0
        while self._inflight and waited < timeout:
            await asyncio.sleep(0.01)
            waited += 0.01
        return self._inflight == 0

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Start the TCP server; returns the listening ``asyncio.Server``."""
        return await asyncio.start_server(
            self._serve_stream, host, port, limit=MAX_LINE
        )

    async def serve_tcp_until_shutdown(self, host: str, port: int) -> None:
        """Serve until a ``shutdown`` op, SIGTERM/SIGINT, or cancellation.

        Graceful exit sequence: stop accepting connections, drain
        in-flight requests, then quiesce the manager so every resident
        session is safe in a ``REPROCK1`` checkpoint before the process
        ends.
        """
        import signal

        loop = asyncio.get_running_loop()
        handled = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.shutdown_event.set)
                handled.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loops; the shutdown op still works
        server = await self.serve_tcp(host, port)
        addr = server.sockets[0].getsockname()
        obs.log_event(
            "serve.listening",
            f"repro serve: listening on {addr[0]}:{addr[1]}",
            host=str(addr[0]), port=int(addr[1]),
        )
        try:
            async with server:
                await self.shutdown_event.wait()
                server.close()  # stop accepting; in-flight reads continue
                await self.drain()
                checkpoints = {}
                quiesce = getattr(self.manager, "quiesce", None)
                if quiesce is not None:
                    checkpoints = await quiesce()
                obs.log_event(
                    "serve.shutdown",
                    f"repro serve: shut down cleanly "
                    f"({len(checkpoints)} session(s) checkpointed)",
                    sessions_checkpointed=len(checkpoints),
                )
        finally:
            for signum in handled:
                loop.remove_signal_handler(signum)

    async def serve_stdio(self) -> None:
        """Serve one client over stdin/stdout (newline-JSON, same protocol)."""
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=MAX_LINE)
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        out = sys.stdout
        while not self.shutdown_event.is_set():
            line = await reader.readline()
            if not line:
                break
            if not line.strip():
                continue
            try:
                request = decode_message(line)
            except ServiceError as error:
                response = error_response(error)
            else:
                response = await self.dispatch(request)
            out.write(encode_message(response).decode("utf-8"))
            out.flush()
