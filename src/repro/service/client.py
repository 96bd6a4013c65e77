"""`ServiceClient`: the thin async client for the coloring service.

One client = one connection = one in-flight request at a time (the
protocol is strictly request/response per line); concurrency comes from
opening many clients, which is exactly what the load harness and the CLI
``repro submit`` do.  :func:`submit_workload` is the synchronous
convenience wrapper streaming a workload-zoo instance through a session.

Robustness knobs (all per client):

- ``timeout`` — per-request deadline; a hung server raises
  :class:`ServiceError` instead of blocking forever, and the connection
  is considered broken afterwards (the reply may still be in flight, so
  reusing the stream would desync request/response pairing).
- ``connect(..., retries=, backoff=)`` — bounded exponential-backoff
  reconnect with bounded jitter, for servers that are still booting or
  restarting.  Jitter desynchronises the retry schedules of clients
  that all lost the same server at the same instant (a worker restart
  would otherwise produce reconnect stampedes in lockstep).
- ``busy_retries`` — transparent retry of ``busy: true`` load-shed
  replies (the sharded execution plane's backpressure signal), pausing
  ``retry_after`` seconds per attempt.  Shed requests were never
  applied, so retrying verbatim is safe.
"""

import asyncio
import contextlib
import random

import numpy as np

from repro.common.exceptions import (
    ParameterError,
    ServiceBusyError,
    ServiceError,
)
from repro.service.protocol import (
    MAX_LINE,
    decode_message,
    encode_message,
    reuse_read_buffer,
)

__all__ = ["ServiceClient", "build_session_workload", "submit_workload"]

#: Edges per feed request: small enough to exercise multiplexing, large
#: enough that framing overhead stays negligible.
DEFAULT_FEED_EDGES = 2048

#: Default per-request deadline (seconds). Generous: a strict-verify
#: finalize on a large session does real work before replying.
DEFAULT_TIMEOUT = 120.0

#: Default transparent retries of busy (load-shed) replies per request.
DEFAULT_BUSY_RETRIES = 100


class ServiceClient:
    """Async request/response client over one TCP connection."""

    def __init__(self, reader, writer, timeout: float | None = DEFAULT_TIMEOUT,
                 busy_retries: int = DEFAULT_BUSY_RETRIES):
        self._reader = reader
        self._writer = writer
        self.timeout = timeout
        self.busy_retries = busy_retries
        self.busy_retries_used = 0
        self._broken = False

    @classmethod
    async def connect(cls, host: str, port: int, *,
                      timeout: float | None = DEFAULT_TIMEOUT,
                      retries: int = 0, backoff: float = 0.1,
                      max_backoff: float = 2.0, jitter: float = 0.5,
                      rng: random.Random | None = None,
                      busy_retries: int = DEFAULT_BUSY_RETRIES,
                      ) -> "ServiceClient":
        """Connect, with ``retries`` jittered exponential-backoff reattempts.

        Attempt ``k`` sleeps uniformly in ``[base * (1 - jitter), base]``
        where ``base = min(backoff * 2**k, max_backoff)`` — bounded
        ("equal"-style) jitter: never longer than the deterministic
        schedule, never shorter than ``1 - jitter`` of it.  ``jitter=0``
        recovers the old deterministic schedule; pass a seeded ``rng``
        for a reproducible one.  This is client-side operational
        randomness, not algorithmic randomness: it is intentionally
        outside the metered ``SeededRng`` accounting (R1).
        """
        if not 0.0 <= jitter <= 1.0:
            raise ParameterError(f"jitter must be in [0, 1], got {jitter!r}")
        if rng is None:
            rng = random.Random()
        attempt = 0
        delay = backoff
        while True:
            try:
                reader, writer = await asyncio.open_connection(
                    host, port, limit=MAX_LINE
                )
                reuse_read_buffer(writer)
                return cls(reader, writer, timeout=timeout,
                           busy_retries=busy_retries)
            except OSError as error:
                if attempt >= retries:
                    raise ServiceError(
                        f"cannot connect to {host}:{port} after "
                        f"{attempt + 1} attempt(s): {error}"
                    ) from None
                attempt += 1
                await asyncio.sleep(delay * (1.0 - jitter * rng.random()))
                delay = min(delay * 2, max_backoff)

    async def close(self) -> None:
        self._writer.close()
        with contextlib.suppress(ConnectionResetError, OSError):
            await self._writer.wait_closed()

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def _roundtrip(self, op: str, message: dict) -> dict:
        if self._broken:
            raise ServiceError(
                f"connection is broken (earlier timeout); reconnect before {op!r}"
            )

        async def send_and_read():
            self._writer.write(encode_message(message))
            await self._writer.drain()
            return await self._reader.readline()

        if self.timeout is None:
            line = await send_and_read()
        else:
            try:
                line = await asyncio.wait_for(send_and_read(), self.timeout)
            except asyncio.TimeoutError:
                # The reply may still arrive later; pairing is lost.
                self._broken = True
                raise ServiceError(
                    f"{op} timed out after {self.timeout:g}s"
                ) from None
        if not line:
            raise ServiceError(f"server closed the connection during {op!r}")
        return decode_message(line)

    async def request(self, op: str, **params) -> dict:
        """Send one op; return its payload or raise :class:`ServiceError`.

        ``busy: true`` load-shed replies are retried transparently up to
        ``busy_retries`` times, sleeping the server's ``retry_after``
        hint between attempts.
        """
        message = {"op": op, **params}
        attempt = 0
        while True:
            response = await self._roundtrip(op, message)
            if response.get("ok"):
                return response
            if response.get("busy") and attempt < self.busy_retries:
                attempt += 1
                self.busy_retries_used += 1
                await asyncio.sleep(float(response.get("retry_after", 0.05)))
                continue
            if response.get("busy"):
                raise ServiceBusyError(
                    f"{op} still busy after {attempt} retries: "
                    f"{response.get('error', 'service busy')}",
                    retry_after=float(response.get("retry_after", 0.05)),
                )
            raise ServiceError(
                f"{op} failed: {response.get('error', 'unknown error')} "
                f"[{response.get('code', '?')}]"
            )

    # -- op helpers -----------------------------------------------------
    async def ping(self) -> bool:
        return bool((await self.request("ping")).get("pong"))

    async def create(self, spec: dict, lists=None) -> str:
        params = {"spec": spec}
        if lists is not None:
            params["lists"] = sorted(lists.items())
        return (await self.request("create", **params))["session"]

    async def feed(self, session: str, edges) -> dict:
        if isinstance(edges, np.ndarray):
            edges = edges.tolist()
        return await self.request("feed", session=session, edges=edges)

    async def advance(self, session: str) -> dict:
        return await self.request("advance", session=session)

    async def finalize(self, session: str) -> dict:
        return (await self.request("finalize", session=session))["result"]

    async def result(self, session: str) -> dict:
        return (await self.request("result", session=session))["result"]

    async def status(self, session: str) -> dict:
        return await self.request("status", session=session)

    async def checkpoint(self, session: str) -> str:
        return (await self.request("checkpoint", session=session))["path"]

    async def drop(self, session: str) -> dict:
        return await self.request("drop", session=session)

    async def stats(self) -> dict:
        return await self.request("stats")

    async def shutdown(self) -> dict:
        return await self.request("shutdown")

    # ------------------------------------------------------------------
    async def run_session(
        self,
        spec: dict,
        edges: np.ndarray,
        lists=None,
        feed_edges: int = DEFAULT_FEED_EDGES,
    ) -> dict:
        """Full lifecycle: create, stream the edges in blocks, finalize."""
        sid = await self.create(spec, lists)
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        for start in range(0, len(arr), feed_edges):
            await self.feed(sid, arr[start : start + feed_edges])
        return await self.finalize(sid)


def build_session_workload(
    algorithm: str,
    family: str,
    n: int,
    order: str = "insertion",
    seed: int = 0,
    config: dict | None = None,
    verify="strict",
    chunk_size: int | None = None,
) -> tuple[dict, np.ndarray, dict | None]:
    """``(spec, arranged_edges, lists)`` for one workload-zoo session.

    Shared by ``repro submit`` and the load harness so both drive the
    service with byte-identical session inputs.
    """
    from repro.engine.registry import REGISTRY
    from repro.graph.zoo import arrange_edges, workload_delta, workload_edges

    entry = REGISTRY.get(algorithm)
    edges, n_actual = workload_edges(family, n, seed)
    delta = workload_delta(n_actual, edges)
    arranged = arrange_edges(n_actual, edges, order, seed)
    spec = {
        "algorithm": algorithm,
        "n": n_actual,
        "delta": max(1, delta),
        "seed": seed,
        "verify": verify,
    }
    if config:
        spec["config"] = config
    if chunk_size is not None:
        spec["chunk_size"] = chunk_size
    lists = None
    if entry.needs_lists:
        from repro.graph.generators import random_list_assignment
        from repro.graph.graph import Graph

        universe = 2 * (spec["delta"] + 1)
        graph = Graph(n_actual, [tuple(e) for e in edges.tolist()])
        lists = {
            x: sorted(colors)
            for x, colors in random_list_assignment(
                graph, palette_size=universe, seed=seed
            ).items()
        }
        spec["config"] = {**spec.get("config", {}), "universe": universe}
    return spec, arranged, lists


def submit_workload(
    host: str,
    port: int,
    algorithm: str,
    family: str,
    n: int,
    order: str = "insertion",
    seed: int = 0,
    config: dict | None = None,
    verify="strict",
    chunk_size: int | None = None,
    feed_edges: int = DEFAULT_FEED_EDGES,
    timeout: float | None = DEFAULT_TIMEOUT,
    connect_retries: int = 0,
) -> dict:
    """Stream one workload-zoo instance through a service session (sync).

    Builds the ``(family, n, order, seed)`` zoo cell, derives its true
    max degree for the spec, opens a session with ``verify`` mode, feeds
    the arranged edges in blocks, and returns the finalized result dict.
    """
    spec, arranged, lists = build_session_workload(
        algorithm, family, n, order=order, seed=seed, config=config,
        verify=verify, chunk_size=chunk_size,
    )

    async def go():
        client = await ServiceClient.connect(
            host, port, timeout=timeout, retries=connect_retries
        )
        async with client:
            return await client.run_session(
                spec, arranged, lists=lists, feed_edges=feed_edges
            )

    return asyncio.run(go())
