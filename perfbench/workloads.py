"""The four benchmark workloads.

Every op input (graph, list, stream and algorithm seeds; session specs)
is derived from the workload seed by :func:`derive`.  Each workload owns
a pool of ``slots`` distinct inputs; op ``i`` runs slot ``i % slots``,
so every op of a run can be checked against the fingerprint of an
earlier op on the same slot and, for the default seed, against the
committed golden fingerprints.

A workload is driven as ``setup()`` (repeatable; rebuilds everything),
``warmup()``, then ``run_ops(seconds=...)`` for a timed phase or
``run_ops(count=...)`` for a fixed number of ops.  ``run_ops`` returns
``(records, wall_s)``; each record carries the op's wall time, its input
edge count, a result summary and the coloring, for :mod:`checks`.
"""

from __future__ import annotations

import asyncio
import contextvars
import hashlib
import math
import os
import shutil
import time
import traceback
from contextlib import nullcontext

import numpy as np

import repro.engine as engine
import repro.graph.generators as generators
import repro.graph.zoo as zoo
import repro.streaming.sharded as sharded
from repro.engine import RunSpec
from repro.service import ColoringService, ServiceClient

# name -> size parameters, per profile ("full" is the benchmark, "smoke"
# the self-test size).
PROFILES = {
    "full": {
        "multipass_paper": {"deterministic": (128, 8), "list_coloring": (48, 6),
                            "slots": 32},
        "onepass_scan": {"n": 16384, "delta": 16, "graphs": 4, "slots": 64},
        "service_sessions": {"n": 96, "slots": 256, "feed_edges": 16},
        "service_suspend": {"n": 96, "slots": 256, "feed_edges": 16},
    },
    "smoke": {
        "multipass_paper": {"deterministic": (48, 4), "list_coloring": (32, 4),
                            "slots": 4},
        "onepass_scan": {"n": 2048, "delta": 8, "graphs": 1, "slots": 4},
        "service_sessions": {"n": 32, "slots": 8, "feed_edges": 16},
        "service_suspend": {"n": 32, "slots": 8, "feed_edges": 16},
    },
}


def derive(seed: int, *parts) -> int:
    """A 31-bit seed for one input field, derived from the workload seed."""
    digest = hashlib.sha256(repr((seed, *parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def summarize_result(result: dict) -> dict:
    """The fields of a result record the benchmark checks and reports."""
    extras = result.get("extras", {})
    return {
        "colors_used": result["colors_used"],
        "passes": result["passes"],
        "peak_space_bits": result["peak_space_bits"],
        "random_bits": result["random_bits"],
        "guarantees": extras.get("guarantees"),
        "stream_backend": extras.get("stream_backend"),
        "kernel_tier": extras.get("kernel_tier"),
    }


class Workload:
    """Shared driver: a sequential closed loop of engine runs."""

    name = ""
    # Consecutive records that make one end-to-end op: the op-time
    # metrics are taken over their summed times.
    group = 1

    def __init__(self, seed: int, profile: str, workdir: str):
        self.seed = seed
        self.params = PROFILES[profile][self.name]
        self.slots = self.params["slots"]
        self.workdir = workdir
        self.refs: list[dict] = []
        self.tracer = None  # set while a traced phase runs

    def reset(self) -> None:
        """Release the previous set-up (untimed; before each ``setup``)."""

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        self.run_ops(count=1)

    def close(self) -> None:
        pass

    def counters(self) -> dict:
        return {}

    def kind(self, index: int) -> str:
        return self.name

    def _op_scope(self, index: int, sync: bool = True):
        """The op's root span while traced; nothing otherwise."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.root("op", index, sync)

    def run_ops(self, seconds: float | None = None, count: int | None = None,
                on_op=None):
        """Run ops ``0, 1, ...`` until ``seconds`` pass or ``count`` ran.

        ``on_op(record)`` runs after each op (the inline check); its time
        is excluded from the returned wall time.
        """
        records = []
        excluded = 0.0
        start = time.perf_counter()
        index = 0
        while True:
            if count is not None and index >= count:
                break
            elapsed = time.perf_counter() - start - excluded
            if count is None and index % self.group == 0 and elapsed >= seconds:
                break
            record = self._timed_op(index)
            records.append(record)
            if on_op is not None:
                check_start = time.perf_counter()
                on_op(record)
                excluded += time.perf_counter() - check_start
            index += 1
        return records, time.perf_counter() - start - excluded

    def _timed_op(self, index: int) -> dict:
        slot = index % self.slots
        record = {"index": index, "slot": slot, "kind": self.kind(index),
                  "edges": len(self.refs[slot]["edges"]), "error": None}
        spec, open_stream = self._spec(slot)
        result = None
        with self._op_scope(index):
            start = time.perf_counter()
            try:
                result = engine.run(spec, stream=open_stream())
            except Exception:  # any failure is counted, not fatal
                record["error"] = traceback.format_exc()
            record["t_s"] = time.perf_counter() - start
        if result is not None:
            record["summary"] = summarize_result(vars(result))
            record["coloring"] = result.coloring
        return record


class MultipassPaper(Workload):
    """Paper-default ``run(RunSpec(...))``: deterministic / list_coloring.

    Runs alternate between the two algorithms, and one end-to-end op is a
    (deterministic, list_coloring) pair, so the op-time percentiles are
    not taken across two clusters of different run times.
    """

    name = "multipass_paper"
    group = 2
    ALGORITHMS = ("deterministic", "list_coloring")

    def kind(self, index: int) -> str:
        return self.ALGORITHMS[index % 2]

    def warmup(self) -> None:
        self.run_ops(count=2)

    def setup(self) -> None:
        self.specs, self.refs = [], []
        for slot in range(self.slots):
            algorithm = self.ALGORITHMS[slot % 2]
            n, delta = self.params[algorithm]
            spec = RunSpec(
                algorithm, n=n, delta=delta,
                seed=derive(self.seed, "algo", slot),
                graph_seed=derive(self.seed, "graph", slot),
                list_seed=derive(self.seed, "list", slot) + 1,
                stream_seed=derive(self.seed, "stream", slot),
                verify=True, keep_coloring=True,
            )
            # The benchmark's own copy of the input, built the way the
            # engine documents it builds a paper-default stream.
            graph = generators.random_max_degree_graph(
                n, delta, seed=spec.graph_seed, fill=spec.graph_fill)
            ref = {"n": n, "edges": np.asarray(graph.edge_list(), dtype=np.int64)
                   .reshape(-1, 2)}
            if algorithm == "list_coloring":
                lists = generators.random_list_assignment(
                    graph, palette_size=2 * (delta + 1), seed=spec.list_seed)
                ref["lists"] = {v: set(colors) for v, colors in lists.items()}
            self.specs.append(spec)
            self.refs.append(ref)

    def _spec(self, slot: int):
        return self.specs[slot], lambda: None


class OnepassScan(Workload):
    """``robust`` over out-of-core ``REPROED2`` sharded containers.

    Set-up writes one container per input graph; slot ``s`` runs its own
    algorithm seed over graph ``s % graphs``.
    """

    name = "onepass_scan"

    def __init__(self, seed, profile, workdir):
        super().__init__(seed, profile, workdir)
        self.paths = [os.path.join(workdir, f"edges{g}.shards")
                      for g in range(self.params["graphs"])]

    def reset(self) -> None:
        for path in self.paths:
            shutil.rmtree(path, ignore_errors=True)

    def setup(self) -> None:
        n, delta = self.params["n"], self.params["delta"]
        graphs = []
        for g, path in enumerate(self.paths):
            edges = generators.near_regular_edge_array(
                n, delta, derive(self.seed, "graph", g))
            # Four shards, so every pass crosses shard boundaries.
            sharded.write_sharded_edge_file(
                path, n, edges, shard_rows=max(1, math.ceil(len(edges) / 4)))
            graphs.append({"n": n, "edges": np.asarray(edges, dtype=np.int64)})
        self.refs = [graphs[slot % len(graphs)] for slot in range(self.slots)]

    def _spec(self, slot: int):
        spec = RunSpec("robust", n=self.params["n"], delta=self.params["delta"],
                       seed=derive(self.seed, "algo", slot), verify=True,
                       keep_coloring=True)
        path = self.paths[slot % len(self.paths)]
        return spec, lambda: sharded.ShardedFileSource(path)

    def close(self) -> None:
        self.reset()


class ServiceSessions(Workload):
    """Closed-loop sessions against an in-process TCP ``ColoringService``.

    One client shares the event loop with the server and waits for every
    reply.  A session is create, 16-edge feeds, finalize, drop.
    """

    name = "service_sessions"
    algorithm = "cgs22"
    suspend = False

    def __init__(self, seed, profile, workdir):
        super().__init__(seed, profile, workdir)
        self.aio = asyncio.new_event_loop()
        asyncio.set_event_loop(self.aio)
        self.service = self.server = self.client = None

    def setup(self) -> None:
        self.refs, self.specs = [], []
        n = self.params["n"]
        for slot in range(self.slots):
            graph_seed = derive(self.seed, "graph", slot)
            edges, n_actual = zoo.workload_edges("power_law", n, graph_seed)
            delta = max(1, zoo.workload_delta(n_actual, edges))
            arranged = zoo.arrange_edges(n_actual, edges, "random", graph_seed)
            self.refs.append({"n": n_actual,
                              "edges": np.asarray(arranged, dtype=np.int64)})
            self.specs.append({
                "algorithm": self.algorithm, "n": n_actual, "delta": delta,
                "seed": derive(self.seed, "algo", slot), "verify": "strict",
            })
        # Start the server outside any traced span: its connection tasks
        # inherit the context they are created in.
        self.aio.run_until_complete(
            self.aio.create_task(self._start(), context=contextvars.Context()))

    async def _start(self) -> None:
        # Suspended sessions are checkpointed inside the work directory.
        checkpoints = os.path.join(self.workdir, "sessions")
        os.makedirs(checkpoints, exist_ok=True)
        self.service = ColoringService(checkpoint_dir=checkpoints)
        self.server = await self.service.serve_tcp("127.0.0.1", 0)
        port = self.server.sockets[0].getsockname()[1]
        self.client = await ServiceClient.connect("127.0.0.1", port)

    async def _stop(self) -> None:
        await self.client.close()
        await asyncio.sleep(0.05)  # let the server see EOF on the connection
        self.server.close()
        await self.server.wait_closed()
        self.service.manager.close()

    def reset(self) -> None:
        if self.server is not None:
            self.aio.run_until_complete(self._stop())
            self.service = self.server = self.client = None

    def close(self) -> None:
        self.reset()
        self.aio.close()

    def counters(self) -> dict:
        stats = self.service.manager.stats()
        return {
            "evictions": stats["evictions"], "restores": stats["restores"],
            "busy_retries": self.client.busy_retries_used,
        }

    def _timed_op(self, index: int) -> dict:
        return self.aio.run_until_complete(self._timed_session(index))

    async def _timed_session(self, index: int) -> dict:
        slot = index % self.slots
        record = {"index": index, "slot": slot, "kind": self.name,
                  "edges": len(self.refs[slot]["edges"]), "error": None}
        with self._op_scope(index, sync=False):
            start = time.perf_counter()
            result = await self._session(slot, record)
            record["t_s"] = time.perf_counter() - start
        if result is not None:
            record["summary"] = summarize_result(result)
        return record

    async def _session(self, slot: int, record: dict) -> dict | None:
        client = self.client
        edges = self.refs[slot]["edges"]
        step = self.params["feed_edges"]
        feeds = [edges[i:i + step] for i in range(0, len(edges), step)]
        midpoint = len(feeds) // 2
        try:
            sid = await client.create(self.specs[slot])
            for i, block in enumerate(feeds):
                if self.suspend and i == midpoint:
                    await client.checkpoint(sid)
                await client.feed(sid, block)
            result = await client.finalize(sid)
            # The result record omits the coloring; read it from the
            # in-process session for the benchmark's own check.
            session = self.service.manager._resident.get(sid)
            record["coloring"] = (
                session.algo.blocks_result() if session is not None else None)
            await client.drop(sid)
        except Exception:  # any failure is counted, not fatal
            record["error"] = traceback.format_exc()
            return None
        return result


class ServiceSuspend(ServiceSessions):
    """Robust sessions suspended once at their midpoint (``checkpoint``)."""

    name = "service_suspend"
    algorithm = "robust"
    suspend = True


WORKLOADS = {
    cls.name: cls
    for cls in (MultipassPaper, OnepassScan, ServiceSessions, ServiceSuspend)
}
