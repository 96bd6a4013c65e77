"""Benchmark-side tracing: spans recorded around calls into each layer.

Nothing in ``src/`` is modified.  :class:`Tracer` replaces the module or
class attribute a caller looks up (``repro.engine.run``,
``SlackWeightedSelector.part_sums``, ``repro.service.manager.
write_checkpoint``, ...) with a wrapper that records one span per call
and restores every original on :meth:`Tracer.uninstall`.  Spans live in
memory as ``[id, parent, op, name, start, end, kernel_s, scan_s]`` lists
and are written out once, at the end, by :meth:`Tracer.dump`.

Parentage follows a ``ContextVar``, so asyncio tasks (the service
client, the server's connection handlers) keep separate span stacks.
The client-to-server hop is linked through the protocol's echoed ``id``
field: the traced ``ServiceClient.request`` stamps its span id on the
request, and server-side spans look their parent up by it.

Two quantities are aggregated instead of recorded per call:

* **scan** — time spent inside ``next()`` of a pass generator
  (``StreamSource.new_pass`` / ``TokenStream.new_pass`` and overrides),
  i.e. producing stream items, excluding the consumer's work; it is
  charged to the span that drives the pass;
* **kernels** — ``repro.kernels.measure_kernels()`` totals, read at the
  entry and exit of every synchronous span on the main thread; the
  difference not covered by child spans is the span's own kernel time.

A span's self time is its duration minus its child spans, its scan time
and its own kernel time; :func:`summarize` folds self times into layers.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import threading
import time

LAYER_OF = {}  # span name -> layer name, filled by Tracer.install

_current = contextvars.ContextVar("perfbench_span", default=None)
_MAIN = threading.main_thread()
_NO_PARENT = []  # sentinel: open a root span whatever the context holds


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._kernel_cells = None
        self._kernel_ctx = None
        self._by_request_id: dict[str, list] = {}
        self._scan_depth = 0

    # -- span primitives --------------------------------------------------
    def _kernel_seconds(self) -> float:
        cells = self._kernel_cells
        return sum(cell[1] for cell in cells.values()) if cells else 0.0

    def open(self, name: str, parent=None, op=None, sync: bool = True) -> list:
        """Start a span; ``parent`` defaults to the context's current span."""
        if parent is _NO_PARENT:
            parent = None
        elif parent is None:
            parent = _current.get()
        if op is None and parent is not None:
            op = parent[2]
        kernel = (
            self._kernel_seconds()
            if sync and threading.current_thread() is _MAIN else None
        )
        span = [len(self.spans), parent[0] if parent is not None else None,
                op, name, time.perf_counter(), None, kernel, 0.0]
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        if span[6] is not None:
            span[6] = self._kernel_seconds() - span[6]

    def root(self, name: str, op, sync: bool = True):
        """Context manager: a root span for one op (or the set-up).

        ``sync=False`` for roots that await (service sessions), whose
        wall interval also holds other tasks' kernel calls.
        """
        return _Scope(self, name, op, sync)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapper factories ---------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, _lookup(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, layer: str, after=None,
             parent_of=None) -> None:
        """Record a span around ``owner.attr`` (sync or async callable).

        ``after(span, args, kwargs, result)`` may count extra quantities;
        ``parent_of(args, kwargs)`` picks an explicit parent span (for
        server-side calls whose caller lives in another task).
        """
        original = _lookup(owner, attr)
        LAYER_OF[name] = layer
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                parent = parent_of(args, kwargs) if parent_of else None
                span = tracer.open(name, parent=parent, sync=False)
                token = _current.set(span)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    _current.reset(token)
                    tracer.close(span)
                if after is not None:
                    after(span, args, kwargs, result)
                return result

            self._patch(owner, attr, async_wrapper)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = parent_of(args, kwargs) if parent_of else None
            span = tracer.open(name, parent=parent)
            token = _current.set(span)
            try:
                result = original(*args, **kwargs)
            finally:
                _current.reset(token)
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_pass(self, owner, attr: str = "new_pass") -> None:
        """Time ``next()`` of a pass generator; charge it to the caller's span.

        Nested pass generators (a token shim over a block source) are
        timed once, at the outermost level.
        """
        original = _lookup(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._scan_depth:
                return original(*args, **kwargs)
            return tracer._timed_pass(original(*args, **kwargs))

        self._patch(owner, attr, wrapper)

    def _timed_pass(self, inner):
        span = _current.get()
        clock = time.perf_counter
        spent = 0.0
        items = 0
        self.count("streaming.passes")
        try:
            while True:
                self._scan_depth += 1
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    spent += clock() - start
                    return
                finally:
                    self._scan_depth -= 1
                spent += clock() - start
                items += 1
                yield item
        finally:
            inner.close()
            self.count("streaming.items", items)
            if span is not None:
                span[7] += spent

    # -- request-id linkage for the service hop ------------------------------
    def link_request(self, request_id: str, span: list) -> None:
        self._by_request_id[request_id] = span

    def request_span(self, message):
        if isinstance(message, dict):
            return self._by_request_id.get(message.get("id"))
        return None

    # -- lifecycle ------------------------------------------------------------
    def start_kernels(self) -> None:
        from repro.kernels import measure_kernels

        self._kernel_ctx = measure_kernels()
        self._kernel_cells = self._kernel_ctx.__enter__()

    def uninstall(self) -> None:
        """Restore every patched attribute and stop kernel timing."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._kernel_ctx is not None:
            self._kernel_ctx.__exit__(None, None, None)
            self._kernel_ctx = None

    def kernel_totals(self) -> tuple[int, float]:
        cells = self._kernel_cells or {}
        return (sum(c[0] for c in cells.values()),
                sum(c[1] for c in cells.values()))

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (name, times, parent, op)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                sid, parent, op, name, start, end, kernel, scan = span[:8]
                record = {"id": sid, "parent": parent, "op": op, "name": name,
                          "start": start, "end": end, "kernel_s": kernel,
                          "scan_s": scan}
                if len(span) > 8:
                    record["request"] = span[8]
                fh.write(json.dumps(record) + "\n")


def _lookup(owner, attr: str):
    """The attribute as defined on ``owner`` itself (a class's own dict)."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class _Scope:
    def __init__(self, tracer: Tracer, name: str, op, sync: bool):
        self.tracer, self.name, self.op, self.sync = tracer, name, op, sync

    def __enter__(self):
        self.span = self.tracer.open(self.name, parent=_NO_PARENT, op=self.op,
                                     sync=self.sync)
        self.token = _current.set(self.span)
        return self.span

    def __exit__(self, *exc):
        _current.reset(self.token)
        self.tracer.close(self.span)
        return False


def install(tracer: Tracer) -> Tracer:
    """Patch every layer entry point the benchmark attributes time to."""
    import repro.engine as engine
    import repro.engine.guarantees as guarantees
    import repro.engine.runner as runner
    import repro.graph.coloring as coloring
    import repro.graph.generators as generators
    import repro.graph.zoo as zoo
    import repro.persist.codec as codec
    import repro.service.client as client_mod
    import repro.service.manager as manager_mod
    import repro.service.server as server_mod
    import repro.streaming.sharded as sharded
    from repro.baselines.cgs22 import SketchSwitchingQuadraticColoring
    from repro.core.robust import RobustColoring
    from repro.core.selector import SlackWeightedSelector
    from repro.service import ColoringService, ServiceClient, SessionManager
    from repro.streaming.model import MultipassStreamingAlgorithm, OnePassAlgorithm
    from repro.streaming.source import MaterializedSource, SourceTokenStream, StreamSource
    from repro.streaming.stream import TokenStream

    t = tracer
    for fn in ("random_max_degree_graph", "near_regular_edge_array",
               "random_list_assignment"):
        t.wrap(generators, fn, f"generators.{fn}", "graph.generate")
    for fn in ("workload_edges", "arrange_edges"):
        t.wrap(zoo, fn, f"zoo.{fn}", "graph.generate")
    t.wrap(sharded, "write_sharded_edge_file", "write_sharded_edge_file",
           "streaming.write")
    t.wrap(sharded.ShardedFileSource, "__init__", "ShardedFileSource.__init__",
           "streaming.open")
    for cls in (StreamSource, MaterializedSource, TokenStream, SourceTokenStream):
        t.wrap_pass(cls)

    for fn in ("part_sums", "member_sums", "choose"):
        t.wrap(SlackWeightedSelector, fn, f"selector.{fn}", "core.selector",
               after=lambda *_: t.count("core.selector_calls"))
    for cls in (RobustColoring, SketchSwitchingQuadraticColoring):
        t.wrap(cls, "process_block", f"{cls.__name__}.process_block", "core.block")
        t.wrap(cls, "query", f"{cls.__name__}.query", "core.query")
    for cls in (MultipassStreamingAlgorithm, OnePassAlgorithm):
        t.wrap(cls, "color_stream", f"{cls.__name__}.color_stream", "core.self")

    t.wrap(engine, "run", "engine.run", "engine.run")
    t.wrap(coloring, "first_monochromatic", "first_monochromatic", "engine.validate")
    for fn in ("validate_coloring", "validate_coloring_blocks"):
        t.wrap(runner, fn, fn, "engine.validate")
    t.wrap(guarantees, "evaluate_guarantees", "evaluate_guarantees",
           "verify.guarantees")

    def wrote(span, args, kwargs, result):
        t.count("persist.writes")
        t.count("persist.bytes_written", os.path.getsize(args[0]))

    t.wrap(manager_mod, "write_checkpoint", "write_checkpoint", "persist.write",
           after=wrote)
    t.wrap(manager_mod, "read_checkpoint", "read_checkpoint", "persist.read",
           after=lambda *_: t.count("persist.reads"))
    for fn in ("snapshot_object", "restore_object"):
        t.wrap(codec, fn, fn, "persist.codec")

    _wrap_client_request(t, ServiceClient)
    t.wrap(ColoringService, "dispatch", "ColoringService.dispatch",
           "service.dispatch", parent_of=lambda a, k: t.request_span(a[1]))
    for fn, layer in (("create", "service.manager"), ("feed", "service.feed"),
                      ("finalize", "service.finalize"),
                      ("checkpoint", "service.manager"), ("drop", "service.manager")):
        t.wrap(SessionManager, fn, f"SessionManager.{fn}", layer)

    def wire_in(span, args, kwargs, result):
        t.count("service.wire_bytes", len(args[0]))

    def wire_out(span, args, kwargs, result):
        t.count("service.wire_bytes", len(result))

    # Server-side codec calls run in the connection task, outside any
    # request span of their own: link them to the client's span by id.
    t.wrap(server_mod, "decode_message", "server.decode_message", "service.codec",
           after=_relink(t, wire_in))
    t.wrap(server_mod, "encode_message", "server.encode_message", "service.codec",
           after=wire_out, parent_of=lambda a, k: t.request_span(a[0]))
    t.wrap(client_mod, "decode_message", "client.decode_message", "service.codec",
           after=wire_in)
    t.wrap(client_mod, "encode_message", "client.encode_message", "service.codec",
           after=wire_out)
    t.start_kernels()
    return t


def _relink(tracer: Tracer, after):
    """Re-parent a decode span once the decoded message reveals its id."""

    def relink(span, args, kwargs, result):
        parent = tracer.request_span(result)
        if parent is not None:
            span[1], span[2] = parent[0], parent[2]
        after(span, args, kwargs, result)

    return relink


def _wrap_client_request(tracer: Tracer, client_cls) -> None:
    """Trace ``ServiceClient.request`` and stamp its span id on the wire."""
    original = client_cls.__dict__["request"]
    LAYER_OF["ServiceClient.request"] = "service.request"

    @functools.wraps(original)
    async def request(self, op, **params):
        span = tracer.open("ServiceClient.request", sync=False)
        span.append(op)
        request_id = f"t{span[0]}"
        tracer.link_request(request_id, span)
        token = _current.set(span)
        try:
            return await original(self, op, id=request_id, **params)
        finally:
            _current.reset(token)
            tracer.close(span)
            tracer._by_request_id.pop(request_id, None)
            tracer.count("service.requests")

    tracer._patch(client_cls, "request", request)


def summarize(spans: list, ops) -> dict:
    """Fold the spans of ``ops`` into per-layer totals.

    Returns ``self`` (layer -> self seconds), ``inclusive`` (span name ->
    summed duration), ``scan_s``, ``kernel_s`` (kernel time attributed
    to spans), ``root_s`` (summed op duration), ``root_self_s`` (op time
    no layer span covers) and ``rtt`` (request op -> list of round-trip
    seconds).
    """
    ops = set(ops)
    child_dur: dict[int, float] = {}
    child_kernel: dict[int, float] = {}
    for span in spans:
        parent = span[1]
        if parent is None or span[5] is None or span[2] not in ops:
            continue
        child_dur[parent] = child_dur.get(parent, 0.0) + span[5] - span[4]
        if span[6] is not None:
            child_kernel[parent] = child_kernel.get(parent, 0.0) + span[6]
    out = {"self": {}, "inclusive": {}, "scan_s": 0.0, "kernel_s": 0.0,
           "root_s": 0.0, "root_self_s": 0.0, "rtt": {}}
    for span in spans:
        sid, parent, op, name, start, end, kernel, scan = span[:8]
        if end is None or op not in ops:
            continue
        duration = end - start
        own_kernel = (
            max(0.0, kernel - child_kernel.get(sid, 0.0))
            if kernel is not None else 0.0
        )
        own = duration - child_dur.get(sid, 0.0) - scan - own_kernel
        out["scan_s"] += scan
        out["kernel_s"] += own_kernel
        if parent is None:
            out["root_s"] += duration
            out["root_self_s"] += own
            continue
        layer = LAYER_OF.get(name, name)
        out["self"][layer] = out["self"].get(layer, 0.0) + own
        out["inclusive"][name] = out["inclusive"].get(name, 0.0) + duration
        if name == "ServiceClient.request":
            out["rtt"].setdefault(span[8], []).append(duration)
    return out
