"""repro.service — the concurrent coloring session service.

A *session* is a long-lived streaming coloring run fed incrementally by a
client: ``create`` (algorithm + instance spec) → ``feed`` (edge blocks)
→ ``advance`` (one streaming pass at a time) → ``finalize`` →
``result``.  Every session buffers its edge log and runs its passes over
the sealed log through one :class:`repro.persist.driver.ResumableRun`,
one-pass and multipass algorithms alike.

Layers:

- :mod:`repro.service.manager` — :class:`SessionManager`: the asyncio
  session table with per-session locks and LRU eviction of idle sessions
  to ``REPROCK1`` checkpoints (restored transparently on next touch);
- :mod:`repro.service.protocol` — the newline-delimited JSON request/
  response framing shared by server and client;
- :mod:`repro.service.server` — :class:`ColoringService`: the op
  dispatcher behind ``repro serve`` (TCP and stdio transports);
- :mod:`repro.service.client` — :class:`ServiceClient`: the thin async
  client behind ``repro submit`` and the S2 benchmark;
- :mod:`repro.service.pool` — :class:`WorkerPool`: the sharded
  multi-core execution plane behind ``repro serve --workers N``
  (session-sharded worker processes, shared-memory edge rings,
  journal-backed crash recovery, busy backpressure, graceful drain);
- :mod:`repro.service.loadgen` — the open-loop load generator behind
  ``repro loadgen`` and the S3 benchmark (``BENCH_s3_load.json``).
"""

from repro.service.client import (
    ServiceClient,
    build_session_workload,
    submit_workload,
)
from repro.service.loadgen import LoadSpec, run_load, run_load_sync
from repro.service.manager import SessionManager
from repro.service.pool import PoolConfig, WorkerPool
from repro.service.protocol import decode_message, encode_message
from repro.service.server import ColoringService

__all__ = [
    "ColoringService",
    "LoadSpec",
    "PoolConfig",
    "ServiceClient",
    "SessionManager",
    "WorkerPool",
    "build_session_workload",
    "decode_message",
    "encode_message",
    "run_load",
    "run_load_sync",
    "submit_workload",
]
