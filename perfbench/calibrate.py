"""Machine-speed calibration.

The benchmark's host is a few cores of a shared machine, whose speed
drifts by up to 2x over tens of seconds as neighbours load it.  To keep
that drift out of the end-to-end metrics, a fixed reference kernel that
depends on nothing in ``src/`` is timed between ops, once per
``PERIOD_S`` of op time, and every end-to-end time is scaled to
*reference speed*: the speed at which one kernel call takes
``REFERENCE_S``.  A time span is
scaled by the kernel calls made from ``MARGIN_S`` before it to
``MARGIN_S`` after it, so drift within a run is followed too.  A change
to the program moves the op times but not the kernel, so it still shows
in full.

The kernel mixes what the workloads spend their time on: interpreted
dict and set work (a greedy coloring), building and sorting short-lived
records, JSON round trips of a small and a larger message, a small numpy
sort and a loopback socket round trip.
"""

from __future__ import annotations

import bisect
import json
import random
import socket
import statistics
import time

import numpy as np

REFERENCE_S = 0.00125  # one kernel call at reference speed
PERIOD_S = 0.04  # one kernel call per this much op time
MARGIN_S = 1.0

_rng = random.Random(5)
_EDGES = [(_rng.randrange(200), _rng.randrange(200)) for _ in range(800)]
_ADJ: dict[int, set[int]] = {}
for _u, _v in _EDGES:
    if _u != _v:
        _ADJ.setdefault(_u, set()).add(_v)
        _ADJ.setdefault(_v, set()).add(_u)
_MESSAGE = {"op": "feed", "sid": "s1", "edges": [list(e) for e in _EDGES[:64]]}
_RESULT = {"edges": [list(e) for e in _EDGES[:600]],
           "meta": {str(i): i for i in range(100)}}
_KEYS = np.arange(4096, dtype=np.int64)
_PAYLOAD = b"x" * 256


class Calibrator:
    """Times the reference kernel; ``factor()`` converts to reference speed."""

    def __init__(self):
        self.stamps: list[float] = []  # perf_counter at each call's start
        self.samples: list[float] = []  # each call's duration
        self._pair = socket.socketpair()
        self._owed_s = 0.0  # busy time not yet matched by a kernel call
        for _ in range(3):  # untimed: the first calls run cold
            self._kernel()

    def _kernel(self) -> None:
        colors: dict[int, int] = {}
        for v in sorted(_ADJ):
            used = {colors.get(w) for w in _ADJ[v]}
            c = 0
            while c in used:
                c += 1
            colors[v] = c
        records = [{"v": i, "c": i % 7, "n": [i, i + 1]} for i in range(600)]
        records.sort(key=lambda r: (r["c"], -r["v"]))
        for _ in range(3):
            json.loads(json.dumps(_MESSAGE))
        json.loads(json.dumps(_RESULT))
        ((_KEYS * 2654435761) % 1009).argsort()
        a, b = self._pair
        for _ in range(2):
            a.sendall(_PAYLOAD)
            b.recv(4096)

    def sample(self, busy_s: float) -> None:
        """Time the kernel once per ``PERIOD_S`` of busy time, counting the
        ``busy_s`` that just ended."""
        self._owed_s += busy_s
        while self._owed_s >= PERIOD_S:
            self._owed_s -= PERIOD_S
            start = time.perf_counter()
            self._kernel()
            self.stamps.append(start)
            self.samples.append(time.perf_counter() - start)

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Reference-speed seconds per measured second (below 1 on a slow
        host): over the whole run, or around the span ``start..end``."""
        samples = self.samples
        if start is not None:
            lo = bisect.bisect_left(self.stamps, start - MARGIN_S)
            hi = bisect.bisect_right(self.stamps, end + MARGIN_S)
            samples = samples[lo:hi] or samples
        return REFERENCE_S / statistics.fmean(samples)

    def close(self) -> None:
        for end in self._pair:
            end.close()
