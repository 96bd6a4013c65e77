"""Abstract interfaces for the two streaming settings.

These are intentionally thin: concrete algorithms do the real work, and the
interfaces exist so the experiment harness, the adversarial game loop, and
the communication-protocol reduction can treat algorithms uniformly.

Both base classes implement the :class:`repro.engine.StreamingColorer`
protocol: :meth:`color_stream` consumes a stream and returns a total
coloring, and :attr:`palette_bound` exposes the declared palette size
(``None`` when the algorithm only guarantees an asymptotic shape).  There
is one execution path: every static-stream run drives the algorithm's pass
machine (:mod:`repro.streaming.machine`) over edge blocks.  A
:class:`~repro.streaming.stream.TokenStream` is an input format only; it
is read through its block view.
"""

import abc

import numpy as np

from repro.common.space import SpaceMeter
from repro.streaming.machine import OnePassStreamConsumer, drive_blocks, require_machine


class SnapshotableAlgorithm:
    """Shared base: the ``Snapshotable`` protocol and the single run path.

    ``state_dict()`` captures *every* run-relevant attribute — RNG draw
    positions, sketch tables, slack counters, buffers, pass-machine
    phase, and :class:`SpaceMeter` peaks — through the typed codec of
    :mod:`repro.persist.codec`; ``load_state()`` restores it into a
    freshly constructed instance (same class, same constructor
    parameters) bit for bit.  Derived caches named in ``_snapshot_skip_``
    are excluded and rebuilt by ``_snapshot_init_``.

    :meth:`run` is the one way an algorithm consumes a static stream:
    :func:`~repro.streaming.machine.drive_blocks` over the pass machine.
    """

    #: Attribute names excluded from snapshots (derived caches).
    _snapshot_skip_: tuple = ()

    def __init__(self):
        self.meter = SpaceMeter()

    def _snapshot_init_(self) -> None:
        """Rebuild the ``_snapshot_skip_`` caches after a restore."""

    def state_dict(self) -> dict:
        """Serialize the full algorithm state (JSON tree + numpy payloads)."""
        from repro.persist.codec import snapshot_object

        return snapshot_object(self)

    def load_state(self, state: dict, arrays: dict | None = None) -> None:
        """Restore a :meth:`state_dict` payload into this instance."""
        from repro.persist.codec import restore_object

        restore_object(self, state, arrays)

    def run(self, stream) -> dict[int, int]:
        """Process the stream and return a total coloring ``vertex -> color``."""
        return drive_blocks(self, stream)

    def blocks_result(self) -> dict[int, int]:
        """The completed pass machine's coloring."""
        return require_machine(self)["coloring"]

    @property
    def palette_bound(self):
        """Declared palette size, or ``None`` if only asymptotic."""
        return getattr(self, "palette_size", None)

    @property
    def peak_space_bits(self) -> int:
        """Peak working-state bits charged to the meter."""
        return self.meter.peak_bits

    @property
    def random_bits_used(self) -> int:
        """Random bits consumed so far (0 for deterministic algorithms)."""
        return self.meter.random_bits


class MultipassStreamingAlgorithm(SnapshotableAlgorithm, abc.ABC):
    """A (possibly multipass) algorithm over a fixed stream.

    Subclasses implement the pass-machine protocol below, reading the
    stream only through the consumers it hands out and charging
    ``self.meter`` for state.
    """

    def color_stream(self, stream) -> dict[int, int]:
        """Protocol entry point: :meth:`run`."""
        return self.run(stream)

    # -- pass-machine protocol (repro.streaming.machine) ----------------
    @abc.abstractmethod
    def blocks_start(self) -> None:
        """Initialize the pass machine."""

    @abc.abstractmethod
    def blocks_consumer(self):
        """The consumer for the next pass, or ``None`` once done."""

    @abc.abstractmethod
    def blocks_deliver(self, result, stream) -> None:
        """Fold a finished pass's result into the machine state."""


class OnePassAlgorithm(SnapshotableAlgorithm, abc.ABC):
    """A single-pass algorithm playing the adversarial game of Section 2.

    The adversary (or a static driver) inserts edges and may call
    :meth:`query` at any time; ``query`` must return a proper coloring of
    all edges processed so far.

    :meth:`process_block` is the one update: a ``(k, 2)`` array of
    insertions, consumed in order, whose resulting state (colorings,
    space peaks, randomness) is the same however the stream is split
    into blocks.  :meth:`process` is Section 2's per-insertion interface,
    a one-row block.
    """

    def process(self, u: int, v: int) -> None:
        """Consume the next edge insertion ``{u, v}``."""
        self.process_block(np.array([[u, v]], dtype=np.int64))

    @abc.abstractmethod
    def process_block(self, edges: np.ndarray) -> None:
        """Consume a ``(k, 2)`` int64 block of edge insertions, in order."""

    @abc.abstractmethod
    def query(self) -> dict[int, int]:
        """Return a coloring of every vertex, proper for the edges so far."""

    def color_stream(self, stream) -> dict[int, int]:
        """Protocol entry point: feed every edge, then query once.

        This is the static-stream (oblivious) driver; the adaptive setting
        goes through :func:`repro.adversaries.run_adversarial_game` instead.
        Blocks are fed through :meth:`process_block` by the generic
        one-pass pass machine, so every one-pass algorithm is
        suspend/restorable at any block boundary for free (its whole state
        lives in object attributes between ``process_block`` calls).
        """
        return self.run(stream)

    # -- pass-machine protocol: one streaming pass, then query ----------
    def blocks_start(self) -> None:
        self._mach = {"phase": "stream"}

    def blocks_consumer(self):
        if require_machine(self)["phase"] == "stream":
            return OnePassStreamConsumer(self)
        return None

    def blocks_deliver(self, result, stream) -> None:
        mach = require_machine(self)
        if mach["phase"] == "stream":
            # query() may mutate state (e.g. in-place conflict repair), so
            # its outcome is computed exactly once, here.
            self._mach = {"phase": "done", "coloring": self.query()}
