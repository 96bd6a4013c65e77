"""Algorithm 2: adversarially robust O(Delta^{5/2})-coloring (Theorem 3).

Single pass, adaptive adversary, ``~O(n)`` working space plus an
``O(n Delta)``-bit random oracle (the uniformly random coloring functions
``h_i`` and ``g_i``).  The ``beta`` parameter implements the Corollary 4.7
colors/space tradeoff: buffer ``n Delta^beta``, ``Delta^{1-beta}`` epochs,
``h``-range ``Delta^{2-2beta}``, fast threshold ``Delta^{(1+beta)/2}``,
``Delta^{(1-beta)/2}`` levels, ``g``-range ``Delta^{3(1-beta)/2}``, for
``O(Delta^{(5-3beta)/2})`` colors in ``O(n Delta^beta)`` space; ``beta=0``
is the base algorithm.

Terminology (Section 4.1): **buffer** B of the current epoch's edges;
**epoch** = which chunk the buffer is on; **level** of a vertex = ceil of
its degree over the fast threshold; **zone** fast/slow by buffer-degree;
**blocks** = color classes of ``h_curr`` (slow) and ``g_l`` (fast);
**sketches** ``A_i`` (``h_i``-monochromatic edges) and ``C_i``
(``g_i``-monochromatic edges).

Query: ``(degree+1)``-color each slow ``h_curr``-block on ``A_curr | B``,
``(degeneracy+1)``-color each fast ``g_l``-block on ``C_l | B``, fresh
palette per block (Lemma 4.6).

Indexing note (DESIGN.md, faithfulness discussion): the paper's prose and
pseudocode say the slow zone recolors on ``A_{curr-1} | B``, but its own
Lemma 4.6 proof uses ``A_curr | B`` ("the algorithm would have stored
{x,y} in A_curr"), and with the pseudocode's update rule (line 14: sketches
``i >= curr+1`` receive the edge) only ``A_curr | B`` covers the full
prefix: an edge from epoch ``curr-1`` is in ``A_curr`` but *not* in
``A_{curr-1}`` nor in ``B``.  Robustness is preserved because ``A_curr``
is frozen before ``h_curr`` is first revealed.  We implement
``A_curr | B``.
"""

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_div, ceil_log2
from repro.graph.coloring import greedy_coloring
from repro.graph.degeneracy import degeneracy_coloring
from repro.graph.graph import Graph
from repro.hashing.random_oracle import RandomOracle
from repro.streaming.blocks import buffer_timeline, running_degrees
from repro.streaming.model import OnePassAlgorithm


@dataclass(frozen=True)
class RobustParameters:
    """The Corollary 4.7 parameterization, integer-rounded.

    All quantities are ``>= 1``; ``beta = 0`` reproduces Algorithm 2's
    base setting exactly (buffer ``n``, ``Delta`` epochs, ``h``-range
    ``Delta^2``, threshold/levels ``sqrt(Delta)``, ``g``-range
    ``Delta^{3/2}``).
    """

    n: int
    delta: int
    beta: float
    buffer_capacity: int
    num_epochs: int
    h_range: int
    fast_threshold: int
    num_levels: int
    g_range: int

    @classmethod
    def create(cls, n: int, delta: int, beta: float = 0.0) -> "RobustParameters":
        if not 0.0 <= beta <= 1.0:
            raise ReproError(f"beta must be in [0, 1], got {beta}")
        if delta < 1:
            raise ReproError(f"delta must be >= 1, got {delta}")

        def power(exponent: float) -> int:
            return max(1, round(delta**exponent))

        buffer_capacity = max(1, round(n * delta**beta))
        num_epochs = power(1.0 - beta)
        h_range = power(2.0 - 2.0 * beta)
        fast_threshold = power((1.0 + beta) / 2.0)
        num_levels = max(1, ceil_div(delta, fast_threshold))
        g_range = power(3.0 * (1.0 - beta) / 2.0)
        return cls(
            n=n,
            delta=delta,
            beta=beta,
            buffer_capacity=buffer_capacity,
            num_epochs=num_epochs,
            h_range=h_range,
            fast_threshold=fast_threshold,
            num_levels=num_levels,
            g_range=g_range,
        )

    @property
    def color_bound(self) -> float:
        """The claimed palette size ``O(Delta^{(5-3beta)/2})`` (shape only)."""
        return self.delta ** ((5.0 - 3.0 * self.beta) / 2.0)


class RobustColoring(OnePassAlgorithm):
    """Adversarially robust ``O(Delta^{5/2})``-coloring (Algorithm 2)."""

    # The stacked oracle tables are derived from _h/_g on first use;
    # snapshots carry the functions, not the stacks.
    _snapshot_skip_ = ("_h_table", "_g_table")

    def _snapshot_init_(self) -> None:
        self._h_table = None
        self._g_table = None

    def __init__(self, n: int, delta: int, seed: int, beta: float = 0.0):
        super().__init__()
        self.n = n
        self.delta = delta
        self.params = RobustParameters.create(n, delta, beta)
        p = self.params
        self._oracle = RandomOracle(seed)
        # h_1..h_E : V -> [h_range]; g_1..g_L : V -> [g_range].
        self._h = [
            self._oracle.function(f"h/{i}", n, p.h_range)
            for i in range(1, p.num_epochs + 1)
        ]
        self._g = [
            self._oracle.function(f"g/{i}", n, p.g_range)
            for i in range(1, p.num_levels + 1)
        ]
        self.meter.charge_random_bits(self._oracle.bits_served)
        self._degree = np.zeros(n, dtype=np.int64)
        self._buffer: list[tuple[int, int]] = []
        self._buffer_degree = np.zeros(n, dtype=np.int64)
        self._a_sets: list[list[tuple[int, int]]] = [[] for _ in range(p.num_epochs + 2)]
        self._c_sets: list[list[tuple[int, int]]] = [[] for _ in range(p.num_levels + 2)]
        self._curr = 1
        self._edges_seen = 0
        # Stacked oracle tables for the block path, built on first use.
        self._h_table = None
        self._g_table = None
        self._edge_bits = 2 * ceil_log2(max(2, n))
        self.meter.set_gauge(
            "degree counters", n * ceil_log2(max(2, delta + 1))
        )

    # ------------------------------------------------------------------
    def _level_of_degree(self, d: int) -> int:
        """Level ``l`` such that degree is in ``((l-1) T, l T]`` (T = fast threshold)."""
        return max(1, ceil_div(d, self.params.fast_threshold))

    # ------------------------------------------------------------------
    def process_block(self, edges: np.ndarray) -> None:
        """Lines 10-17 over a ``(k, 2)`` block of insertions, in order.

        The sequential bookkeeping is reconstructed in closed form: running
        degrees via a stable group-rank, buffer epochs via
        :func:`~repro.streaming.blocks.buffer_timeline`, and the rare
        monochromatic sketch events via one oracle-table gather per family.
        An edge that would exceed the degree cap raises :class:`ReproError`
        after the edges before it have been processed.
        """
        p = self.params
        k = len(edges)
        if k == 0:
            return
        # Larger endpoint degree just before each edge's insertion.
        deg_max = running_degrees(self._degree, edges).max(axis=1)
        over = np.flatnonzero(deg_max >= self.delta)
        if len(over):
            first = int(over[0])
            self.process_block(edges[:first])
            u, v = edges[first].tolist()
            raise ReproError(
                f"edge ({u},{v}) exceeds the promised max degree {self.delta}"
            )
        rolls, lengths = buffer_timeline(len(self._buffer), p.buffer_capacity, k)
        curr_at = self._curr + rolls
        us, vs = edges[:, 0], edges[:, 1]
        stored_delta = np.zeros(k, dtype=np.int64)
        edges_list = edges.tolist()
        # Lines 14-15: h_i-monochromatic events for epochs > curr.
        if self._h_table is None:
            self._h_table = np.stack([h.table() for h in self._h])
            self._g_table = np.stack([g.table() for g in self._g])
        mono_h = (self._h_table[:, us] == self._h_table[:, vs]).T  # (k, E)
        ev_e, ev_i = np.nonzero(mono_h)
        a_added = 0
        for e, i in zip(ev_e.tolist(), ev_i.tolist()):
            epoch = i + 1
            if curr_at[e] + 1 <= epoch <= p.num_epochs:
                self._a_sets[epoch].append(tuple(edges_list[e]))
                stored_delta[e] += 1
                a_added += 1
        # Lines 16-17: g_i-monochromatic events for levels above the edge.
        top = np.maximum(1, -(-(deg_max + 1) // p.fast_threshold))
        mono_g = (self._g_table[:, us] == self._g_table[:, vs]).T  # (k, L)
        ev_e, ev_i = np.nonzero(mono_g)
        c_added = 0
        for e, i in zip(ev_e.tolist(), ev_i.tolist()):
            level = i + 1
            if top[e] + 1 <= level <= p.num_levels:
                self._c_sets[level].append(tuple(edges_list[e]))
                stored_delta[e] += 1
                c_added += 1
        # Degree counters (line 13) and the buffer (lines 10-12).
        counts = np.bincount(edges.ravel(), minlength=self.n)
        self._degree += counts
        if rolls[-1] > 0:
            tail = edges[k - int(lengths[-1]):]
            self._buffer = [tuple(e) for e in tail.tolist()]
            self._buffer_degree = np.bincount(tail.ravel(), minlength=self.n)
        else:
            self._buffer.extend(tuple(e) for e in edges_list)
            self._buffer_degree += counts
        self._curr += int(rolls[-1])
        self._edges_seen += k
        # Space peak over the per-edge gauge totals.
        meter, bits = self.meter, self._edge_bits
        a0, c0 = meter.gauge("A sketches"), meter.gauge("C sketches")
        base = meter.current_bits - meter.gauge("buffer B") - a0 - c0
        per_edge_total = a0 + c0 + (np.cumsum(stored_delta) + lengths) * bits
        meter.observe_peak(base + int(per_edge_total.max()))
        # Zero the varying gauges before the final update: setting one
        # gauge to its new value while another still holds the pre-block
        # value would register a transient total no per-edge update
        # reaches.
        for name in ("buffer B", "A sketches", "C sketches"):
            meter.set_gauge(name, 0)
        meter.set_gauge("buffer B", len(self._buffer) * bits)
        meter.set_gauge("A sketches", a0 + a_added * bits)
        meter.set_gauge("C sketches", c0 + c_added * bits)

    # ------------------------------------------------------------------
    def query(self) -> dict[int, int]:
        """Lines 18-27: recolor slow blocks and fast blocks with fresh palettes."""
        p = self.params
        coloring: dict[int, int] = {}
        next_free_color = 1
        fast = set(
            np.flatnonzero(self._buffer_degree > p.fast_threshold).tolist()
        )
        slow = [v for v in range(self.n) if v not in fast]
        degree = self._degree.tolist()
        # --- slow zone: h_curr blocks on A_curr | B (see module docstring) ---
        h_curr = self._h[min(self._curr, p.num_epochs) - 1]
        a_curr = (
            self._a_sets[self._curr] if self._curr <= p.num_epochs else []
        )
        slow_blocks: dict[int, list[int]] = {}
        block_of: dict[int, int] = {}
        for v in slow:
            c = h_curr(v)
            slow_blocks.setdefault(c, []).append(v)
            block_of[v] = c
        # One sweep buckets the pool's intra-block edges by block.
        block_edges: dict[int, list[tuple[int, int]]] = {c: [] for c in slow_blocks}
        for u, v in a_curr + self._buffer:
            bu = block_of.get(u)
            if bu is not None and bu == block_of.get(v):
                block_edges[bu].append((u, v))
        for c, block in sorted(slow_blocks.items()):
            sub, index = self._induced(block, block_edges[c])
            local = greedy_coloring(sub)
            for original, local_id in index.items():
                coloring[original] = next_free_color + local[local_id] - 1
            next_free_color += max(local.values(), default=0)
        # --- fast zone: g_l blocks per level on C_l | B ---
        for level in range(1, p.num_levels + 1):
            g_l = self._g[level - 1]
            members = [
                v
                for v in fast
                if self._level_of_degree(degree[v]) == level
            ]
            if not members:
                continue
            fast_blocks: dict[int, list[int]] = {}
            fast_block_of: dict[int, int] = {}
            for v in members:
                c = g_l(v)
                fast_blocks.setdefault(c, []).append(v)
                fast_block_of[v] = c
            level_edges: dict[int, list[tuple[int, int]]] = {
                c: [] for c in fast_blocks
            }
            for u, v in self._c_sets[level] + self._buffer:
                bu = fast_block_of.get(u)
                if bu is not None and bu == fast_block_of.get(v):
                    level_edges[bu].append((u, v))
            for c, block in sorted(fast_blocks.items()):
                sub, index = self._induced(block, level_edges[c])
                local = degeneracy_coloring(sub)
                for original, local_id in index.items():
                    coloring[original] = next_free_color + local[local_id] - 1
                next_free_color += max(local.values(), default=0)
        return coloring

    # ------------------------------------------------------------------
    def _induced(self, block, edge_pool):
        """Subgraph induced by ``block`` on the given edge multiset."""
        index = {v: i for i, v in enumerate(sorted(block))}
        sub = Graph(len(index))  # repro: noqa[R3] sketch contents, not the stream
        for u, v in edge_pool:
            iu = index.get(u)
            iv = index.get(v)
            if iu is not None and iv is not None and not sub.has_edge(iu, iv):
                sub.add_edge(iu, iv)
        return sub, index

    # ------------------------------------------------------------------
    @property
    def sketch_edge_count(self) -> int:
        """Total edges currently stored across all sketches (A2 ablation)."""
        return sum(len(a) for a in self._a_sets) + sum(len(c) for c in self._c_sets)
