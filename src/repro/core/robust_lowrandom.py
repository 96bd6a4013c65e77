"""Algorithm 3: randomness-efficient adversarially robust O(Delta^3)-coloring.

Theorem 4 / Theorem 7: a robust coloring with palette
``[(Delta+1)] x [l^2]`` (``l = 2^{floor(log Delta)}``, so ``O(Delta^3)``
colors) in ``~O(n)`` bits of space *including* all random bits — the
information-theoretically clean counterpart of Algorithm 2's random oracle.

Mechanics: ``P = ceil(10 log n)`` independent 4-wise-independent hash
functions ``h_{i,j} : V -> [l^2]`` per epoch ``i``.  Each sketch ``D_{i,j}``
stores the ``h_{i,j}``-monochromatic edges seen while ``curr < i``, but is
invalidated (``None``) if it ever exceeds ``7n/Delta`` edges (lines 10-14).
Lemma 4.8: by Chebyshev on the 4-wise independence, each ``D_{i,j}``
overflows with probability ``<= 1/2``, so w.h.p. some ``j`` survives at
query time.  The query greedily ``(Delta+1)``-colors ``D_{curr,k} | B``
and outputs the pair ``(chi(y), h_{curr,k}(y))`` (Lemma 4.9).

A failed query (all ``D_{curr,j}`` invalidated) raises
:class:`AlgorithmFailure` — the ``delta`` error budget of the theorem.
"""

import numpy as np

from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_log2, floor_log2, next_prime
from repro.common.rng import SeededRng
from repro.hashing.kindependent import PolynomialHashFamily
from repro.streaming.blocks import sketch_process_block, sketch_query
from repro.streaming.model import OnePassAlgorithm


class LowRandomnessRobustColoring(OnePassAlgorithm):
    """Robust ``O(Delta^3)``-coloring within semi-streaming space incl. randomness."""

    # The per-vertex hash memo is a simulation speedup re-derived from the
    # stored coefficients; snapshots drop it.
    _snapshot_skip_ = ("_hash_cache",)

    def _snapshot_init_(self) -> None:
        self._hash_cache = {}

    def __init__(self, n: int, delta: int, seed: int, repetitions=None):
        super().__init__()
        if delta < 1:
            raise ReproError(f"delta must be >= 1, got {delta}")
        self.n = n
        self.delta = delta
        # l = greatest power of two <= Delta; palette [(Delta+1)] x [l^2].
        self.ell = 1 << floor_log2(delta)
        self.range_size = self.ell * self.ell
        self.repetitions = (
            repetitions
            if repetitions is not None
            else max(1, 10 * ceil_log2(max(2, n)))
        )
        self.overflow_cap = max(1, (7 * n) // delta)
        # 4-independent family V -> [l^2] of size poly(n) (Lemma 4.8 needs
        # exactly 4-wise independence for its variance computation).
        prime = next_prime(max(n, self.range_size, 11))
        self.family = PolynomialHashFamily(prime, k=4, m=self.range_size)
        rng = SeededRng(seed)
        # Coefficients for h_{i,j}: i in [Delta] epochs, j in [P] repetitions
        # (the family's batched sampler draws the identical sequence the
        # previous direct rng.np.integers call did).
        self._coeffs = self.family.coeff_array(rng, (delta, self.repetitions))
        self.meter.charge_random_bits(
            delta * self.repetitions * self.family.seed_bits()
        )
        # D_{i,j}: list of edges, or None once invalidated.
        self._d_sets: list[list] = [
            [[] for _ in range(self.repetitions)] for _ in range(delta + 2)
        ]
        self._buffer: list[tuple[int, int]] = []
        self._curr = 1
        self._hash_cache: dict[int, np.ndarray] = {}
        self._edge_bits = 2 * ceil_log2(max(2, n))

    # ------------------------------------------------------------------
    def process_block(self, edges: np.ndarray) -> None:
        """Lines 6-14: roll the buffer, fill the future epochs' sketches."""
        sketch_process_block(
            self, edges, num_epochs=self.delta, capacity=self.n
        )

    def query(self) -> dict[int, int]:
        """Lines 15-17: color ``D_{curr,k} | B``, pair it with ``h_{curr,k}``."""
        return sketch_query(self, num_epochs=self.delta)

    # ------------------------------------------------------------------
    @property
    def palette_size(self) -> int:
        """``(Delta+1) * l^2 = O(Delta^3)``."""
        return (self.delta + 1) * self.range_size

    def surviving_sketches(self, epoch=None) -> int:
        """How many ``D_{epoch, j}`` are still valid (A3 ablation)."""
        epoch = self._curr if epoch is None else epoch
        if not 1 <= epoch <= self.delta:
            return self.repetitions
        return sum(1 for d in self._d_sets[epoch] if d is not None)
