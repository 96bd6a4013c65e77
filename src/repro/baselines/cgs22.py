"""A [CGS22]-style robust O(Delta^2)-coloring in ~O(n sqrt(Delta)) space.

Chakrabarti, Ghosh, Stoeckl (ITCS 2022) — the prior state of the art this
paper's Section 4 improves — gave, besides the O(Delta^3) semi-streaming
algorithm, "an O(Delta^2)-coloring in ~O(n sqrt(Delta)) space (including
random bits used)".  Corollary 4.7's headline point (i) improves exactly
this: O(Delta^2) colors in only O(n Delta^{1/3}) space.  This module
provides the comparison point.

Construction (sketch-switching, no graph-structure exploitation):

- Buffer of ``n * ceil(sqrt(Delta))`` edges; ``~sqrt(Delta)/2`` epochs.
- Per epoch, ``P = ceil(10 log n)`` 4-wise-independent hash functions
  ``h_{i,j} : V -> [l]`` with ``l = 2^{floor(log Delta)} ~ Delta`` — a
  *coarse* range, so each sketch keeps ``~m/l <= n/2`` monochromatic
  edges (capacity-capped at ``4n``, wiped on overflow as in Algorithm 3).
- Query: greedily ``(Delta+1)``-color ``D_{curr,k} | B`` for a surviving
  ``k`` and output the pair ``(chi(y), h_{curr,k}(y))`` — palette
  ``(Delta+1) * l = O(Delta^2)``.

Robustness follows the same freeze-before-reveal argument as Algorithm 3
(``D_curr`` stops receiving edges before ``h_curr`` first appears in an
output).  Space: ``O(n)`` per sketch is *not* guaranteed here — only the
buffer dominates at ``n sqrt(Delta)`` edges — which is precisely why this
sits at the ``O(n Delta^{1/2})`` point of the tradeoff curve.
"""

import numpy as np

from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_log2, ceil_sqrt, floor_log2, next_prime
from repro.common.rng import SeededRng
from repro.hashing.kindependent import PolynomialHashFamily
from repro.streaming.blocks import sketch_process_block, sketch_query
from repro.streaming.model import OnePassAlgorithm


class SketchSwitchingQuadraticColoring(OnePassAlgorithm):
    """[CGS22]-style robust ``O(Delta^2)``-coloring at the ``n sqrt(Delta)`` space point."""

    # The per-vertex hash memo is re-derived from the stored coefficients.
    _snapshot_skip_ = ("_hash_cache",)

    def _snapshot_init_(self) -> None:
        self._hash_cache = {}

    def __init__(self, n: int, delta: int, seed: int, repetitions=None):
        super().__init__()
        if delta < 1:
            raise ReproError(f"delta must be >= 1, got {delta}")
        self.n = n
        self.delta = delta
        self.ell = 1 << floor_log2(delta)
        self.buffer_capacity = n * ceil_sqrt(delta)
        self.num_epochs = max(1, -(-delta // (2 * ceil_sqrt(delta))) + 1)
        self.repetitions = (
            repetitions if repetitions is not None
            else max(1, 10 * ceil_log2(max(2, n)))
        )
        self.overflow_cap = 4 * n
        prime = next_prime(max(n, self.ell, 11))
        self.family = PolynomialHashFamily(prime, k=4, m=self.ell)
        rng = SeededRng(seed)
        # Batched sampler; draws the identical coefficient sequence the
        # previous direct rng.np.integers call did.
        self._coeffs = self.family.coeff_array(
            rng, (self.num_epochs, self.repetitions)
        )
        self.meter.charge_random_bits(
            self.num_epochs * self.repetitions * self.family.seed_bits()
        )
        self._d_sets: list[list] = [
            [[] for _ in range(self.repetitions)]
            for _ in range(self.num_epochs + 2)
        ]
        self._buffer: list[tuple[int, int]] = []
        self._curr = 1
        self._hash_cache: dict[int, np.ndarray] = {}
        self._edge_bits = 2 * ceil_log2(max(2, n))

    # ------------------------------------------------------------------
    def process_block(self, edges: np.ndarray) -> None:
        sketch_process_block(
            self, edges, num_epochs=self.num_epochs,
            capacity=self.buffer_capacity,
        )

    def query(self) -> dict[int, int]:
        return sketch_query(self, num_epochs=self.num_epochs)

    # ------------------------------------------------------------------
    @property
    def palette_size(self) -> int:
        """``(Delta+1) * l = O(Delta^2)``."""
        return (self.delta + 1) * self.ell
