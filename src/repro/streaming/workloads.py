"""Stream builders for the workload zoo (:mod:`repro.graph.zoo`).

The verification sweep needs every zoo family deliverable through every
data plane.  :func:`workload_source` wraps a ``(family, n, order, seed)``
cell in a :class:`~repro.streaming.source.GeneratorSource` — the edge
array (and its arrangement) is re-derived on every pass, so nothing about
the stream is retained between passes and the source works at any chunk
size.  :func:`workload_list_stream` builds the Theorem 2 input (edges +
per-vertex list tokens) for ``needs_lists`` algorithms from the same
underlying zoo graph.
"""

import numpy as np

from repro.graph.zoo import arrange_edges, workload_delta, workload_edges
from repro.streaming.source import DEFAULT_CHUNK_SIZE, GeneratorSource
from repro.streaming.stream import TokenStream
from repro.streaming.tokens import EdgeToken, ListToken

__all__ = [
    "workload_list_stream",
    "workload_source",
    "workload_stats",
]


def workload_stats(family: str, n: int, seed: int) -> tuple[int, int, int]:
    """``(n_actual, delta, m)`` of a zoo cell (delta = true max degree)."""
    edges, n_actual = workload_edges(family, n, seed)
    return n_actual, workload_delta(n_actual, edges), len(edges)


def _arranged(family: str, n: int, order: str, seed: int):
    edges, n_actual = workload_edges(family, n, seed)
    return arrange_edges(n_actual, edges, order, seed), n_actual


def workload_source(
    family: str,
    n: int,
    order: str = "insertion",
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> GeneratorSource:
    """The zoo cell as a lazy block source (regenerated each pass)."""

    def regenerate():
        edges, _ = _arranged(family, n, order, seed)
        return edges

    _, n_actual = workload_edges(family, n, seed)
    return GeneratorSource(regenerate, n_actual, chunk_size=chunk_size)


def workload_list_stream(
    family: str,
    n: int,
    order: str = "insertion",
    seed: int = 0,
    universe: int | None = None,
) -> tuple[TokenStream, int]:
    """The Theorem 2 input for a zoo cell: ``(stream, universe)``.

    Edges follow the cell's arranged order; each vertex's
    ``(deg(v) + 1)``-color list token precedes the first edge (the theorem
    allows any interleaving, and the oracles need one deterministic
    choice).  ``universe`` defaults to ``2 * (delta + 1)``.
    """
    from repro.graph.graph import Graph
    from repro.graph.generators import random_list_assignment

    edges, n_actual = _arranged(family, n, order, seed)
    delta = workload_delta(n_actual, edges)
    if universe is None:
        universe = 2 * (delta + 1)
    graph = Graph(n_actual, [tuple(e) for e in edges.tolist()])
    lists = random_list_assignment(graph, palette_size=universe, seed=seed)
    tokens: list = [
        ListToken(x, frozenset(colors)) for x, colors in sorted(lists.items())
    ]
    tokens.extend(EdgeToken(int(u), int(v)) for u, v in edges.tolist())
    return TokenStream(tokens, n_actual), universe
