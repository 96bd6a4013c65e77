"""Metamorphic properties: relations between runs, not absolute bounds.

Three relations, each grounded in a paper-level promise:

- **Seed determinism**: the whole pipeline is a pure function of the spec
  — two runs of the same cell must agree on every observable field
  (randomized algorithms draw from seeded generators only).
- **Order invariance**: the deterministic multipass algorithms compute
  order-insensitive aggregates per pass (counts, sums, minima), so the
  *final coloring itself* must be identical under any permutation of the
  edge stream.  Declared per entry (``GuaranteeSpec.order_invariant``);
  one-pass buffering algorithms are genuinely order-sensitive and only
  promise that their *bounds* hold for every order, which the sweep
  checks by running all orders.
- **Subsample stability**: dropping edges can only decrease the max
  degree, so every guarantee evaluated at the original ``(n, delta)``
  must still hold on any subsampled stream — the bounds are monotone in
  the instance parameters.
"""

from dataclasses import replace

import numpy as np

from repro.engine import REGISTRY, RunSpec, run
from repro.engine.guarantees import evaluate_guarantees
from repro.graph.zoo import arrange_edges, workload_delta, workload_edges
from repro.streaming.source import GeneratorSource
from repro.verify.cells import Cell, cell_fingerprint, run_cell

__all__ = [
    "check_order_invariance",
    "check_seed_determinism",
    "check_subsample_stability",
]


def check_seed_determinism(cell: Cell, registry=None) -> list[str]:
    """Two runs of the same cell must be observably identical."""
    first = run_cell(cell, registry=registry, keep_coloring=True)
    second = run_cell(cell, registry=registry, keep_coloring=True)
    if cell_fingerprint(first) != cell_fingerprint(second):
        return [
            f"{cell.algorithm}/{cell.family}/{cell.order}: two runs of the "
            "same cell diverged (seed determinism broken)"
        ]
    return []


def check_order_invariance(
    cell: Cell, orders, registry=None
) -> list[str]:
    """Identical final coloring under every stream order (where declared)."""
    registry = registry if registry is not None else REGISTRY
    entry = registry.get(cell.algorithm)
    if entry.guarantee is None or not entry.guarantee.order_invariant:
        return []
    reference = run_cell(
        replace(cell, order="insertion"), registry=registry,
        keep_coloring=True,
    )
    problems = []
    for order in orders:
        if order == "insertion":
            continue
        other = run_cell(
            replace(cell, order=order), registry=registry, keep_coloring=True
        )
        if other.coloring != reference.coloring:
            problems.append(
                f"{cell.algorithm}/{cell.family}: coloring changed under "
                f"{order!r} order but the entry declares order invariance"
            )
    return problems


def check_subsample_stability(
    cell: Cell, registry=None, keep_fraction: float = 0.5
) -> list[str]:
    """Guarantees at the original (n, delta) must survive edge subsampling."""
    registry = registry if registry is not None else REGISTRY
    entry = registry.get(cell.algorithm)
    if entry.guarantee is None or entry.needs_lists:
        # List-coloring lists are sized per-degree; subsampling would need
        # regenerated lists, which changes the instance rather than
        # shrinking it.  The relation is only meaningful for edge streams.
        return []
    edges, n_actual = workload_edges(cell.family, cell.n, cell.seed)
    delta = workload_delta(n_actual, edges)
    if len(edges) == 0:
        return []
    keep = (
        np.random.default_rng(cell.seed + 0x5AB5)
        .random(len(edges)) < keep_fraction
    )
    sub = edges[keep]

    def regenerate():
        return arrange_edges(n_actual, sub, cell.order, cell.seed)

    stream = GeneratorSource(regenerate, n_actual, chunk_size=cell.chunk_size)
    spec = RunSpec(
        algorithm=cell.algorithm, n=n_actual, delta=delta, seed=cell.seed,
        validate=entry.guarantee.proper,
    )
    result = run(spec, stream, registry=registry)
    report = evaluate_guarantees(result, entry.guarantee)
    return [
        f"{cell.algorithm}/{cell.family}/{cell.order}: subsampled stream "
        f"violated {c.name} (observed {c.observed} > bound {c.bound}) — "
        "guarantee not monotone under edge deletion"
        for c in report.violations
    ]
