"""One verification cell: (algorithm, family, order, seed, data plane).

:func:`run_cell` is the shared primitive under the differential oracle,
the metamorphic properties, the sweep, and the hypothesis suite: build the
zoo workload's stream on the requested data plane, size the instance from
the workload's true max degree, and run through :func:`repro.engine.run`
with the guarantee oracle enabled (``verify=True``).
"""

from dataclasses import dataclass

from repro.engine import REGISTRY, RunSpec, run
from repro.streaming.workloads import (
    workload_list_stream,
    workload_source,
    workload_stats,
)

__all__ = ["REFERENCE_CHUNK_SIZE", "Cell", "cell_fingerprint", "run_cell"]

#: The differential oracle's reference plane: one edge per block, the
#: item-at-a-time order of the retired token path (whose outputs
#: ``tests/golden/token_reference.json`` pins this plane to).
REFERENCE_CHUNK_SIZE = 1


@dataclass(frozen=True)
class Cell:
    """Coordinates of one verification run.

    ``chunk_size`` is the block size of the cell's source (a lazy
    :class:`GeneratorSource`, or a materialized source for list-coloring
    inputs); the default is the differential reference plane.
    """

    algorithm: str
    family: str
    order: str = "insertion"
    n: int = 64
    seed: int = 0
    chunk_size: int = REFERENCE_CHUNK_SIZE


def run_cell(cell: Cell, registry=None, keep_coloring: bool = False,
             config: dict | None = None):
    """Run one cell with the guarantee oracle on; returns the result.

    The instance's ``delta`` is the workload's true max degree (floored at
    1), so the oracles are evaluated at the tightest parameterization the
    paper's statements allow.  Algorithms without a properness guarantee
    run with ``validate=False`` (properness measured, not raised).
    """
    registry = registry if registry is not None else REGISTRY
    entry = registry.get(cell.algorithm)
    n_actual, delta, _ = workload_stats(cell.family, cell.n, cell.seed)
    if entry.needs_lists:
        # The stream's list tokens must be drawn from the same universe
        # the algorithm is configured for (mirrors runner._build_stream).
        stream, universe = workload_list_stream(
            cell.family, cell.n, order=cell.order, seed=cell.seed,
            universe=(config or {}).get("universe"),
        )
        stream = stream.as_source(cell.chunk_size)
    else:
        stream = workload_source(
            cell.family, cell.n, order=cell.order, seed=cell.seed,
            chunk_size=cell.chunk_size,
        )
    proper_guaranteed = entry.guarantee.proper if entry.guarantee else True
    spec = RunSpec(
        algorithm=cell.algorithm,
        n=n_actual,
        delta=delta,
        seed=cell.seed,
        config=dict(config or {}),
        verify=True,
        validate=proper_guaranteed,
        keep_coloring=keep_coloring,
        tags={"family": cell.family, "order": cell.order,
              "chunk_size": cell.chunk_size},
    )
    return run(spec, stream, registry=registry)


def cell_fingerprint(result) -> tuple:
    """Everything observable about a run except measured wall times."""
    return (
        result.coloring,
        result.colors_used,
        result.palette_bound,
        result.passes,
        result.peak_space_bits,
        result.random_bits,
        result.proper,
    )
