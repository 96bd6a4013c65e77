"""The differential oracle: all chunk sizes must agree bit for bit.

Every registered algorithm produces identical colorings, pass counts,
space charges, and randomness draws at every chunk size.  This module
turns that property into a reusable oracle: run one verification cell on
the reference plane (``chunk_size=1``, one edge per block — the plane the
golden corpus ``tests/golden/token_reference.json`` pins to the retired
token-at-a-time implementation) and on each requested chunk size, and
report any field-level divergence.
"""

from dataclasses import dataclass, replace

from repro.verify.cells import (
    REFERENCE_CHUNK_SIZE,
    Cell,
    cell_fingerprint,
    run_cell,
)

__all__ = ["DifferentialReport", "differential_check"]

_FIELDS = (
    "coloring", "colors_used", "palette_bound", "passes",
    "peak_space_bits", "random_bits", "proper",
)


@dataclass
class DifferentialReport:
    """Outcome of one differential comparison."""

    cell: Cell
    chunk_sizes: tuple
    mismatches: list  # (chunk_size, field, reference_value, block_value)
    results: dict  # chunk_size (REFERENCE_CHUNK_SIZE first) -> ColoringResult

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> list[str]:
        return [
            f"{self.cell.algorithm}/{self.cell.family}/{self.cell.order} "
            f"chunk={chunk}: {field} diverged from the chunk_size="
            f"{REFERENCE_CHUNK_SIZE} reference ({reference!r} vs {block!r})"
            for chunk, field, reference, block in self.mismatches
        ]


def differential_check(
    cell: Cell,
    chunk_sizes=(64, 4096),
    registry=None,
    config: dict | None = None,
) -> DifferentialReport:
    """Run a cell on the reference plane + every chunk size; compare all
    result fields.

    The ``chunk_size=1`` run is the reference (a requested chunk size of
    1 reuses it).  Colorings are compared exactly, so the check subsumes
    palette/properness agreement; wall times are the only excluded fields.
    """
    reference = run_cell(
        replace(cell, chunk_size=REFERENCE_CHUNK_SIZE), registry=registry,
        keep_coloring=True, config=config,
    )
    ref_print = cell_fingerprint(reference)
    results = {REFERENCE_CHUNK_SIZE: reference}
    mismatches = []
    for chunk in chunk_sizes:
        if chunk in results:
            continue
        block = run_cell(
            replace(cell, chunk_size=chunk), registry=registry,
            keep_coloring=True, config=config,
        )
        results[chunk] = block
        block_print = cell_fingerprint(block)
        for field_name, ref_val, block_val in zip(
            _FIELDS, ref_print, block_print
        ):
            if ref_val != block_val:
                summary = (
                    "<coloring>" if field_name == "coloring" else ref_val,
                    "<coloring>" if field_name == "coloring" else block_val,
                )
                mismatches.append((chunk, field_name, *summary))
    return DifferentialReport(
        cell=cell, chunk_sizes=tuple(chunk_sizes),
        mismatches=mismatches, results=results,
    )
