"""repro.verify — the guarantee-verification subsystem.

Three layers, all built on the engine's single :func:`repro.engine.run`
entry point:

- **Guarantee oracles** (:mod:`repro.engine.guarantees`, declared per
  entry in the registry): machine-checkable forms of each theorem's
  palette / pass / space / randomness claims, evaluated on every result
  when ``RunSpec.verify`` is set.
- **Differential checks** (:mod:`repro.verify.differential`): every
  block backend/chunk size must be observably identical to the
  ``chunk_size=1`` reference — same coloring, passes, peak space, random
  bits.
- **Metamorphic properties** (:mod:`repro.verify.metamorphic`): seed
  determinism, stream-order invariance where the paper promises it, and
  guarantee stability under edge subsampling.

:func:`repro.verify.sweep.verify_sweep` drives all three across the
workload zoo (:mod:`repro.graph.zoo`) for every registered algorithm;
the ``repro verify`` CLI subcommand is its command-line face (exit 2 on
any violation).
"""

from repro.engine.guarantees import (
    GuaranteeCheck,
    GuaranteeReport,
    GuaranteeSpec,
    evaluate_guarantees,
)
from repro.verify.cells import Cell, cell_fingerprint
from repro.verify.differential import DifferentialReport, differential_check
from repro.verify.metamorphic import (
    check_order_invariance,
    check_seed_determinism,
    check_subsample_stability,
)
from repro.verify.sweep import SweepReport, run_cell, verify_sweep

__all__ = [
    "Cell",
    "DifferentialReport",
    "GuaranteeCheck",
    "GuaranteeReport",
    "GuaranteeSpec",
    "SweepReport",
    "cell_fingerprint",
    "check_order_invariance",
    "check_seed_determinism",
    "check_subsample_stability",
    "differential_check",
    "evaluate_guarantees",
    "run_cell",
    "verify_sweep",
]
