"""The verification sweep: registry × workload zoo × orders × chunk sizes.

For every registered algorithm and every zoo cell the sweep runs the
differential oracle (chunk_size=1 reference vs every chunk size) with the
guarantee oracle enabled on each run, then layers the metamorphic properties (seed
determinism, declared order invariance, subsample stability) once per
(algorithm, family).  The result is a flat list of verdict rows plus a
list of human-readable violations; ``repro verify`` turns a non-empty
violation list into exit code 2.
"""

from dataclasses import dataclass

from repro.common.exceptions import ReproError
from repro.engine import REGISTRY
from repro.graph.zoo import ZOO_FAMILIES, ZOO_ORDERS
from repro.verify.cells import Cell, run_cell
from repro.verify.differential import differential_check
from repro.verify.metamorphic import (
    check_order_invariance,
    check_seed_determinism,
    check_subsample_stability,
)

__all__ = ["DEFAULT_CHUNK_SIZES", "DEFAULT_ORDERS", "SweepReport",
           "run_cell", "verify_sweep"]

#: Sweep defaults: every zoo order except the canonical one (which is the
#: differential reference inside metamorphic checks), two chunk sizes
#: bracketing "many small blocks" and "one big block".
DEFAULT_ORDERS = ("random", "degree_sorted", "bfs", "adversarial")
DEFAULT_CHUNK_SIZES = (64, 4096)

#: Instance-size caps per algorithm: the deterministic list-coloring
#: stage machinery is O(universe^3) per partition-family table, so its
#: near-star cells (Delta = n - 1) stay small; everything else runs at
#: the sweep's requested n.
_N_CAPS = {"list_coloring": 40, "deterministic": 72}


@dataclass
class SweepReport:
    """Everything the sweep observed, plus the violation roll-up."""

    rows: list  # one dict per (cell, data plane) run
    violations: list  # human-readable violation strings
    cells: int
    runs: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def table(self) -> tuple[list[str], list[list]]:
        """``(headers, rows)`` for the CLI's verdict table (one row per
        algorithm × family, worst-case over orders and chunk sizes)."""
        headers = ["algorithm", "family", "n", "delta", "runs",
                   "max_colors", "max_passes", "ok"]
        grouped: dict[tuple, dict] = {}
        for row in self.rows:
            key = (row["algorithm"], row["family"])
            g = grouped.setdefault(key, {
                "n": row["n"], "delta": row["delta"], "runs": 0,
                "max_colors": 0, "max_passes": 0, "ok": True,
            })
            g["runs"] += 1
            g["max_colors"] = max(g["max_colors"], row["colors_used"])
            g["max_passes"] = max(g["max_passes"], row["passes"])
            g["ok"] = g["ok"] and row["ok"]
        return headers, [
            [algo, family, g["n"], g["delta"], g["runs"], g["max_colors"],
             g["max_passes"], g["ok"]]
            for (algo, family), g in sorted(grouped.items())
        ]


def _validated(kind: str, requested, valid) -> tuple:
    if requested is None:
        return tuple(valid)
    requested = tuple(requested)
    unknown = [x for x in requested if x not in valid]
    if unknown:
        raise ReproError(
            f"unknown {kind} {unknown[0]!r}; valid: {sorted(valid)}"
        )
    if not requested:
        raise ReproError(f"empty {kind} selection")
    return requested


def verify_sweep(
    algorithms=None,
    families=None,
    orders=None,
    chunk_sizes=None,
    n: int = 64,
    seed: int = 0,
    registry=None,
    metamorphic: bool = True,
) -> SweepReport:
    """Run the full verification grid; never raises on violations.

    ``None`` selections mean "everything": all registered algorithms, all
    zoo families, the four non-canonical orders, both default chunk
    sizes.  Guarantee violations, differential divergences, and
    metamorphic failures all land in ``report.violations``.
    """
    registry = registry if registry is not None else REGISTRY
    algorithms = _validated("algorithm", algorithms, registry.names())
    families = _validated("family", families, list(ZOO_FAMILIES))
    orders = _validated("order", orders, ZOO_ORDERS)
    if chunk_sizes is None:
        chunk_sizes = DEFAULT_CHUNK_SIZES
    chunk_sizes = tuple(int(c) for c in chunk_sizes)
    if not chunk_sizes or any(c < 1 for c in chunk_sizes):
        raise ReproError(
            f"chunk sizes must be a non-empty list of positive ints, "
            f"got {list(chunk_sizes)}"
        )

    rows: list[dict] = []
    violations: list[str] = []
    cells = runs = 0
    for algo in algorithms:
        cell_n = min(n, _N_CAPS.get(algo, n))
        for family in families:
            for order in orders:
                cells += 1
                cell = Cell(algorithm=algo, family=family, order=order,
                            n=cell_n, seed=seed)
                diff = differential_check(
                    cell, chunk_sizes=chunk_sizes, registry=registry
                )
                violations.extend(diff.describe())
                for chunk, result in diff.results.items():
                    runs += 1
                    report = result.extras.get("guarantees")
                    ok = report is None or report["ok"]
                    rows.append({
                        "algorithm": algo, "family": family, "order": order,
                        "chunk_size": chunk, "n": result.n,
                        "delta": result.delta,
                        "colors_used": result.colors_used,
                        "passes": result.passes,
                        "peak_space_bits": result.peak_space_bits,
                        "random_bits": result.random_bits,
                        "ok": ok and diff.ok,
                    })
                    if report is not None and not report["ok"]:
                        for check in report["checks"]:
                            if not check["ok"]:
                                violations.append(
                                    f"{algo}/{family}/{order}/"
                                    f"chunk={chunk}: {check['name']} "
                                    f"observed {check['observed']} > bound "
                                    f"{check['bound']} ({check['claim']})"
                                )
            if metamorphic:
                meta_cell = Cell(algorithm=algo, family=family,
                                 order="random", n=cell_n, seed=seed,
                                 chunk_size=chunk_sizes[0])
                violations.extend(
                    check_seed_determinism(meta_cell, registry=registry)
                )
                violations.extend(check_order_invariance(
                    meta_cell, orders, registry=registry
                ))
                violations.extend(
                    check_subsample_stability(meta_cell, registry=registry)
                )
    return SweepReport(rows=rows, violations=violations,
                       cells=cells, runs=runs)
