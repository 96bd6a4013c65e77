"""Correctness checks the benchmark makes on every op, independently of
the engine's own validation.

* the coloring is total (every vertex ``0..n-1`` has a color) and proper
  against the benchmark's own copy of the input edges; for list coloring
  every color also lies in its vertex's list;
* the guarantee report the run attached is ``ok``;
* the op's fingerprint (``colors_used``, ``passes``, ``peak_space_bits``,
  ``random_bits`` and a hash of the coloring) equals the one an earlier
  op on the same input gave in this run, and — for the default seed —
  the committed golden value in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def coloring_vector(n: int, coloring: dict) -> np.ndarray | None:
    """Colors in vertex order, or None when some vertex has no color."""
    if coloring is None or len(coloring) != n:
        return None
    colors = np.empty(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for vertex, color in coloring.items():
        v = int(vertex)
        if not 0 <= v < n or color is None:
            return None
        colors[v] = int(color)
        seen[v] = True
    return colors if bool(seen.all()) else None


def coloring_problems(colors: np.ndarray, edges: np.ndarray,
                      lists: dict | None = None) -> list[str]:
    """Why total ``colors`` is not a proper (list) coloring of the input."""
    problems = []
    if len(edges):
        clash = colors[edges[:, 0]] == colors[edges[:, 1]]
        if bool(clash.any()):
            u, v = edges[int(np.argmax(clash))]
            problems.append(f"edge ({int(u)}, {int(v)}) is monochromatic")
    if lists is not None:
        for vertex, allowed in lists.items():
            if int(colors[vertex]) not in allowed:
                problems.append(f"vertex {vertex} colored outside its list")
                break
    return problems


def fingerprint(summary: dict, colors: np.ndarray) -> str:
    """Stable hash of an op's result: statistics plus the coloring."""
    digest = hashlib.sha256(json.dumps([
        summary["colors_used"], summary["passes"],
        summary["peak_space_bits"], summary["random_bits"],
    ]).encode())
    digest.update(np.ascontiguousarray(colors, dtype="<i8").tobytes())
    return digest.hexdigest()[:16]


def load_golden(path: str | None, profile: str, workload: str, seed: int):
    """Golden fingerprints (list indexed by input slot) or None."""
    path = path or GOLDEN_PATH
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        golden = json.load(fh)
    if golden.get("seed") != seed:
        return None
    return golden.get("profiles", {}).get(profile, {}).get(workload)


class OpChecker:
    """Checks ops as they finish and counts the failures."""

    def __init__(self, golden: list | None):
        self.golden = golden
        self.seen: dict[int, str] = {}
        self.failures: list[str] = []
        self.tracebacks: list[str] = []
        # Largest observed/bound ratio per guarantee check over the ops.
        self.worst = {"colors": 0.0, "passes": 0.0, "space_bits": 0.0}

    def check(self, record: dict, ref: dict) -> bool:
        """Check one op record against its input; returns True when clean."""
        problems = []
        colors = None
        if record.get("error"):
            # The last traceback line names the exception; the whole
            # traceback is printed with the failure list.
            problems.append(record["error"].strip().splitlines()[-1])
            self.tracebacks.append(record["error"])
        else:
            colors = coloring_vector(ref["n"], record["coloring"])
            if colors is None:
                problems.append("coloring is not total")
            else:
                problems.extend(coloring_problems(colors, ref["edges"], ref.get("lists")))
            report = record["summary"].get("guarantees")
            if not report or not report.get("ok"):
                problems.append("guarantee report is not ok")
            if not problems:
                fp = fingerprint(record["summary"], colors)
                record["fingerprint"] = fp
                slot = record["slot"]
                if self.seen.setdefault(slot, fp) != fp:
                    problems.append(f"slot {slot} fingerprint changed within the run")
                expected = self.golden[slot] if self.golden else None
                if expected is not None and expected != fp:
                    problems.append(f"slot {slot} fingerprint {fp} != golden {expected}")
        report = record.get("summary", {}).pop("guarantees", None) or {}
        for check in report.get("checks", []):
            if check["name"] in self.worst and check["bound"]:
                ratio = check["observed"] / check["bound"]
                self.worst[check["name"]] = max(self.worst[check["name"]], ratio)
        # Keep records small once checked, so memory does not grow with
        # the number of ops a run completes.
        record.pop("coloring", None)
        if problems:
            self.failures.append(f"op {record['index']}: {'; '.join(problems)}")
        record["ok"] = not problems
        return not problems
