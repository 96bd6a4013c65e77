"""Self-tests of the benchmark at smoke size.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q`` from the
repository root.  They check that every metric ``BENCHMARK.json``
declares is emitted with its unit on every workload, untraced and
traced; that a tampered golden fingerprint and an injected failing op
both count as failures; that the benchmark refuses to run without the
program sources; and that ``BENCHMARK.json`` stays inside its format.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def fail_rate(output: str) -> float:
    """The ``fail_rate`` the benchmark printed."""
    line = next(ln for ln in output.splitlines() if ln.split()[:1] == ["fail_rate"])
    return float(line.split()[1])


def bench(*args, cwd=ROOT, script=RUN):
    """Run the benchmark at smoke size; return (exit code, last JSON, stdout)."""
    proc = subprocess.run(
        [sys.executable, script, "--smoke", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    code, result, output = bench("--workload", workload, "--trace", trace)
    assert code == 0, output
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, output
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert isinstance(cell["value"], int | float)
        if trace == "0":
            assert cell["value"] > 0, metric["name"]


def test_traced_run_attributes_persist_to_the_suspend_workload():
    _, suspend, _ = bench("--workload", "service_suspend", "--trace", "1")
    _, sessions, _ = bench("--workload", "service_sessions", "--trace", "1")
    for name in ("persist.writes", "persist.reads"):
        assert suspend["metrics"][name]["value"] == 1.0
        assert sessions["metrics"][name]["value"] == 0.0


def test_tampered_golden_fingerprint_counts_as_failure(tmp_path):
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    fingerprints = golden["profiles"]["smoke"]["service_sessions"]
    fingerprints[0] = "0" * len(fingerprints[0])
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden))
    code, result, output = bench("--workload", "service_sessions", "--trace", "0",
                                 "--golden", str(tampered))
    assert code == 0, output
    assert result["failed"] > 0 and not result["correct"]
    assert fail_rate(output) > 0 and "golden" in output


def test_untampered_golden_passes_on_the_default_seed():
    code, result, output = bench("--workload", "service_sessions", "--trace", "0",
                                 "--seed", "0")
    assert code == 0 and result["correct"], output


def test_injected_failing_op_counts_as_failure():
    code, result, output = bench("--workload", "multipass_paper", "--trace", "0",
                                 "--inject-fail", "0")
    assert code == 0, output
    assert result["failed"] == 1 and not result["correct"]
    assert fail_rate(output) > 0 and "not total" in output


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, result, _ = bench("--workload", WORKLOADS[0], "--trace", "0",
                            cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert code != 0 and result is None


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
