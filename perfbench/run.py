"""The repository benchmark: four user workloads, end to end and per layer.

Run one workload (what ``BENCHMARK.json``'s command does)::

    python3 perfbench/run.py --workload multipass_paper --seed 0 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed,
scaled to reference machine speed (see ``calibrate.py``).
``--trace 1`` runs an untraced phase and then a traced phase of
``--seconds / 2`` each over the same op sequence, and reports the
per-layer metrics plus the tracing overhead (traced / untraced op time).

Run everything (each workload in its own process, untraced and traced)::

    python3 perfbench/run.py --all --seed 0 --seconds 25

Every run appends one row to ``perfbench/results/run_table.csv`` and a
traced run writes its spans to ``perfbench/results/spans_<workload>.jsonl``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--make-golden`` regenerates
``golden.json`` (default seed, both profiles); ``--smoke`` selects the
self-test sizes.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
DEFAULT_SEED = 0
SETUP_REPEATS = 9
SETUP_CALIBRATION_S = 0.25  # calibrate at least this long after each set-up

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("edges_per_s", "edges/s"),
    ("op_ms_p50", "ms"), ("op_ms_p95", "ms"), ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
]
# Printed and recorded in the run table, but not declared in
# BENCHMARK.json: fail_rate is 0 on a healthy tree, the bound ratios do
# not exist for every workload (cgs22 declares no color bound), and
# speed_factor (reference-speed seconds per measured second) turns the
# scaled times back into wall-clock ones.
REPORTED = [
    ("fail_rate", "ratio"), ("speed_factor", "ratio"), ("colors_over_bound", "ratio"),
    ("passes_over_bound", "ratio"), ("space_over_bound", "ratio"),
]
SERVICE_OPS = ("create", "feed", "finalize", "checkpoint", "drop")
PER_LAYER = [
    ("graph.generate_s", "s"), ("streaming.write_s", "s"),
    ("streaming.open_s", "s/op"),
    ("streaming.scan_s", "s/op"), ("streaming.passes", "count/op"),
    ("streaming.items", "count/op"),
    ("core.selector_s", "s/op"), ("core.selector_calls", "count/op"),
    ("core.block_s", "s/op"), ("core.query_s", "s/op"), ("core.self_s", "s/op"),
    ("kernels.dispatch_s", "s/op"), ("kernels.calls", "count/op"),
    ("engine.run_s", "s/op"), ("engine.validate_s", "s/op"),
    ("engine.overhead_s", "s/op"), ("verify.guarantees_s", "s/op"),
    ("persist.write_s", "s/op"), ("persist.writes", "count/op"),
    ("persist.bytes_written", "B/op"), ("persist.read_s", "s/op"),
    ("persist.reads", "count/op"), ("persist.codec_s", "s/op"),
    *[(f"service.rtt_ms_p50.{op}", "ms") for op in SERVICE_OPS],
    ("service.dispatch_s", "s/op"), ("service.wait_s", "s/op"),
    ("service.codec_s", "s/op"), ("service.wire_bytes", "B/op"),
    ("service.feed_s", "s/op"), ("service.finalize_s", "s/op"),
    ("service.requests", "count/op"), ("service.evictions", "count/op"),
    ("service.restores", "count/op"), ("service.busy_retries", "count/op"),
    ("trace.overhead", "ratio"), ("trace.coverage", "ratio"),
    ("trace.ops", "count"),
]
UNITS = dict(END_TO_END + REPORTED + PER_LAYER)


def _import_program() -> None:
    """Make ``src/`` importable; fail (exit 2) where the program is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write(f"perfbench: no program sources under {src}\n")
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def git_sha() -> str:
    try:
        # The ceiling keeps git from searching directories above the checkout.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# one workload, one process
# ---------------------------------------------------------------------------
def run_workload(args) -> dict:
    from calibrate import Calibrator
    from checks import OpChecker, load_golden
    from tracer import Tracer, install
    from workloads import WORKLOADS

    profile = "smoke" if args.smoke else "full"
    workdir = os.path.join(RESULTS, f"work_{args.workload}_{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, profile, workdir)
    checker = OpChecker(load_golden(args.golden, profile, args.workload, args.seed))
    setup_tracer = Tracer() if args.trace else None
    calibrator = Calibrator()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            wl.reset()
            gc.collect()  # no collection left over from the last set-up
            if setup_tracer is not None:
                install(setup_tracer)
            with setup_tracer.root("setup", "setup") if setup_tracer else nullcontext():
                start = time.perf_counter()
                wl.setup()
                end = time.perf_counter()
            if setup_tracer is not None:
                setup_tracer.uninstall()
            calibrator.sample(max(end - start, SETUP_CALIBRATION_S))
            setup_times.append((start, end))
        wl.warmup()

        check_cpu = [0.0]

        def check(record):
            cpu_start = time.process_time()
            if record["index"] == args.inject_fail and record.get("coloring"):
                record["coloring"] = dict(record["coloring"])
                record["coloring"].popitem()  # the injected failure
            checker.check(record, wl.refs[record["slot"]])
            record["end"] = time.perf_counter()
            calibrator.sample(record["t_s"])
            check_cpu[0] += time.process_time() - cpu_start

        phase = args.seconds / 2 if args.trace else args.seconds
        cpu0 = time.process_time()
        records, wall = wl.run_ops(seconds=phase, on_op=check)
        cpu = time.process_time() - cpu0 - check_cpu[0]
        out = {"records": records, "wall": wall, "cpu": cpu,
               "setup_times": setup_times, "group": wl.group}
        if args.trace:
            tracer = Tracer()
            before = wl.counters()
            wl.tracer = install(tracer)
            try:
                traced, _ = wl.run_ops(seconds=phase, on_op=check)
            finally:
                wl.tracer = None
                tracer.uninstall()
            after = wl.counters()
            out.update(traced=traced, tracer=tracer,
                       setup_tracer=setup_tracer,
                       counter_delta={k: after[k] - before[k] for k in after})
        # Times at reference speed, each scaled by the calibration around it.
        out["speed_factor"] = calibrator.factor()
        out["setup_times"] = [(end - start) * calibrator.factor(start, end)
                              for start, end in setup_times]
        for r in out["records"]:
            r["t_ref_s"] = r["t_s"] * calibrator.factor(r["end"] - r["t_s"], r["end"])
    finally:
        calibrator.close()
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    every = out["records"] + out.get("traced", [])
    out["failures"] = checker.failures
    out["tracebacks"] = checker.tracebacks
    out["attempted"] = len(every)
    out["failed"] = sum(1 for r in every if not r["ok"])
    out["bounds"] = {k: v for k, v in checker.worst.items() if v > 0}
    out["backends"] = sorted({r["summary"]["stream_backend"] for r in every
                              if r.get("summary")} - {None})
    out["tiers"] = sorted({r["summary"]["kernel_tier"] for r in every
                           if r.get("summary")} - {None})
    return out


def end_to_end_metrics(out: dict) -> dict:
    """End-to-end metrics, every time scaled to reference machine speed."""
    records = out["records"]
    scale = out["speed_factor"]
    group = out["group"]
    times = [sum(r["t_ref_s"] for r in records[i:i + group])
             for i in range(0, len(records), group)]
    return {
        "setup_s": statistics.median(out["setup_times"]),
        "ops_per_s": len(times) / (scale * out["wall"]),
        "edges_per_s": sum(r["edges"] for r in records) / sum(times),
        "op_ms_p50": 1000 * statistics.median(times),
        "op_ms_p95": 1000 * statistics.quantiles(times, n=20, method="inclusive")[-1],
        "cpu_s_per_op": scale * out["cpu"] / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def reported_metrics(out: dict) -> dict:
    metrics = {"fail_rate": out["failed"] / out["attempted"],
               "speed_factor": out["speed_factor"]}
    for check, name in (("colors", "colors_over_bound"),
                        ("passes", "passes_over_bound"),
                        ("space_bits", "space_over_bound")):
        if check in out["bounds"]:
            metrics[name] = out["bounds"][check]
    return metrics


def per_layer_metrics(out: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced phase, plus the attribution table."""
    from tracer import summarize

    tracer, traced = out["tracer"], out["traced"]
    ops = len(traced)
    summary = summarize(tracer.spans, {r["index"] for r in traced})
    setup = summarize(out["setup_tracer"].spans, {"setup"})
    own, incl, counts = summary["self"], summary["inclusive"], tracer.counts
    calls, kernel_s = tracer.kernel_totals()
    delta = out["counter_delta"]

    def per_op(value):
        return value / ops

    untraced = {r["index"]: r["t_s"] for r in out["records"]}
    matched = [r for r in traced if r["index"] in untraced]
    overhead = (sum(r["t_s"] for r in matched)
                / sum(untraced[r["index"]] for r in matched)) if matched else 1.0
    metrics = {
        "graph.generate_s": setup["self"].get("graph.generate", 0.0) / SETUP_REPEATS,
        "streaming.write_s": setup["self"].get("streaming.write", 0.0) / SETUP_REPEATS,
        "streaming.open_s": per_op(own.get("streaming.open", 0.0)),
        "streaming.scan_s": per_op(summary["scan_s"]),
        "streaming.passes": per_op(counts.get("streaming.passes", 0)),
        "streaming.items": per_op(counts.get("streaming.items", 0)),
        "core.selector_s": per_op(own.get("core.selector", 0.0)),
        "core.selector_calls": per_op(counts.get("core.selector_calls", 0)),
        "core.block_s": per_op(own.get("core.block", 0.0)),
        "core.query_s": per_op(own.get("core.query", 0.0)),
        "core.self_s": per_op(own.get("core.self", 0.0)),
        "kernels.dispatch_s": per_op(kernel_s),
        "kernels.calls": per_op(calls),
        "engine.run_s": per_op(incl.get("engine.run", 0.0)),
        "engine.validate_s": per_op(own.get("engine.validate", 0.0)),
        "engine.overhead_s": per_op(own.get("engine.run", 0.0)),
        "verify.guarantees_s": per_op(own.get("verify.guarantees", 0.0)),
        "persist.write_s": per_op(own.get("persist.write", 0.0)),
        "persist.writes": per_op(counts.get("persist.writes", 0)),
        "persist.bytes_written": per_op(counts.get("persist.bytes_written", 0)),
        "persist.read_s": per_op(own.get("persist.read", 0.0)),
        "persist.reads": per_op(counts.get("persist.reads", 0)),
        "persist.codec_s": per_op(own.get("persist.codec", 0.0)),
        **{
            f"service.rtt_ms_p50.{op}": (
                1000 * statistics.median(summary["rtt"][op])
                if op in summary["rtt"] else 0.0)
            for op in SERVICE_OPS
        },
        "service.dispatch_s": per_op(incl.get("ColoringService.dispatch", 0.0)),
        "service.wait_s": per_op(own.get("service.request", 0.0)),
        "service.codec_s": per_op(own.get("service.codec", 0.0)),
        "service.wire_bytes": per_op(counts.get("service.wire_bytes", 0)),
        "service.feed_s": per_op(own.get("service.feed", 0.0)),
        "service.finalize_s": per_op(own.get("service.finalize", 0.0)),
        "service.requests": per_op(counts.get("service.requests", 0)),
        "service.evictions": per_op(delta.get("evictions", 0)),
        "service.restores": per_op(delta.get("restores", 0)),
        "service.busy_retries": per_op(delta.get("busy_retries", 0)),
        "trace.overhead": overhead,
        "trace.coverage": 1 - summary["root_self_s"] / summary["root_s"],
        "trace.ops": ops,
    }
    return metrics, attribution(tracer, traced)


def attribution(tracer, traced) -> dict:
    """Self time per layer as a share of op time, overall and per op kind."""
    from tracer import summarize

    table = {}
    kinds = sorted({r["kind"] for r in traced})
    for kind in ["all", *kinds] if len(kinds) > 1 else ["all"]:
        ops = {r["index"] for r in traced if kind in ("all", r["kind"])}
        summary = summarize(tracer.spans, ops)
        total = summary["root_s"] or 1.0
        shares = {layer: t / total for layer, t in summary["self"].items()}
        shares["streaming.scan"] = summary["scan_s"] / total
        shares["kernels"] = summary["kernel_s"] / total
        shares["(unattributed)"] = summary["root_self_s"] / total
        table[kind] = {
            "op_ms_mean": 1000 * summary["root_s"] / max(1, len(ops)),
            "shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        }
    return table


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------
def append_run_table(args, out: dict, metrics: dict) -> None:
    """One mubench-style row per (workload, repetition, traced/untraced)."""
    from repro.obs.sysinfo import host_metadata

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "run_table.csv")
    names = [name for name, _ in END_TO_END + REPORTED + PER_LAYER]
    header = ["workload", "repetition", "traced", "seed", "profile", "seconds",
              "ops", "failed", "git_sha", "kernel_tier", "stream_backend",
              "host", *[f"{n} [{UNITS[n]}]" for n in names]]
    rows = []
    if os.path.exists(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != header:
            os.replace(path, path + ".old")
            rows = []
    repetition = 1 + sum(1 for row in rows[1:]
                         if row[0] == args.workload and row[2] == str(args.trace))
    row = [args.workload, repetition, args.trace, args.seed,
           "smoke" if args.smoke else "full", args.seconds, out["attempted"],
           out["failed"], git_sha(), "+".join(out["tiers"]),
           "+".join(out["backends"]), json.dumps(host_metadata(), sort_keys=True),
           *[metrics.get(n, "") for n in names]]
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if not rows:
            writer.writerow(header)
        writer.writerow(row)


def print_metrics(title: str, metrics: dict, samples: dict) -> None:
    print(title)
    for name, value in metrics.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<30} {value:>16.6g} {UNITS[name]}{note}")


def single(args) -> int:
    out = run_workload(args)
    reported = reported_metrics(out)
    ops = len(out["records"]) // out["group"]
    print(f"workload {args.workload}: seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {out['attempted']} ops, "
          f"{out['failed']} failed; backends {out['backends']}, "
          f"kernel tier {out['tiers']}")
    for failure in out["failures"][:10]:
        print(f"  FAIL {failure}")
    if out["tracebacks"]:
        print(out["tracebacks"][0])
    if args.trace:
        metrics, table = per_layer_metrics(out)
        print_metrics("per-layer metrics (traced phase)", metrics,
                      {"trace.overhead": len(out["traced"])})
        for kind, row in table.items():
            print(f"attribution [{kind}] mean op {row['op_ms_mean']:.3f} ms")
            for layer, share in row["shares"].items():
                if share >= 0.001:
                    print(f"  {layer:<30} {100 * share:6.2f} %")
        out["tracer"].dump(os.path.join(RESULTS, f"spans_{args.workload}.jsonl"))
    else:
        metrics = end_to_end_metrics(out)
        print_metrics("end-to-end metrics (at reference speed)", metrics,
                      {"op_ms_p50": ops, "op_ms_p95": ops,
                       "setup_s": SETUP_REPEATS})
    print_metrics("also reported", reported, {})
    append_run_table(args, out, {**metrics, **reported})
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    results = {}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            rate = result["failed"] / result["attempted"]
            cells = results.setdefault("fail_rate", {})
            cells[name] = max(rate, cells.get(name, 0.0))
            for metric, cell in result["metrics"].items():
                results.setdefault(metric, {})[name] = cell["value"]
    names = list(WORKLOADS)
    print("\nsummary (" + ", ".join(names) + ")")
    for metric, cells in results.items():
        values = "  ".join(f"{cells.get(n, float('nan')):>12.5g}" for n in names)
        print(f"  {metric:<30} {UNITS[metric]:<9} {values}")
    return 0 if ok else 1


def make_golden(args) -> int:
    """Fingerprint every input slot of every workload (default seed)."""
    from checks import GOLDEN_PATH, OpChecker
    from workloads import PROFILES, WORKLOADS

    golden = {"seed": DEFAULT_SEED, "profiles": {}}
    for profile in PROFILES:
        golden["profiles"][profile] = {}
        for name, cls in WORKLOADS.items():
            workdir = os.path.join(RESULTS, f"work_golden_{os.getpid()}")
            os.makedirs(workdir, exist_ok=True)
            wl = cls(DEFAULT_SEED, profile, workdir)
            checker = OpChecker(None)
            try:
                wl.setup()
                records, _ = wl.run_ops(
                    count=wl.slots,
                    on_op=lambda r, wl=wl, checker=checker: checker.check(
                        r, wl.refs[r["slot"]]))
            finally:
                wl.close()
                shutil.rmtree(workdir, ignore_errors=True)
            if checker.failures:
                print("\n".join(checker.failures), file=sys.stderr)
                return 1
            golden["profiles"][profile][name] = [r["fingerprint"] for r in records]
            print(f"{profile}/{name}: {len(records)} fingerprints")
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizes instead of the benchmark sizes")
    parser.add_argument("--golden", help="golden fingerprint file to check against")
    parser.add_argument("--inject-fail", type=int, default=None,
                        help="corrupt the coloring of this op index (self-test)")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--make-golden", action="store_true")
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.make_golden:
        return make_golden(args)
    if args.all:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
