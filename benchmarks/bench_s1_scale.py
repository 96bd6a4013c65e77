"""S1 — scalability: larger-n regimes plus block-data-plane throughput.

Two historical legs pin down what the engine sustains end to end (the
deterministic algorithm at n=1024, the robust algorithm under adaptive
pressure at n=2048).  The throughput sweep then runs EVERY registered
algorithm on its block backend, recording edges/sec over the streaming
passes; every run must satisfy its declared guarantee report, and every
algorithm except the ``naive`` strawman must output a proper coloring.

Each sweep case additionally records the resolved ``kernel_tier`` and the
per-kernel dispatch totals (calls + seconds, via ``measure_kernels``), and
when numba is importable a compiled-tier leg re-runs the flagship cases
under ``kernel_tier="compiled"`` vs the numpy reference — bit-identical
results required, with wall-clock floors (≥5x deterministic, ≥2x robust
and list_coloring).  ``BENCH_S1_SMOKE=1`` shrinks the sweep for CI's
``kernels`` job; the compiled leg keeps full sizes either way (the
compiled tier is what makes them cheap, and the floors are meaningless at
toy sizes).  The sharded scale leg streams an out-of-core circulant
workload (default n=10^6 / m=10^7, ``BENCH_S1_FULL`` for 10^7 / 10^8)
from a multi-shard container, gates peak RSS against a declared
per-algorithm budget, and requires bit-identity against a single-file
run of the same edges.  The numbers land both in the usual text table
and in the machine-readable ``BENCH_s1_scale.json`` artifact that CI
uploads (and checks for completeness against the registry).
"""

import os
import tempfile
import time

from conftest import run_once

from repro.engine import REGISTRY, GameSpec, RunSpec, run, run_game
from repro.graph.zoo import circulant_edge_blocks, write_zoo_shards
from repro.kernels import compiled_available, measure_kernels
# The sampler lives in repro.obs.sysinfo so serve metrics, the obs
# overhead gate, and this bench all read VmRSS the same way.
from repro.obs.sysinfo import RssSampler as _RssSampler
from repro.obs.sysinfo import rss_bytes as _rss_bytes
from repro.streaming import FileSource, ShardedFileSource, write_edge_file

#: CI's ``kernels`` job sets this to keep the sweep quick (sizes shrink).
SMOKE = bool(os.environ.get("BENCH_S1_SMOKE"))

THROUGHPUT_N = 512 if SMOKE else 16384
THROUGHPUT_DELTA = 24

#: One throughput case per registered algorithm:
#: (algorithm, n, delta, config, block backend, graph family).
THROUGHPUT_CASES = [
    ("deterministic", THROUGHPUT_N, THROUGHPUT_DELTA,
     {"selection": "greedy_slack"}, "materialized", "random_max_degree"),
    ("list_coloring", 160, 6, {"prime_policy": "scaled"}, "materialized",
     "random_max_degree"),
    ("robust", 512 if SMOKE else 2048, 16, {}, "materialized",
     "random_max_degree"),
    ("robust_lowrandom", 512 if SMOKE else 1024, 16, {}, "materialized",
     "random_max_degree"),
    ("cgs22", 512 if SMOKE else 1024, 16, {}, "materialized",
     "random_max_degree"),
    ("acs22", 512 if SMOKE else 1024, 8, {}, "materialized",
     "random_max_degree"),
    ("naive", THROUGHPUT_N, THROUGHPUT_DELTA, {}, "file", "near_regular"),
    ("palette_sparsification", 512 if SMOKE else 4096, 16, {}, "file",
     "near_regular"),
]

#: Compiled-tier legs (run only where numba is installed — CI's ``kernels``
#: job): numpy reference vs compiled twins on the flagship cases, results
#: required bit-identical, streaming throughput floors from the perf story.
COMPILED_CASES = [
    ("deterministic", 16384, 24, {"selection": "greedy_slack"},
     "random_max_degree", 5.0),
    ("robust", 2048, 16, {}, "random_max_degree", 2.0),
    ("list_coloring", 160, 6, {"prime_policy": "scaled"},
     "random_max_degree", 2.0),
]


#: The out-of-core scale leg: a circulant workload (m = n * k exactly,
#: max degree 2k, generated block-by-block — never materialized) written
#: as a sharded REPROED2-format container, streamed through the one-pass
#: algorithms while a sampler thread watches peak RSS against a declared
#: per-algorithm budget, then differenced bit-for-bit against a
#: single-file FileSource run over the same edges.  Default n=10^6 /
#: m=10^7; ``BENCH_S1_FULL=1`` lifts it to the ROADMAP's 10^7 / 10^8
#: target (needs ~12 GB RAM for the robust algorithm's O(n) state and a
#: few GB of disk — a workstation leg, not a CI one); BENCH_S1_SMOKE
#: shrinks it for CI's scale-smoke job.
SCALE_FULL = bool(os.environ.get("BENCH_S1_FULL"))
if SMOKE:
    SCALE_N, SCALE_K = 20_000, 5  # m = 10^5
elif SCALE_FULL:
    SCALE_N, SCALE_K = 10**7, 10  # m = 10^8
else:
    SCALE_N, SCALE_K = 10**6, 10  # m = 10^7
SCALE_SEED = 11
SCALE_CHUNK = 65536
SCALE_SHARD_COUNT = 8

#: Declared RSS budgets, per algorithm: (fixed_bytes, bytes_per_vertex).
#: The per-vertex term covers the algorithm's own semi-streaming state
#: (store/levels plus the Python coloring dict); the fixed term covers
#: interpreter + numpy + chunk buffers.  Locally measured deltas at
#: n=10^6 / m=10^7: naive ~120 MB (vs 224 MB budget), robust ~800 MB (vs
#: 1228 MB budget) — while the input payload is 16 * m bytes (160 MB at
#: default, 1.6 GB at full), which is what NOT appearing in the deltas
#: proves the plane is out-of-core.
SCALE_RSS_BUDGETS = {
    "naive": (64 * 2**20, 160),
    "robust": (128 * 2**20, 1100),
}


def run_sharded_leg(rows):
    """The out-of-core scale leg; returns the ``sharded`` JSON record."""
    m = SCALE_N * SCALE_K
    shard_rows = -(-m // SCALE_SHARD_COUNT)
    rss_supported = _rss_bytes() is not None
    record = {
        "n": SCALE_N,
        "k": SCALE_K,
        "m": m,
        "seed": SCALE_SEED,
        "chunk_size": SCALE_CHUNK,
        "shard_rows": shard_rows,
        "input_payload_bytes": 16 * m,
        "rss_supported": rss_supported,
        "full": SCALE_FULL,
        "algorithms": {},
    }
    with tempfile.TemporaryDirectory(prefix="repro-s1-sharded-") as tmp:
        container = os.path.join(tmp, "circulant.shards")
        single = os.path.join(tmp, "circulant.bin")
        manifest = write_zoo_shards(
            container, "circulant", SCALE_N, SCALE_SEED,
            shard_rows=shard_rows, k=SCALE_K,
        )
        write_edge_file(
            single, SCALE_N,
            circulant_edge_blocks(SCALE_N, SCALE_K, SCALE_SEED),
        )
        delta = manifest["max_degree"]
        record["delta"] = delta
        record["shards"] = len(manifest["shards"])
        for algo, (fixed, per_vertex) in SCALE_RSS_BUDGETS.items():
            spec = RunSpec(
                algorithm=algo, n=SCALE_N, delta=delta, seed=SCALE_SEED,
                chunk_size=SCALE_CHUNK, keep_coloring=True,
                validate=algo != "naive",
            )
            rss_before = _rss_bytes() or 0
            budget = rss_before + fixed + per_vertex * SCALE_N
            sampler = _RssSampler()
            sampler.start()
            start = time.perf_counter()
            source = ShardedFileSource(container, chunk_size=SCALE_CHUNK)
            sharded = run(spec, stream=source)
            source.close()
            seconds = time.perf_counter() - start
            rss_peak = sampler.finish()
            rss_ok = (not rss_supported) or rss_peak <= budget
            # Bit-identity differential AFTER the sampled window: the
            # single-file source is mmap'd, and resident page-cache pages
            # would pollute the sharded plane's RSS reading.
            fs = FileSource(single, chunk_size=SCALE_CHUNK)
            single_run = run(spec, stream=fs)
            fs.close()
            identical = (
                _tier_fingerprint(sharded) == _tier_fingerprint(single_run)
            )
            ok = bool(rss_ok and identical)
            rows.append([
                f"sharded {algo} (n={SCALE_N:.0e})", SCALE_N, delta, m,
                sharded.passes,
                f"{sharded.extras['edges_per_sec']:.3e}", ok,
            ])
            record["algorithms"][algo] = {
                "edges_per_sec": sharded.extras["edges_per_sec"],
                "seconds": seconds,
                "passes": sharded.passes,
                "colors_used": sharded.colors_used,
                "rss_before_bytes": rss_before if rss_supported else None,
                "rss_peak_bytes": rss_peak if rss_supported else None,
                "rss_delta_bytes": (
                    rss_peak - rss_before if rss_supported else None
                ),
                "rss_budget_bytes": budget if rss_supported else None,
                "rss_ok": rss_ok,
                "identical_to_single_file": identical,
            }
    return record


def _tier_fingerprint(result):
    """Everything observable about a run except wall times and kernel hits."""
    return (
        result.coloring,
        result.passes,
        result.peak_space_bits,
        result.random_bits,
        result.colors_used,
        result.palette_bound,
        result.proper,
    )


def run_compiled_leg(rows):
    """Numpy vs compiled tier on the flagship cases (numba hosts only)."""
    cases = {}
    if not compiled_available():
        return cases
    for algo, n, delta, config, family, floor in COMPILED_CASES:
        # Warm the JIT cache on a toy instance so the timed leg measures
        # steady-state kernels, not one-time compilation.
        run(RunSpec(
            algorithm=algo, n=64, delta=6, graph_seed=7, config=config,
            stream_backend="materialized", kernel_tier="compiled",
            validate=False,
        ))
        per_tier = {}
        for tier in ("numpy", "compiled"):
            per_tier[tier] = run(RunSpec(
                algorithm=algo, n=n, delta=delta, graph_seed=401,
                config=config, graph_family=family,
                stream_backend="materialized", kernel_tier=tier,
                keep_coloring=True,
            ))
        numpy_run, compiled_run = per_tier["numpy"], per_tier["compiled"]
        identical = _tier_fingerprint(numpy_run) == _tier_fingerprint(
            compiled_run
        )
        speedup = (
            compiled_run.extras["edges_per_sec"]
            / numpy_run.extras["edges_per_sec"]
        )
        rows.append([f"{algo} compiled tier", n, delta,
                     numpy_run.extras["stream_edges"], numpy_run.passes,
                     f"{speedup:.1f}x", identical])
        cases[algo] = {
            "n": n,
            "delta": delta,
            "numpy_edges_per_sec": numpy_run.extras["edges_per_sec"],
            "compiled_edges_per_sec": compiled_run.extras["edges_per_sec"],
            "speedup": speedup,
            "floor": floor,
            "identical": identical,
            "kernel_hits": compiled_run.extras.get("kernel_hits", {}),
        }
    return cases


def run_scale():
    rows = []
    json_payload = {
        "legs": [],
        "smoke": SMOKE,
        "host_cpus": os.cpu_count() or 1,
        "compiled_available": compiled_available(),
    }
    # Deterministic, heuristic selection (1 pass/stage), n=1024.
    n, delta = (256, 12) if SMOKE else (1024, 24)
    det = run(RunSpec(
        algorithm="deterministic", n=n, delta=delta, graph_seed=401,
        config={"selection": "greedy_slack"},
    ))
    rows.append(["deterministic greedy_slack", n, delta,
                 det.extras["stream_edges"], det.passes, "-", det.proper])
    # Robust, adaptive adversary, n=2048.
    n, delta = (512, 8) if SMOKE else (2048, 16)
    rounds = (n * delta) // 4
    game = run_game(GameSpec(
        algorithm="robust", n=n, delta=delta, rounds=rounds, seed=402,
        adversary="conflict", adversary_seed=403,
        query_every=max(1, rounds // 8),
    ))
    rows.append(["robust Alg 2 (adaptive)", n, delta, game.extras["rounds"],
                 game.passes, "-", game.proper])
    # Throughput sweep: every registered algorithm on its block backend.
    # Each case also records which kernel tier served it and where the
    # dispatched kernel time went.
    algorithms = {}
    for algo, n, delta, config, backend, family in THROUGHPUT_CASES:
        with measure_kernels() as kernel_timings:
            result = run(RunSpec(
                algorithm=algo, n=n, delta=delta, graph_seed=401,
                config=config, graph_family=family, stream_backend=backend,
                validate=algo != "naive", verify=True,
            ))
        # The naive strawman legitimately outputs improper colorings (it
        # repairs only against its bounded store); its declared guarantee
        # waives properness, and the guarantee report gates every case.
        ok = result.extras["guarantees"]["ok"] and (
            result.proper or algo == "naive"
        )
        rows.append([f"{algo} [{backend}]", n, delta,
                     result.extras["stream_edges"], result.passes,
                     f"{result.extras['edges_per_sec']:.3e}", ok])
        algorithms[algo] = {
            "n": n,
            "delta": delta,
            "block_backend": backend,
            "graph_family": family,
            "edges": result.extras["stream_edges"],
            "passes": result.passes,
            "edges_per_sec": result.extras["edges_per_sec"],
            "proper": result.proper,
            "kernel_tier": result.extras["kernel_tier"],
            "kernels": {
                name: {"calls": calls, "seconds": seconds}
                for name, (calls, seconds) in sorted(kernel_timings.items())
            },
        }
    json_payload["algorithms"] = algorithms
    json_payload["compiled"] = {
        "available": compiled_available(),
        "cases": run_compiled_leg(rows),
    }
    json_payload["sharded"] = run_sharded_leg(rows)
    # Back-compat artifact field: the flagship deterministic record.
    flagship = algorithms["deterministic"]
    json_payload["legs"].append({
        "leg": "throughput_materialized",
        "n": flagship["n"],
        "delta": flagship["delta"],
        "edges": flagship["edges"],
        "passes": flagship["passes"],
        "edges_per_sec": flagship["edges_per_sec"],
        "proper": flagship["proper"],
    })
    headers = ["algorithm", "n", "delta", "edges", "passes", "edges/s", "ok"]
    return (headers, rows), json_payload


def test_s1_scale(benchmark, record_table, record_json):
    (headers, rows), payload = run_once(benchmark, run_scale)
    record_table("s1_scale", headers, rows, title="S1: scalability smoke")
    record_json("s1_scale", payload)
    assert all(row[-1] is True for row in rows)
    assert payload["host_cpus"] >= 1
    recorded = set(payload["algorithms"])
    assert recorded == set(REGISTRY.names()), (
        f"throughput sweep must cover the whole registry; "
        f"missing {sorted(set(REGISTRY.names()) - recorded)}"
    )
    expected_tier = "compiled" if compiled_available() else "numpy"
    for algo, record in payload["algorithms"].items():
        assert record["edges_per_sec"] > 0, algo
        assert record["kernel_tier"] == expected_tier, algo
        assert all(
            rec["calls"] > 0 and rec["seconds"] >= 0.0
            for rec in record["kernels"].values()
        ), algo
    sharded = payload["sharded"]
    assert set(sharded["algorithms"]) == set(SCALE_RSS_BUDGETS)
    assert sharded["m"] == sharded["n"] * sharded["k"]
    assert sharded["shards"] > 1, "scale leg must cross shard boundaries"
    for algo, rec in sharded["algorithms"].items():
        assert rec["identical_to_single_file"], (
            f"{algo}: sharded run diverged from the single-file source"
        )
        assert rec["rss_ok"], (
            f"{algo}: peak RSS {rec['rss_peak_bytes']} exceeded the "
            f"declared budget {rec['rss_budget_bytes']}"
        )
        assert rec["edges_per_sec"] > 0, algo
    assert payload["compiled"]["available"] == compiled_available()
    if compiled_available():
        cases = payload["compiled"]["cases"]
        assert set(cases) == {c[0] for c in COMPILED_CASES}
        for algo, case in cases.items():
            assert case["identical"], (
                f"{algo}: compiled tier diverged from the numpy reference"
            )
            assert sum(case["kernel_hits"].values()) > 0, algo
            assert case["speedup"] >= case["floor"], (
                f"{algo}: compiled tier sustained only "
                f"{case['speedup']:.1f}x the numpy tier "
                f"(floor {case['floor']}x)"
            )
