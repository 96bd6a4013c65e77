"""Block-path equivalence across backends, chunk sizes and kernel tiers.

The block data plane is the only execution path; its outputs are pinned
to the retired token-at-a-time implementation by the golden corpus
(``tests/golden/token_reference.json``, checked at chunk sizes 1, 64 and
8192 in ``tests/test_token_reference.py``).  This suite checks that the
other backends, chunk sizes and kernel tiers change *nothing* observable
about a run: same coloring, same pass count, same peak space charge,
same palette usage.
"""

import pytest

from repro.common.exceptions import ReproError
from repro.engine import REGISTRY, RunSpec, run
from repro.kernels import compiled_available
from repro.streaming.model import OnePassAlgorithm
from token_reference import (
    MATRIX as CASES,
    MATRIX_SEEDS as SEEDS,
    case_key,
    digest,
    load_corpus,
    make_case,
    run_case,
)

#: Tiers runnable on this host: the numpy reference always, the compiled
#: twin tier only when numba imports (CI's ``kernels`` job installs it).
AVAILABLE_TIERS = ["numpy"] + (["compiled"] if compiled_available() else [])

CORPUS = load_corpus()["equivalence"]


def fingerprint(result):
    """Everything observable about a run except measured wall times."""
    return (
        result.coloring,
        result.passes,
        result.peak_space_bits,
        result.random_bits,
        result.colors_used,
        result.palette_bound,
        result.proper,
    )


def pinned(algorithm, n, delta, config, seed, **extra) -> str:
    """The golden token-path fingerprint of one equivalence case."""
    return CORPUS[case_key(make_case(algorithm, n, delta, seed, config,
                                     **extra))]


def run_backend(algorithm, n, delta, config, seed, backend, chunk_size=64,
                **extra):
    return run_case(make_case(algorithm, n, delta, seed, config, **extra),
                    backend, chunk_size)


class TestBlockPathEquivalence:
    def test_all_registered_algorithms_are_covered(self):
        assert {c[0] for c in CASES} == set(REGISTRY.names())

    def test_every_onepass_algorithm_overrides_process_block(self):
        # process_block is the only update: every one-pass algorithm
        # implements it, and none carries a second, per-edge process().
        assert "process_block" in OnePassAlgorithm.__abstractmethods__
        for entry in REGISTRY:
            if entry.kind == "onepass":
                cls = type(entry.create(n=16, delta=3, seed=0))
                assert "process_block" in vars(cls), entry.name
                assert all(
                    "process" not in vars(klass)
                    for klass in cls.__mro__ if klass is not OnePassAlgorithm
                ), f"{entry.name} defines its own process()"

    def test_edge_only_backends_match_the_corpus(self):
        # Both selections; every edge-only block source.
        for config in ({"selection": "greedy_slack"},
                       {"selection": "hash_family", "prime_policy": "scaled"}):
            expected = pinned("deterministic", 64, 6, config, 5)
            for backend in ("materialized", "generator", "file",
                            "sharded_file"):
                other = run_backend("deterministic", 64, 6, config, 5, backend)
                assert digest(other) == expected, backend

    def test_chunk_size_does_not_matter(self):
        config = {"selection": "greedy_slack"}
        expected = pinned("deterministic", 64, 6, config, 7)
        base = run_backend("deterministic", 64, 6, config, 7,
                           "materialized", chunk_size=1)
        assert digest(base) == expected
        for chunk_size in (3, 17, 10_000):
            other = run_backend("deterministic", 64, 6, config, 7,
                                "materialized", chunk_size=chunk_size)
            assert fingerprint(base) == fingerprint(other)

    @pytest.mark.parametrize("algorithm,n,delta,config", [
        ("robust", 48, 6, {}),
        ("robust_lowrandom", 64, 9, {}),
        ("list_coloring", 40, 5, {"prime_policy": "scaled"}),
    ])
    def test_chunk_size_does_not_matter_randomized(
        self, algorithm, n, delta, config
    ):
        # Chunk boundaries cross buffer rolls and sketch events; the
        # randomized algorithms must be invariant to where they fall.
        expected = pinned(algorithm, n, delta, config, 7)
        for chunk_size in (1, 3, 17, 10_000):
            other = run_backend(algorithm, n, delta, config, 7,
                                "materialized", chunk_size=chunk_size)
            assert digest(other) == expected, chunk_size

    def test_stream_orders_match_across_backends(self):
        # hash_family is the order-sensitive mode: the selector accumulates
        # float potentials per conflict edge, so every backend must hand
        # edges over in first-seen stream order.
        for config in ({"selection": "greedy_slack"},
                       {"selection": "hash_family", "prime_policy": "scaled"}):
            for order in ("insertion", "reverse", "random"):
                extra = {"stream_order": order, "stream_seed": 13}
                expected = pinned("deterministic", 48, 5, config, 2, **extra)
                for backend in ("materialized", "generator", "file"):
                    r = run_backend("deterministic", 48, 5, config, 2,
                                    backend, chunk_size=8192, **extra)
                    assert digest(r) == expected, (config, order, backend)

    def test_throughput_extras_recorded(self):
        r = run_backend(
            "deterministic", 64, 6, {"selection": "greedy_slack"}, 3,
            "materialized",
        )
        assert r.extras["stream_backend"] == "materialized"
        assert r.extras["chunk_size"] == 64
        assert len(r.extras["pass_wall_times"]) == r.passes
        assert r.extras["edges_per_sec"] > 0

    def test_near_regular_family_matches_across_backends(self):
        config = {"selection": "greedy_slack"}
        extra = {"graph_family": "near_regular"}
        expected = pinned("deterministic", 60, 6, config, 4, **extra)
        for backend in ("materialized", "generator", "file"):
            r = run_backend("deterministic", 60, 6, config, 4, backend,
                            chunk_size=8192, **extra)
            assert r.proper
            assert digest(r) == expected, backend

    def test_unknown_graph_family_rejected(self):
        with pytest.raises(ReproError):
            run(RunSpec(algorithm="naive", n=10, delta=2,
                        graph_family="scale-free"))

    def test_needs_lists_rejects_edge_only_backends(self):
        for backend in ("generator", "file"):
            with pytest.raises(ReproError):
                run(RunSpec(
                    algorithm="list_coloring", n=20, delta=3,
                    stream_backend=backend,
                ))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            run(RunSpec(algorithm="naive", n=10, delta=2,
                        stream_backend="carrier-pigeon"))

    def test_retired_tokens_backend_rejected(self):
        with pytest.raises(ReproError, match="materialized"):
            run(RunSpec(algorithm="naive", n=10, delta=2,
                        stream_backend="tokens"))


class TestKernelTierEquivalence:
    """Kernel tiers swap implementations, never observable results.

    Every case runs under each available tier; the ColoringResults must be
    field-for-field identical (coloring, passes, peak space, random bits,
    palettes, properness).  With numba absent only the numpy tier runs —
    still asserting the explicit-tier plumbing records itself; the CI
    ``kernels`` job is where the numpy/compiled differential executes.
    """

    @pytest.mark.parametrize(
        "algorithm,n,delta,config", CASES,
        ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)],
    )
    @pytest.mark.parametrize("tier", AVAILABLE_TIERS)
    def test_tier_matches_numpy_reference(
        self, tier, algorithm, n, delta, config
    ):
        for seed in SEEDS:
            reference = run(RunSpec(
                algorithm=algorithm, n=n, delta=delta, seed=seed,
                graph_seed=seed, config=config,
                stream_backend="materialized", chunk_size=64,
                kernel_tier="numpy", keep_coloring=True,
                validate=algorithm != "naive",
            ))
            assert reference.extras["kernel_tier"] == "numpy"
            result = run(RunSpec(
                algorithm=algorithm, n=n, delta=delta, seed=seed,
                graph_seed=seed, config=config,
                stream_backend="materialized", chunk_size=64,
                kernel_tier=tier, keep_coloring=True,
                validate=algorithm != "naive",
            ))
            assert result.extras["kernel_tier"] == tier
            assert fingerprint(result) == fingerprint(reference), (tier, seed)

    @pytest.mark.skipif(not compiled_available(),
                        reason="numba not installed (pip install -e .[compiled])")
    def test_compiled_tier_hits_compiled_kernels(self):
        r = run(RunSpec(
            algorithm="deterministic", n=64, delta=6, seed=3, graph_seed=3,
            config={"selection": "greedy_slack"},
            stream_backend="materialized", kernel_tier="compiled",
        ))
        assert r.extras["kernel_tier"] == "compiled"
        assert sum(r.extras["kernel_hits"].values()) > 0

    def test_compiled_tier_without_numba_is_an_error(self):
        if compiled_available():
            pytest.skip("numba present; the unavailable path cannot trigger")
        with pytest.raises(ReproError, match="numba"):
            run(RunSpec(algorithm="naive", n=16, delta=4,
                        kernel_tier="compiled"))

    def test_block_runs_record_kernel_hits(self):
        r = run_backend(
            "deterministic", 64, 6, {"selection": "greedy_slack"}, 3,
            "materialized",
        )
        hits = r.extras["kernel_hits"]
        assert hits and all(v > 0 for v in hits.values())
