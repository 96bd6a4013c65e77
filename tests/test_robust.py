"""Integration tests for Algorithm 2 (Theorem 3) and the Cor. 4.7 tradeoff."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import (
    ConflictSeekingAdversary,
    LevelAwareAdversary,
    RandomAdversary,
    StaticStreamAdversary,
    run_adversarial_game,
)
from dataclasses import replace

from repro.common.exceptions import ReproError
from repro.core.robust import RobustColoring, RobustParameters
from repro.engine import REGISTRY, AlgorithmRegistry, RunSpec, run
from repro.graph.generators import random_max_degree_graph
from repro.streaming.tokens import edge_tokens
from repro.streaming.stream import TokenStream, stream_from_graph


class TestParameters:
    def test_beta_zero_base_algorithm(self):
        p = RobustParameters.create(n=100, delta=16, beta=0.0)
        assert p.buffer_capacity == 100
        assert p.num_epochs == 16
        assert p.h_range == 256  # Delta^2
        assert p.fast_threshold == 4  # sqrt(Delta)
        assert p.num_levels == 4
        assert p.g_range == 64  # Delta^{3/2}

    def test_beta_half(self):
        p = RobustParameters.create(n=100, delta=16, beta=0.5)
        assert p.buffer_capacity == 400  # n * Delta^{1/2}
        assert p.num_epochs == 4  # Delta^{1/2}
        assert p.h_range == 16  # Delta^{2-1}
        assert p.fast_threshold == 8  # Delta^{3/4}

    def test_color_bound_shape(self):
        p0 = RobustParameters.create(100, 16, 0.0)
        p5 = RobustParameters.create(100, 16, 0.5)
        assert p0.color_bound == pytest.approx(16**2.5)
        assert p5.color_bound == pytest.approx(16**1.75)

    def test_invalid_beta(self):
        with pytest.raises(ReproError):
            RobustParameters.create(10, 4, beta=1.5)

    def test_invalid_delta(self):
        with pytest.raises(ReproError):
            RobustParameters.create(10, 0)


class TestStaticStreams:
    @pytest.mark.parametrize("beta", [0.0, 1 / 3, 0.5])
    def test_every_prefix_properly_colored(self, beta):
        n, delta = 60, 8
        g = random_max_degree_graph(n, delta, seed=41)
        algo = RobustColoring(n, delta, seed=42, beta=beta)
        adv = StaticStreamAdversary(g.edge_list())
        result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                      rounds=g.m, query_every=7)
        assert result.clean

    def test_degree_promise_enforced(self):
        algo = RobustColoring(5, 1, seed=1)
        algo.process(0, 1)
        with pytest.raises(ReproError):
            algo.process(0, 2)  # vertex 0 already at degree Delta=1

    @staticmethod
    def _refused_run(edges, n, delta, chunk_size):
        """``engine.run`` over ``edges``; returns (error, algorithm)."""
        created = []
        entry = REGISTRY.get("robust")

        def factory(*args):
            created.append(entry.factory(*args))
            return created[-1]

        registry = AlgorithmRegistry([replace(entry, factory=factory)])
        spec = RunSpec(algorithm="robust", n=n, delta=delta, seed=3,
                       chunk_size=chunk_size)
        with pytest.raises(ReproError, match="promised max degree") as info:
            run(spec, stream=TokenStream(edge_tokens(edges), n),
                registry=registry)
        return str(info.value), created[0]

    def test_degree_cap_refusal_is_independent_of_chunk_size(self):
        n, delta = 24, 4
        legal = random_max_degree_graph(n, delta, seed=8).edge_list()
        full = next(v for v in range(n)
                    if sum(v in e for e in legal) == delta)
        other = next(w for w in range(n) if w != full
                     and (full, w) not in legal and (w, full) not in legal)
        # Past the buffer capacity (n), so the refusal follows a roll.
        assert len(legal) > n
        edges = legal + [(full, other), (0, 1), (2, 3)]
        states = []
        for chunk_size in (1, 3, 8192):
            message, algo = self._refused_run(edges, n, delta, chunk_size)
            assert f"edge ({full},{other})" in message
            assert algo._edges_seen == len(legal)
            states.append((
                message, list(algo._degree), list(algo._buffer_degree),
                algo._a_sets, algo._c_sets, algo._buffer, algo._curr,
                algo.peak_space_bits, algo.meter.current_bits,
            ))
        assert states[0] == states[1] == states[2]
        assert states[0][3] or states[0][4]  # the sketches hold edges

    def test_query_before_any_edge(self):
        algo = RobustColoring(10, 3, seed=2)
        coloring = algo.query()
        assert set(coloring) == set(range(10))

    def test_buffer_rollover_and_epochs(self):
        """More than buffer_capacity edges forces an epoch switch."""
        n, delta = 30, 12
        g = random_max_degree_graph(n, delta, seed=43)
        assert g.m > n  # ensures a rollover with buffer capacity n
        algo = RobustColoring(n, delta, seed=44)
        adv = StaticStreamAdversary(g.edge_list())
        result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                      rounds=g.m, query_every=5)
        assert result.clean
        assert algo._curr >= 2  # buffer rolled at least once


class TestAdaptiveAdversaries:
    @pytest.mark.parametrize("adversary_cls", [
        ConflictSeekingAdversary, LevelAwareAdversary, RandomAdversary,
    ])
    def test_never_errs(self, adversary_cls):
        n, delta = 48, 9
        algo = RobustColoring(n, delta, seed=45)
        adv = adversary_cls(seed=46)
        result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                      rounds=(n * delta) // 3)
        assert result.clean

    def test_beta_variants_never_err(self):
        n, delta = 40, 9
        for beta in (0.0, 1 / 3, 0.5):
            algo = RobustColoring(n, delta, seed=47, beta=beta)
            adv = ConflictSeekingAdversary(seed=48)
            result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                          rounds=(n * delta) // 3,
                                          query_every=3)
            assert result.clean, f"beta={beta} errored"

    @given(st.integers(0, 10**6))
    @settings(max_examples=6, deadline=None)
    def test_property_random_seeds(self, seed):
        n, delta = 30, 6
        algo = RobustColoring(n, delta, seed=seed)
        adv = ConflictSeekingAdversary(seed=seed + 1)
        result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                      rounds=n, query_every=2)
        assert result.clean


class TestAccounting:
    def test_random_bits_charged(self):
        algo = RobustColoring(50, 9, seed=49)
        # h: Delta functions to [D^2]; g: sqrt(D) functions to [D^{3/2}].
        assert algo.random_bits_used > 0
        assert algo.meter.random_bits == algo._oracle.bits_served

    def test_space_grows_with_buffer(self):
        algo = RobustColoring(50, 9, seed=50)
        before = algo.meter.current_bits
        algo.process(0, 1)
        assert algo.meter.current_bits > before

    def test_sketch_edge_count(self):
        n, delta = 40, 8
        g = random_max_degree_graph(n, delta, seed=51)
        algo = RobustColoring(n, delta, seed=52)
        for u, v in g.edge_list():
            algo.process(u, v)
        assert algo.sketch_edge_count >= 0  # smoke: accessor works
