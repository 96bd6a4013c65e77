"""The workload zoo: families, edge orders, and stream builders."""

import numpy as np
import pytest

from repro.common.exceptions import ReproError
from repro.graph.zoo import (
    ZOO_FAMILIES,
    ZOO_ORDERS,
    arrange_edges,
    workload_delta,
    workload_edges,
    zoo_degrees,
)
from repro.streaming.tokens import EdgeToken, ListToken
from repro.streaming.workloads import (
    workload_list_stream,
    workload_source,
    workload_stats,
)


def edge_set(edges) -> set:
    return {tuple(e) for e in edges.tolist()}


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(ZOO_FAMILIES))
    def test_canonical_form(self, family):
        edges, n = workload_edges(family, 48, seed=5)
        assert edges.dtype == np.int64
        assert edges.ndim == 2 and edges.shape[1] == 2
        if len(edges):
            assert (edges[:, 0] < edges[:, 1]).all()  # no loops, u < v
            assert edges.min() >= 0 and edges.max() < n
            keys = edges[:, 0] * n + edges[:, 1]
            assert len(np.unique(keys)) == len(keys)  # deduplicated
            assert (np.diff(keys) > 0).all()  # sorted

    @pytest.mark.parametrize("family", sorted(ZOO_FAMILIES))
    def test_deterministic_in_seed(self, family):
        a, _ = workload_edges(family, 40, seed=9)
        b, _ = workload_edges(family, 40, seed=9)
        assert np.array_equal(a, b)

    def test_family_shapes(self):
        # Structural sanity of each family's defining property.
        star, n = workload_edges("near_star", 40, seed=1)
        assert workload_delta(n, star) == n - 1
        bip, n = workload_edges("bipartite", 40, seed=1)
        assert (bip[:, 0] < n // 2).all() and (bip[:, 1] >= n // 2).all()
        empty, n = workload_edges("empty", 40, seed=1)
        assert len(empty) == 0 and n == 40
        single, n = workload_edges("singleton", 40, seed=1)
        assert len(single) == 0 and n == 1
        pl, n = workload_edges("power_law", 64, seed=1)
        deg = zoo_degrees(n, pl)
        assert deg.max() >= 3 * max(1, np.median(deg))  # heavy tail
        pc, n = workload_edges("planted_clique", 64, seed=1)
        # the planted clique pushes max degree past the sparse background
        assert workload_delta(n, pc) >= 7

    def test_cliques_paths_components(self):
        edges, n = workload_edges("cliques_paths", 24, seed=0)
        # first block is a 5-clique: vertices 0..4 pairwise adjacent
        s = edge_set(edges)
        for u in range(5):
            for v in range(u + 1, 5):
                assert (u, v) in s
        # next block is a path 5-6-7-...-11
        assert (5, 6) in s and (10, 11) in s and (5, 7) not in s

    def test_unknown_family_raises(self):
        with pytest.raises(ReproError, match="unknown zoo family"):
            workload_edges("petersen", 10, seed=0)

    def test_delta_floors_at_one(self):
        edges, n = workload_edges("empty", 8, seed=0)
        assert workload_delta(n, edges) == 1


class TestOrders:
    @pytest.mark.parametrize("order", ZOO_ORDERS)
    @pytest.mark.parametrize("family", ["power_law", "cliques_paths"])
    def test_orders_are_permutations(self, family, order):
        edges, n = workload_edges(family, 48, seed=3)
        arranged = arrange_edges(n, edges, order, seed=3)
        assert edge_set(arranged) == edge_set(edges)
        assert len(arranged) == len(edges)

    @pytest.mark.parametrize("order", ZOO_ORDERS)
    def test_orders_are_deterministic(self, order):
        edges, n = workload_edges("planted_clique", 48, seed=3)
        a = arrange_edges(n, edges, order, seed=11)
        b = arrange_edges(n, edges, order, seed=11)
        assert np.array_equal(a, b)

    def test_degree_sorted_leads_with_hubs(self):
        edges, n = workload_edges("near_star", 32, seed=2)
        deg = zoo_degrees(n, edges)
        arranged = arrange_edges(n, edges, "degree_sorted", seed=0)
        keys = np.maximum(deg[arranged[:, 0]], deg[arranged[:, 1]])
        assert (np.diff(keys) <= 0).all()

    def test_bfs_groups_components(self):
        # cliques_paths components are index-contiguous; BFS order must
        # finish one component before starting the next.
        edges, n = workload_edges("cliques_paths", 24, seed=0)
        arranged = arrange_edges(n, edges, "bfs", seed=0)
        first_path_edge = np.nonzero(arranged[:, 0] >= 5)[0]
        clique_edges = np.nonzero(arranged.max(axis=1) < 5)[0]
        assert clique_edges.max() < first_path_edge.min()

    def test_unknown_order_raises(self):
        edges, n = workload_edges("power_law", 16, seed=0)
        with pytest.raises(ReproError, match="unknown zoo order"):
            arrange_edges(n, edges, "sideways", seed=0)


class TestStreamBuilders:
    def test_source_regenerates_identically_across_passes(self):
        source = workload_source("power_law", 40, order="adversarial",
                                 seed=4, chunk_size=16)
        pass1 = np.concatenate(list(source.new_pass()))
        pass2 = np.concatenate(list(source.new_pass()))
        assert np.array_equal(pass1, pass2)
        assert source.passes_used == 2

    def test_source_matches_arranged_edges(self):
        source = workload_source("bipartite", 30, order="random", seed=8,
                                 chunk_size=7)
        edges, n_actual = workload_edges("bipartite", 30, 8)
        arranged = arrange_edges(n_actual, edges, "random", 8)
        blocks = np.concatenate(list(source.iter_items()))
        assert np.array_equal(blocks, arranged)

    def test_stats(self):
        n, delta, m = workload_stats("near_star", 24, seed=1)
        assert n == 24 and delta == 23 and m >= 23
        n, delta, m = workload_stats("singleton", 24, seed=1)
        assert (n, delta, m) == (1, 1, 0)

    def test_list_stream_lists_cover_degrees(self):
        stream, universe = workload_list_stream("planted_clique", 30, seed=2)
        lists = {t.x: t.colors for t in stream.tokens
                 if isinstance(t, ListToken)}
        deg = {}
        for t in stream.tokens:
            if isinstance(t, EdgeToken):
                deg[t.u] = deg.get(t.u, 0) + 1
                deg[t.v] = deg.get(t.v, 0) + 1
        assert set(lists) == set(range(stream.n))
        for v, colors in lists.items():
            assert len(colors) == deg.get(v, 0) + 1
            assert all(1 <= c <= universe for c in colors)
