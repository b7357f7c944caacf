"""Unit and property tests for the Graph container."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, canonical_edge
from repro.graphs.laplacian import is_laplacian


class TestGraphBasics:
    def test_empty_graph(self):
        graph = Graph(0)
        assert graph.num_nodes == 0
        assert graph.num_edges == 0

    def test_add_edge_and_query(self):
        graph = Graph(4)
        graph.add_edge(0, 1, 2.5)
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert graph.weight(1, 0) == 2.5
        assert graph.num_edges == 1

    def test_add_edge_merges_parallel_by_sum(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 0, 2.0)
        assert graph.num_edges == 1
        assert graph.weight(0, 1) == pytest.approx(3.0)

    def test_add_edge_merge_policies(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(0, 1, 5.0, merge="max")
        assert graph.weight(0, 1) == 5.0
        graph.add_edge(0, 1, 2.0, merge="replace")
        assert graph.weight(0, 1) == 2.0
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, 1.0, merge="error")
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, 1.0, merge="bogus")

    def test_self_loop_rejected(self):
        graph = Graph(3)
        with pytest.raises(ValueError):
            graph.add_edge(1, 1, 1.0)

    def test_invalid_node_rejected(self):
        graph = Graph(3)
        with pytest.raises(ValueError):
            graph.add_edge(0, 3, 1.0)
        with pytest.raises(ValueError):
            graph.add_edge(-1, 2, 1.0)

    def test_nonpositive_weight_rejected(self):
        graph = Graph(3)
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, 0.0)
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, -1.0)

    def test_remove_edge(self):
        graph = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        weight = graph.remove_edge(1, 0)
        assert weight == 1.0
        assert not graph.has_edge(0, 1)
        with pytest.raises(KeyError):
            graph.remove_edge(0, 1)

    def test_weight_default(self):
        graph = Graph(3, [(0, 1, 1.0)])
        assert graph.weight(0, 2, default=0.0) == 0.0
        with pytest.raises(KeyError):
            graph.weight(0, 2)

    def test_set_scale_increase_weight(self):
        graph = Graph(3, [(0, 1, 2.0)])
        graph.set_weight(0, 1, 4.0)
        assert graph.weight(0, 1) == 4.0
        graph.scale_weight(0, 1, 0.5)
        assert graph.weight(0, 1) == 2.0
        graph.increase_weight(0, 1, 1.0)
        assert graph.weight(0, 1) == 3.0
        with pytest.raises(KeyError):
            graph.set_weight(0, 2, 1.0)

    def test_degrees(self):
        graph = Graph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)])
        assert graph.degree(0) == 3
        assert graph.degree(1) == 1
        assert np.array_equal(graph.degrees(), [3, 1, 1, 1])
        assert np.allclose(graph.weighted_degrees(), [6.0, 1.0, 2.0, 3.0])

    def test_neighbors_returns_copy(self):
        graph = Graph(3, [(0, 1, 1.0)])
        neighbors = graph.neighbors(0)
        neighbors[2] = 99.0
        assert not graph.has_edge(0, 2)

    def test_contains_and_iteration(self):
        graph = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert (1, 0) in graph
        assert (0, 2) not in graph
        assert sorted(graph.edges()) == [(0, 1), (1, 2)]
        assert sorted(graph.weighted_edges()) == [(0, 1, 1.0), (1, 2, 2.0)]
        assert graph.edge_list() == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_density_measures(self):
        graph = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        assert graph.density() == pytest.approx(1.0)
        reference = Graph(4, [(0, 1, 1.0), (1, 2, 1.0)])
        assert reference.relative_density(graph) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            graph.relative_density(Graph(4))

    def test_copy_is_deep(self):
        graph = Graph(3, [(0, 1, 1.0)])
        clone = graph.copy()
        clone.add_edge(1, 2, 5.0)
        assert not graph.has_edge(1, 2)
        assert clone.has_edge(0, 1)

    def test_equality(self):
        a = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        b = Graph(3, [(1, 2, 2.0), (0, 1, 1.0)])
        c = Graph(3, [(0, 1, 1.0), (1, 2, 2.5)])
        assert a == b
        assert a != c
        assert a != "not a graph"

    def test_union_with_edges(self):
        graph = Graph(3, [(0, 1, 1.0)])
        merged = graph.union_with_edges([(1, 2, 2.0), (0, 1, 1.0)])
        assert merged.num_edges == 2
        assert merged.weight(0, 1) == pytest.approx(2.0)
        assert graph.weight(0, 1) == pytest.approx(1.0)  # original untouched


class TestGraphMatrices:
    def test_adjacency_symmetric(self, small_grid):
        adjacency = small_grid.adjacency_matrix()
        assert (abs(adjacency - adjacency.T)).nnz == 0

    def test_laplacian_row_sums_zero(self, small_grid):
        laplacian = small_grid.laplacian_matrix()
        row_sums = np.asarray(laplacian.sum(axis=1)).ravel()
        assert np.allclose(row_sums, 0.0, atol=1e-9)
        assert is_laplacian(laplacian)

    def test_laplacian_psd(self, small_grid, rng):
        laplacian = small_grid.laplacian_matrix()
        for _ in range(5):
            x = rng.standard_normal(small_grid.num_nodes)
            assert float(x @ (laplacian @ x)) >= -1e-9

    def test_incidence_factorisation(self, small_grid):
        incidence = small_grid.incidence_matrix()
        _, _, weights = small_grid.edge_arrays()
        import scipy.sparse as sp

        reconstructed = incidence.T @ sp.diags(weights) @ incidence
        difference = abs(reconstructed - small_grid.laplacian_matrix())
        assert difference.max() < 1e-9

    def test_edge_arrays_alignment(self):
        graph = Graph(3, [(0, 1, 1.5), (1, 2, 2.5)])
        us, vs, ws = graph.edge_arrays()
        assert list(zip(us.tolist(), vs.tolist(), ws.tolist())) == [(0, 1, 1.5), (1, 2, 2.5)]


class TestGraphConversions:
    def test_networkx_roundtrip(self, small_grid):
        nx_graph = small_grid.to_networkx()
        back = Graph.from_networkx(nx_graph)
        assert back == small_grid

    def test_from_networkx_skips_self_loops(self):
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_edge(0, 0, weight=3.0)
        nx_graph.add_edge(0, 1, weight=1.0)
        graph = Graph.from_networkx(nx_graph)
        assert graph.num_edges == 1


class TestCanonicalEdge:
    def test_orders_endpoints(self):
        assert canonical_edge(3, 1) == (1, 3)
        assert canonical_edge(1, 3) == (1, 3)


@st.composite
def random_edge_lists(draw):
    """Random small weighted edge lists."""
    num_nodes = draw(st.integers(min_value=2, max_value=12))
    num_edges = draw(st.integers(min_value=0, max_value=20))
    edges = []
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        v = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if u == v:
            continue
        w = draw(st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False))
        edges.append((u, v, w))
    return num_nodes, edges


class TestGraphProperties:
    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_laplacian_invariants(self, data):
        num_nodes, edges = data
        graph = Graph(num_nodes, edges)
        laplacian = graph.laplacian_matrix()
        row_sums = np.asarray(laplacian.sum(axis=1)).ravel()
        assert np.allclose(row_sums, 0.0, atol=1e-8)
        # Quadratic form is non-negative for arbitrary vectors.
        x = np.linspace(-1, 1, num_nodes)
        assert float(x @ (laplacian @ x)) >= -1e-8

    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_total_weight_matches_edges(self, data):
        num_nodes, edges = data
        graph = Graph(num_nodes, edges)
        expected = sum(w for *_, w in edges)
        assert graph.total_weight() == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_copy_equality(self, data):
        num_nodes, edges = data
        graph = Graph(num_nodes, edges)
        assert graph.copy() == graph
