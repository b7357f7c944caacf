"""Tests for synthetic graph generators and graph validation helpers."""

from __future__ import annotations

import pytest

from repro.graphs import (
    Graph,
    airfoil_mesh,
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    delaunay_graph,
    fe_mesh_2d,
    fe_mesh_3d,
    grid_circuit_2d,
    grid_circuit_3d,
    is_connected,
    paper_figure2_graph,
    path_graph,
    sphere_mesh,
    watts_strogatz_graph,
)
from repro.graphs.validation import (
    GraphValidationError,
    assert_positive_weights,
    validate_new_edges,
    validate_sparsifier_support,
)

GENERATORS = [
    ("grid2d", lambda seed: grid_circuit_2d(9, seed=seed)),
    ("grid3d", lambda seed: grid_circuit_3d(6, 6, 3, seed=seed)),
    ("delaunay", lambda seed: delaunay_graph(150, seed=seed)),
    ("fe2d", lambda seed: fe_mesh_2d(150, seed=seed)),
    ("fe3d", lambda seed: fe_mesh_3d(120, seed=seed)),
    ("sphere", lambda seed: sphere_mesh(150, seed=seed)),
    ("airfoil", lambda seed: airfoil_mesh(150, seed=seed)),
    ("watts", lambda seed: watts_strogatz_graph(150, seed=seed)),
    ("barabasi", lambda seed: barabasi_albert_graph(150, seed=seed)),
]


class TestGenerators:
    @pytest.mark.parametrize("name,maker", GENERATORS)
    def test_connected_and_positive_weights(self, name, maker):
        graph = maker(3)
        assert graph.num_nodes > 0
        assert graph.num_edges >= graph.num_nodes - 1
        assert is_connected(graph)
        assert_positive_weights(graph)

    @pytest.mark.parametrize("name,maker", GENERATORS)
    def test_deterministic_for_seed(self, name, maker):
        assert maker(7) == maker(7)

    def test_grid_2d_size(self):
        graph = grid_circuit_2d(5, 7, seed=0)
        assert graph.num_nodes == 35

    def test_grid_3d_size(self):
        graph = grid_circuit_3d(4, 5, 3, seed=0)
        assert graph.num_nodes == 60

    def test_delaunay_weight_modes(self):
        unit = delaunay_graph(100, weight_mode="unit", seed=0)
        assert all(w == 1.0 for _, _, w in unit.weighted_edges())
        geometric = delaunay_graph(100, weight_mode="inverse_distance", seed=0)
        weights = [w for _, _, w in geometric.weighted_edges()]
        assert max(weights) > min(weights)

    def test_delaunay_too_small_raises(self):
        with pytest.raises(ValueError):
            delaunay_graph(3)

    def test_simple_families(self):
        assert path_graph(5).num_edges == 4
        assert cycle_graph(5).num_edges == 5
        assert complete_graph(5).num_edges == 10
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_paper_figure2_graph(self):
        graph = paper_figure2_graph()
        assert graph.num_nodes == 14
        assert is_connected(graph)
        # The weak bridge between the two clusters is present.
        assert graph.has_edge(3, 9)


class TestValidationHelpers:
    def test_validate_sparsifier_support_ok(self, grid_with_sparsifier):
        graph, sparsifier = grid_with_sparsifier
        validate_sparsifier_support(graph, sparsifier, allow_new_edges=False)

    def test_validate_sparsifier_node_mismatch(self, small_grid):
        with pytest.raises(GraphValidationError):
            validate_sparsifier_support(small_grid, Graph(3, [(0, 1, 1.0), (1, 2, 1.0)]))

    def test_validate_sparsifier_disconnected(self, small_grid):
        bad = Graph(small_grid.num_nodes, [(0, 1, 1.0)])
        with pytest.raises(GraphValidationError):
            validate_sparsifier_support(small_grid, bad)

    def test_validate_sparsifier_foreign_edges(self, small_grid):
        sparsifier = small_grid.copy()
        # Find a pair with no edge and add it to the sparsifier only.
        for u in range(small_grid.num_nodes):
            for v in range(u + 2, small_grid.num_nodes):
                if not small_grid.has_edge(u, v):
                    sparsifier.add_edge(u, v, 1.0)
                    with pytest.raises(GraphValidationError):
                        validate_sparsifier_support(small_grid, sparsifier, allow_new_edges=False)
                    validate_sparsifier_support(small_grid, sparsifier, allow_new_edges=True)
                    return
        pytest.skip("grid unexpectedly complete")

    def test_validate_new_edges_merges_duplicates(self, small_grid):
        cleaned = validate_new_edges(small_grid, [(0, 5, 1.0), (5, 0, 2.0)])
        assert cleaned == [(0, 5, 3.0)]

    def test_validate_new_edges_rejects_bad(self, small_grid):
        with pytest.raises(GraphValidationError):
            validate_new_edges(small_grid, [(0, 0, 1.0)])
        with pytest.raises(GraphValidationError):
            validate_new_edges(small_grid, [(0, small_grid.num_nodes, 1.0)])
        with pytest.raises(GraphValidationError):
            validate_new_edges(small_grid, [(0, 1, -1.0)])
