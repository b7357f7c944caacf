"""Tests for the baseline sparsifiers (spanning trees, GRASS, random) and the
quality metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, grid_circuit_2d, is_connected
from repro.sparsify import (
    GrassConfig,
    GrassSparsifier,
    RandomIncrementalUpdater,
    RandomSparsifier,
    edge_stretches,
    evaluate_sparsifier,
    low_stretch_spanning_tree,
    maximum_weight_spanning_tree,
    off_tree_edges,
    offtree_density,
    relative_density,
    shortest_path_tree,
    total_stretch,
)
from repro.spectral import relative_condition_number


class TestSpanningTrees:
    @pytest.mark.parametrize("builder", [
        maximum_weight_spanning_tree,
        lambda g: low_stretch_spanning_tree(g, seed=0),
        lambda g: shortest_path_tree(g, root=0),
        lambda g: shortest_path_tree(g, root=0, metric="unit"),
    ])
    def test_is_spanning_tree(self, small_grid, builder):
        tree = builder(small_grid)
        assert tree.num_edges == small_grid.num_nodes - 1
        assert is_connected(tree)
        # Every tree edge must come from the graph with its original weight.
        for u, v, w in tree.weighted_edges():
            assert small_grid.has_edge(u, v)
            assert small_grid.weight(u, v) == pytest.approx(w)

    def test_max_weight_tree_optimality(self):
        # On a triangle the max-weight tree keeps the two heaviest edges.
        graph = Graph(3, [(0, 1, 3.0), (1, 2, 2.0), (0, 2, 1.0)])
        tree = maximum_weight_spanning_tree(graph)
        assert tree.has_edge(0, 1) and tree.has_edge(1, 2)
        assert not tree.has_edge(0, 2)

    def test_stretch_of_tree_edges_is_one(self, small_grid):
        tree = maximum_weight_spanning_tree(small_grid)
        stretches = edge_stretches(small_grid, tree)
        us, vs, _ = small_grid.edge_arrays()
        for index, (u, v) in enumerate(zip(us, vs)):
            if tree.has_edge(int(u), int(v)):
                assert stretches[index] == pytest.approx(1.0, rel=1e-6)

    def test_stretches_positive(self, small_grid):
        tree = maximum_weight_spanning_tree(small_grid)
        stretches = edge_stretches(small_grid, tree)
        assert stretches.shape == (small_grid.num_edges,)
        assert np.all(stretches > 0.0)

    def test_total_stretch_counts_tree_edges(self, small_grid):
        # Tree edges each contribute exactly 1 to the total stretch.
        tree = low_stretch_spanning_tree(small_grid, seed=1)
        assert total_stretch(small_grid, tree) >= tree.num_edges - 1e-6

    def test_off_tree_edges_partition(self, small_grid):
        tree = maximum_weight_spanning_tree(small_grid)
        off = off_tree_edges(small_grid, tree)
        assert len(off) == small_grid.num_edges - tree.num_edges
        for u, v, _ in off:
            assert not tree.has_edge(u, v)

    def test_shortest_path_tree_metric_validation(self, small_grid):
        with pytest.raises(ValueError):
            shortest_path_tree(small_grid, metric="bogus")

    def test_empty_graph_trees(self):
        assert maximum_weight_spanning_tree(Graph(0)).num_nodes == 0
        assert low_stretch_spanning_tree(Graph(3)).num_edges == 0


class TestGrass:
    def test_density_budget_respected(self, medium_grid):
        config = GrassConfig(target_offtree_density=0.15, seed=0)
        result = GrassSparsifier(config).sparsify(medium_grid, evaluate_condition=False)
        budget = medium_grid.num_nodes - 1 + int(round(0.15 * medium_grid.num_nodes))
        assert result.sparsifier.num_edges <= budget
        assert is_connected(result.sparsifier)

    def test_relative_density_budget(self, medium_grid):
        config = GrassConfig(target_relative_density=0.8, target_offtree_density=None, seed=0)
        result = GrassSparsifier(config).sparsify(medium_grid, evaluate_condition=False)
        assert result.sparsifier.num_edges <= int(round(0.8 * medium_grid.num_edges)) + 1

    def test_sparsifier_subgraph_of_input(self, medium_grid):
        result = GrassSparsifier(GrassConfig(seed=0)).sparsify(medium_grid, evaluate_condition=False)
        for u, v, w in result.sparsifier.weighted_edges():
            assert medium_grid.has_edge(u, v)
            assert medium_grid.weight(u, v) == pytest.approx(w)

    def test_more_density_means_better_condition(self, medium_grid):
        sparse = GrassSparsifier(GrassConfig(target_offtree_density=0.05, seed=0)).sparsify(
            medium_grid, evaluate_condition=False).sparsifier
        dense = GrassSparsifier(GrassConfig(target_offtree_density=0.4, seed=0)).sparsify(
            medium_grid, evaluate_condition=False).sparsifier
        assert relative_condition_number(medium_grid, dense) <= relative_condition_number(medium_grid, sparse)

    def test_sparsify_to_condition_reaches_target(self, medium_grid):
        target = 2.0 * relative_condition_number(
            medium_grid,
            GrassSparsifier(GrassConfig(target_offtree_density=0.3, seed=0)).sparsify(
                medium_grid, evaluate_condition=False).sparsifier,
        )
        result = GrassSparsifier(GrassConfig(seed=0)).sparsify_to_condition(medium_grid, target)
        assert result.condition_number <= target * 1.05
        assert is_connected(result.sparsifier)

    def test_beats_random_at_same_density(self, medium_grid):
        density = 0.2
        grass = GrassSparsifier(GrassConfig(target_offtree_density=density, seed=0)).sparsify(
            medium_grid, evaluate_condition=False).sparsifier
        random_h = RandomSparsifier(target_offtree_density=density, seed=0).sparsify(medium_grid).sparsifier
        assert relative_condition_number(medium_grid, grass) <= relative_condition_number(medium_grid, random_h)

    def test_tree_methods_all_work(self, small_grid):
        for method in ("max_weight", "low_stretch", "shortest_path"):
            result = GrassSparsifier(GrassConfig(tree_method=method, seed=0)).sparsify(
                small_grid, evaluate_condition=False)
            assert is_connected(result.sparsifier)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GrassConfig(tree_method="bogus")
        with pytest.raises(ValueError):
            GrassConfig(target_condition_number=-1.0)
        with pytest.raises(ValueError):
            GrassConfig(target_offtree_density=-0.1)


class TestRandomBaselines:
    def test_random_sparsifier_connected(self, medium_grid):
        result = RandomSparsifier(target_offtree_density=0.1, seed=0).sparsify(medium_grid)
        assert is_connected(result.sparsifier)
        budget = medium_grid.num_nodes - 1 + int(round(0.1 * medium_grid.num_nodes))
        assert result.sparsifier.num_edges <= budget

    def test_random_updater_reaches_target(self, grid_with_sparsifier):
        graph, sparsifier = grid_with_sparsifier
        kappa0 = relative_condition_number(graph, sparsifier)
        # Stream some new edges into the graph.
        from repro.streams import random_pair_edges

        new_edges = random_pair_edges(graph, 30, seed=5)
        graph_after = graph.union_with_edges(new_edges)
        updater = RandomIncrementalUpdater(target_condition_number=kappa0 * 1.5, seed=0)
        result = updater.update(graph_after, sparsifier, new_edges)
        assert result.added_edges <= len(new_edges)
        assert result.condition_number is not None

    def test_random_updater_fraction_mode(self, grid_with_sparsifier):
        graph, sparsifier = grid_with_sparsifier
        from repro.streams import random_pair_edges

        new_edges = random_pair_edges(graph, 20, seed=6)
        updater = RandomIncrementalUpdater(None, acceptance_fraction=0.5, seed=0)
        result = updater.update(graph.union_with_edges(new_edges), sparsifier, new_edges)
        assert result.added_edges == 10

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RandomIncrementalUpdater(-1.0)
        with pytest.raises(ValueError):
            RandomIncrementalUpdater(None, condition_check_stride=0)
        with pytest.raises(ValueError):
            RandomSparsifier(target_offtree_density=-0.5)


class TestMetrics:
    def test_relative_and_offtree_density(self, grid_with_sparsifier):
        graph, sparsifier = grid_with_sparsifier
        assert 0 < relative_density(graph, sparsifier) <= 1.0
        expected_offtree = (sparsifier.num_edges - (graph.num_nodes - 1)) / graph.num_nodes
        assert offtree_density(sparsifier) == pytest.approx(expected_offtree)
        assert offtree_density(maximum_weight_spanning_tree(graph)) == 0.0

    def test_relative_density_empty_graph(self):
        with pytest.raises(ValueError):
            relative_density(Graph(3), Graph(3))

    def test_evaluate_sparsifier_report(self, grid_with_sparsifier):
        graph, sparsifier = grid_with_sparsifier
        report = evaluate_sparsifier(graph, sparsifier, seed=0)
        assert report.connected
        assert report.condition_number >= 1.0
        assert report.empirical_condition_lower_bound <= report.condition_number * 1.05
        as_dict = report.as_dict()
        assert as_dict["sparsifier_edges"] == sparsifier.num_edges
        assert "offtree_density" in as_dict

    def test_evaluate_sparsifier_node_mismatch(self, small_grid):
        with pytest.raises(ValueError):
            evaluate_sparsifier(small_grid, Graph(3, [(0, 1, 1.0), (1, 2, 1.0)]))


class TestSparsifierProperties:
    @given(st.integers(min_value=6, max_value=12), st.integers(min_value=0, max_value=10**6),
           st.floats(min_value=0.05, max_value=0.5))
    @settings(max_examples=15, deadline=None)
    def test_grass_output_invariants(self, size, seed, density):
        graph = grid_circuit_2d(size, seed=seed)
        result = GrassSparsifier(GrassConfig(target_offtree_density=density, seed=seed)).sparsify(
            graph, evaluate_condition=False)
        sparsifier = result.sparsifier
        assert is_connected(sparsifier)
        assert sparsifier.num_edges <= graph.num_edges
        assert sparsifier.num_edges >= graph.num_nodes - 1
        for u, v, w in sparsifier.weighted_edges():
            assert graph.weight(u, v) == pytest.approx(w)
