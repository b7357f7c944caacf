"""Tests for effective-resistance computation (exact, JL, Krylov, tree paths)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from repro.graphs import Graph, complete_graph, cycle_graph, path_graph
from repro.spectral import (
    ApproxResistanceCalculator,
    ExactResistanceCalculator,
    JLResistanceCalculator,
    effective_resistance,
    make_resistance_calculator,
    tree_path_resistances,
)


class TestExactResistance:
    def test_single_edge(self):
        graph = Graph(2, [(0, 1, 2.0)])
        assert effective_resistance(graph, 0, 1) == pytest.approx(0.5)

    def test_series_path(self):
        # Series resistors add: 3 unit-weight edges -> R = 3.
        graph = path_graph(4, weight=1.0)
        assert effective_resistance(graph, 0, 3) == pytest.approx(3.0)

    def test_parallel_paths(self):
        # Two parallel 2-edge paths between the endpoints -> R = 1.
        graph = Graph(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
        assert effective_resistance(graph, 0, 3) == pytest.approx(1.0)

    def test_cycle(self):
        # On a unit cycle of length n, R(i, j) = d*(n-d)/n for hop distance d.
        graph = cycle_graph(6)
        calc = ExactResistanceCalculator(graph)
        assert calc.resistance(0, 3) == pytest.approx(3 * 3 / 6)
        assert calc.resistance(0, 1) == pytest.approx(1 * 5 / 6)

    def test_complete_graph(self):
        # Complete graph on n nodes: R = 2/n for every pair.
        graph = complete_graph(8)
        calc = ExactResistanceCalculator(graph)
        assert calc.resistance(0, 5) == pytest.approx(2 / 8)

    def test_self_pair_zero(self, small_grid):
        assert ExactResistanceCalculator(small_grid).resistance(3, 3) == 0.0

    def test_symmetry(self, small_grid):
        calc = ExactResistanceCalculator(small_grid)
        assert calc.resistance(1, 17) == pytest.approx(calc.resistance(17, 1))

    def test_edge_resistance_below_direct(self, small_grid):
        # R_eff(u, v) <= 1/w_uv for every edge (parallel paths only reduce it).
        calc = ExactResistanceCalculator(small_grid)
        for u, v, w in small_grid.weighted_edges():
            assert calc.resistance(u, v) <= 1.0 / w + 1e-9

    def test_triangle_inequality(self, small_grid):
        # Effective resistance is a metric: R(a,c) <= R(a,b) + R(b,c).
        calc = ExactResistanceCalculator(small_grid)
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, c = rng.choice(small_grid.num_nodes, size=3, replace=False)
            assert calc.resistance(a, c) <= calc.resistance(a, b) + calc.resistance(b, c) + 1e-9

    def test_rejects_tiny_graph(self):
        with pytest.raises(ValueError):
            ExactResistanceCalculator(Graph(1))

    def test_rejects_bad_nodes(self, small_grid):
        calc = ExactResistanceCalculator(small_grid)
        with pytest.raises(ValueError):
            calc.resistance(0, small_grid.num_nodes)


class TestJLResistance:
    def test_close_to_exact(self, small_grid, rng):
        exact = ExactResistanceCalculator(small_grid)
        approx = JLResistanceCalculator(small_grid, dimensions=128, seed=1)
        pairs = [tuple(rng.choice(small_grid.num_nodes, 2, replace=False)) for _ in range(50)]
        e = exact.resistances(pairs)
        a = approx.resistances(pairs)
        # With 128 projection dimensions the relative error should be modest.
        assert np.median(np.abs(a - e) / np.maximum(e, 1e-12)) < 0.25

    def test_ranking_quality_on_edges(self, small_grid):
        exact = ExactResistanceCalculator(small_grid).edge_resistances()
        approx = JLResistanceCalculator(small_grid, seed=0).edge_resistances()
        assert spearmanr(exact, approx).statistic > 0.8

    def test_embedding_shape(self, small_grid):
        calc = JLResistanceCalculator(small_grid, dimensions=16, seed=0)
        assert calc.embedding.shape == (small_grid.num_nodes, 16)
        assert calc.order == 16

    def test_zero_for_same_node(self, small_grid):
        assert JLResistanceCalculator(small_grid, seed=0).resistance(4, 4) == 0.0


class TestKrylovResistance:
    def test_ranking_correlates_with_exact(self, small_grid):
        exact = ExactResistanceCalculator(small_grid).edge_resistances()
        approx = ApproxResistanceCalculator(small_grid, seed=0).edge_resistances()
        assert spearmanr(exact, approx).statistic > 0.5

    def test_resistances_nonnegative(self, small_grid, rng):
        calc = ApproxResistanceCalculator(small_grid, seed=0)
        pairs = [tuple(rng.choice(small_grid.num_nodes, 2, replace=False)) for _ in range(30)]
        assert np.all(calc.resistances(pairs) >= 0.0)

    def test_empty_pairs(self, small_grid):
        assert ApproxResistanceCalculator(small_grid, seed=0).resistances([]).shape == (0,)


class TestFactoryAndHelpers:
    def test_make_resistance_calculator_dispatch(self, small_grid):
        assert isinstance(make_resistance_calculator(small_grid, "exact"), ExactResistanceCalculator)
        assert isinstance(make_resistance_calculator(small_grid, "jl", seed=0), JLResistanceCalculator)
        assert isinstance(make_resistance_calculator(small_grid, "krylov", seed=0), ApproxResistanceCalculator)
        with pytest.raises(ValueError):
            make_resistance_calculator(small_grid, "bogus")


class TestTreePathResistance:
    def test_path_graph(self):
        tree = path_graph(5, weight=2.0)
        resistances = tree_path_resistances(tree, [(0, 4), (1, 3), (2, 2)])
        assert resistances[0] == pytest.approx(4 * 0.5)
        assert resistances[1] == pytest.approx(2 * 0.5)
        assert resistances[2] == 0.0

    def test_matches_exact_on_tree(self, small_grid):
        from repro.sparsify import maximum_weight_spanning_tree

        tree = maximum_weight_spanning_tree(small_grid)
        pairs = [(0, 10), (3, 40), (7, 55)]
        via_paths = tree_path_resistances(tree, pairs)
        exact = ExactResistanceCalculator(tree).resistances(pairs)
        assert np.allclose(via_paths, exact, rtol=1e-6, atol=1e-8)

    def test_requires_spanning_tree(self):
        disconnected = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            tree_path_resistances(disconnected, [(0, 3)])


class TestResistanceProperties:
    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_rayleigh_monotonicity(self, n, seed):
        """Adding an edge can only decrease effective resistances (Rayleigh)."""
        rng = np.random.default_rng(seed)
        graph = cycle_graph(n)
        calc_before = ExactResistanceCalculator(graph)
        u, v = rng.choice(n, size=2, replace=False)
        pairs = [(int(a), int(b)) for a in range(0, n, 2) for b in range(1, n, 2) if a != b]
        before = calc_before.resistances(pairs)
        augmented = graph.copy()
        augmented.add_edge(int(u), int(v), 1.0, merge="add")
        after = ExactResistanceCalculator(augmented).resistances(pairs)
        assert np.all(after <= before + 1e-9)

    @given(st.integers(min_value=2, max_value=30), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_series_law(self, length, weight):
        graph = path_graph(length + 1, weight=weight)
        assert effective_resistance(graph, 0, length) == pytest.approx(length / weight, rel=1e-6)
