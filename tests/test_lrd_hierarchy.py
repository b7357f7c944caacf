"""Tests for the LRD decomposition, cluster hierarchy and resistance embedding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LRDConfig, lrd_decompose
from repro.core.hierarchy import ClusterHierarchy, LRDLevel
from repro.graphs import Graph, grid_circuit_2d
from repro.spectral import ExactResistanceCalculator


class TestLRDDecomposition:
    def test_levels_cover_all_nodes(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        hierarchy = lrd_decompose(sparsifier, LRDConfig(seed=0))
        for level in hierarchy.levels:
            assert level.labels.shape == (sparsifier.num_nodes,)
            assert level.num_clusters == int(level.labels.max()) + 1

    def test_cluster_count_decreases(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        hierarchy = lrd_decompose(sparsifier, LRDConfig(seed=0))
        counts = [level.num_clusters for level in hierarchy.levels]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 1  # topped with a single-cluster level

    def test_clusters_are_nested(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        hierarchy = lrd_decompose(sparsifier, LRDConfig(seed=0))
        for fine, coarse in zip(hierarchy.levels, hierarchy.levels[1:]):
            # Two nodes sharing a fine cluster must share a coarse cluster.
            mapping = {}
            for node in range(sparsifier.num_nodes):
                fine_label = int(fine.labels[node])
                coarse_label = int(coarse.labels[node])
                if fine_label in mapping:
                    assert mapping[fine_label] == coarse_label
                else:
                    mapping[fine_label] = coarse_label

    def test_num_levels_logarithmic(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        hierarchy = lrd_decompose(sparsifier, LRDConfig(seed=0))
        assert hierarchy.num_levels <= 4 * int(np.ceil(np.log2(sparsifier.num_nodes))) + 2

    def test_diameters_monotone_per_node(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        hierarchy = lrd_decompose(sparsifier, LRDConfig(seed=0))
        for node in [0, 5, 17]:
            diameters = []
            for level in hierarchy.levels:
                cluster = int(level.labels[node])
                diameters.append(float(level.cluster_diameters[cluster]))
            assert all(a <= b + 1e-9 for a, b in zip(diameters, diameters[1:]))

    def test_cluster_diameter_bounds_exact_resistance(self, grid_with_sparsifier, rng):
        """The recorded cluster diameter tracks (and mostly bounds) exact
        intra-cluster resistances.

        The accumulated diameter is computed from resistances measured on the
        *contracted* graph of each level, which Rayleigh-monotonicity makes a
        slight underestimate of the original resistances; a 30 % slack absorbs
        that approximation.
        """
        _, sparsifier = grid_with_sparsifier
        hierarchy = lrd_decompose(sparsifier, LRDConfig(resistance_method="exact", seed=0))
        calculator = ExactResistanceCalculator(sparsifier)
        level = hierarchy.levels[min(2, hierarchy.num_levels - 1)]
        checked = 0
        for cluster in range(level.num_clusters):
            members = np.flatnonzero(level.labels == cluster)
            if len(members) < 2 or checked > 20:
                continue
            p, q = int(members[0]), int(members[-1])
            assert calculator.resistance(p, q) <= 1.3 * float(level.cluster_diameters[cluster]) + 1e-6
            checked += 1
        assert checked > 0

    def test_single_node_graph(self):
        hierarchy = lrd_decompose(Graph(1))
        assert hierarchy.num_levels == 1
        assert hierarchy.num_nodes == 1

    def test_edgeless_graph(self):
        hierarchy = lrd_decompose(Graph(4))
        assert hierarchy.num_nodes == 4

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            lrd_decompose(Graph(0))

    def test_resistance_methods_agree_on_structure(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        for method in ("exact", "jl", "krylov"):
            hierarchy = lrd_decompose(sparsifier, LRDConfig(resistance_method=method, seed=0))
            assert hierarchy.levels[-1].num_clusters == 1

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LRDConfig(resistance_method="bogus")


class TestClusterHierarchy:
    def _toy_hierarchy(self) -> ClusterHierarchy:
        # 6 nodes, 2 levels: {0,1},{2,3},{4,5} then all together.
        level0 = LRDLevel(labels=np.array([0, 0, 1, 1, 2, 2]), cluster_diameters=np.array([1.0, 2.0, 3.0]),
                          diameter_threshold=3.0)
        level1 = LRDLevel(labels=np.zeros(6, dtype=np.int64), cluster_diameters=np.array([10.0]),
                          diameter_threshold=10.0)
        return ClusterHierarchy([level0, level1])

    def test_embedding_vectors(self):
        hierarchy = self._toy_hierarchy()
        assert hierarchy.num_levels == 2
        assert np.array_equal(hierarchy.embedding_vector(2), [1, 0])
        assert hierarchy.embedding_matrix().shape == (6, 2)
        assert hierarchy.cluster_of(4, 0) == 2

    def test_first_common_level(self):
        hierarchy = self._toy_hierarchy()
        assert hierarchy.first_common_level(0, 1) == 0
        assert hierarchy.first_common_level(0, 2) == 1
        levels = hierarchy.first_common_levels(np.array([0, 0]), np.array([1, 2]))
        assert levels.tolist() == [0, 1]

    def test_resistance_upper_bound(self):
        hierarchy = self._toy_hierarchy()
        assert hierarchy.resistance_upper_bound(0, 1) == pytest.approx(1.0)
        assert hierarchy.resistance_upper_bound(2, 3) == pytest.approx(2.0)
        assert hierarchy.resistance_upper_bound(0, 5) == pytest.approx(10.0)
        assert hierarchy.resistance_upper_bound(3, 3) == 0.0
        bounds = hierarchy.resistance_upper_bounds([(0, 1), (0, 5)])
        assert np.allclose(bounds, [1.0, 10.0])

    def test_filtering_level_selection(self):
        hierarchy = self._toy_hierarchy()
        # C/2 = 2 -> level 0 (clusters of 2 nodes); C/2 = 10 -> level 1.
        assert hierarchy.filtering_level_for_condition(4.0) == 0
        assert hierarchy.filtering_level_for_condition(20.0) == 1
        # Even when the finest level violates the bound, level 0 is returned.
        assert hierarchy.filtering_level_for_condition(1.0) == 0
        with pytest.raises(ValueError):
            hierarchy.filtering_level_for_condition(-1.0)

    def test_summary(self):
        rows = self._toy_hierarchy().summary()
        assert len(rows) == 2
        assert rows[0]["num_clusters"] == 3
        assert rows[1]["max_cluster_size"] == 6

    def test_rejects_inconsistent_levels(self):
        level0 = LRDLevel(labels=np.zeros(3, dtype=np.int64), cluster_diameters=np.zeros(1), diameter_threshold=1.0)
        level1 = LRDLevel(labels=np.zeros(4, dtype=np.int64), cluster_diameters=np.zeros(1), diameter_threshold=1.0)
        with pytest.raises(ValueError):
            ClusterHierarchy([level0, level1])
        with pytest.raises(ValueError):
            ClusterHierarchy([])


class TestHierarchyEmbedding:
    """The hierarchy is the paper's node embedding: one cluster index per level."""

    def test_dimension_matches_levels(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        hierarchy = lrd_decompose(sparsifier, LRDConfig(seed=0))
        assert hierarchy.embedding_matrix().shape == (sparsifier.num_nodes, hierarchy.num_levels)
        assert hierarchy.embedding_vector(0).shape == (hierarchy.num_levels,)

    def test_estimates_are_upper_bounds_with_exact_lrd(self, grid_with_sparsifier, rng):
        graph, sparsifier = grid_with_sparsifier
        hierarchy = lrd_decompose(sparsifier, LRDConfig(resistance_method="exact", seed=0))
        pairs = [tuple(rng.choice(sparsifier.num_nodes, 2, replace=False)) for _ in range(40)]
        stats = hierarchy.compare_with_exact(sparsifier, pairs)
        # The cluster-diameter estimate should bound most pairs from above and
        # be positively correlated with the exact resistance (it is only an
        # approximate bound: level resistances are measured on contracted
        # graphs, which slightly underestimates).
        assert stats["num_pairs"] == 40
        assert stats["fraction_upper_bound"] > 0.7
        assert stats["spearman_correlation"] > 0.3
        assert stats["mean_ratio"] >= 0.9

    def test_estimate_single_pair(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        hierarchy = lrd_decompose(sparsifier, LRDConfig(seed=0))
        assert hierarchy.resistance_upper_bound(0, 0) == 0.0
        assert hierarchy.resistance_upper_bound(0, sparsifier.num_nodes - 1) > 0.0

    def test_compare_with_exact_requires_pairs(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        hierarchy = lrd_decompose(sparsifier, LRDConfig(seed=0))
        with pytest.raises(ValueError):
            hierarchy.compare_with_exact(sparsifier, [(3, 3)])


class TestLRDProperties:
    @given(st.integers(min_value=6, max_value=12), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_decomposition_invariants(self, size, seed):
        graph = grid_circuit_2d(size, seed=seed)
        hierarchy = lrd_decompose(graph, LRDConfig(seed=seed))
        assert hierarchy.num_nodes == graph.num_nodes
        assert hierarchy.levels[-1].num_clusters == 1
        # Labels are compact at every level.
        for level in hierarchy.levels:
            labels = np.unique(level.labels)
            assert labels.min() == 0
            assert labels.max() == level.num_clusters - 1
        # Diameter thresholds grow monotonically.
        thresholds = [level.diameter_threshold for level in hierarchy.levels[:-1]]
        assert all(a <= b + 1e-12 for a, b in zip(thresholds, thresholds[1:]))
