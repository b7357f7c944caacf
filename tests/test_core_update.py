"""Tests for the inGRASS update machinery: distortion estimation, similarity
filtering, setup/update phases and the incremental driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FilterAction,
    InGrassConfig,
    InGrassSparsifier,
    LRDConfig,
    SimilarityFilter,
    lrd_decompose,
    run_setup,
    run_update,
    score_edges,
)
from repro.graphs import Graph, is_connected, paper_figure2_graph
from repro.spectral import relative_condition_number
from repro.sparsify import offtree_density
from repro.streams import mixed_edges, random_pair_edges, split_into_batches


@pytest.fixture
def setup_pair(grid_with_sparsifier):
    """(graph, sparsifier, SetupResult) on the medium grid."""
    graph, sparsifier = grid_with_sparsifier
    working = sparsifier.copy()
    setup = run_setup(working, InGrassConfig(lrd=LRDConfig(seed=0)))
    return graph, working, setup


class TestDistortionEstimation:
    def test_empty_batch(self, setup_pair):
        _, _, setup = setup_pair
        assert len(score_edges(setup.hierarchy, [])) == 0

    def test_distortion_is_weight_times_bound(self, setup_pair):
        _, sparsifier, setup = setup_pair
        edges = [(0, sparsifier.num_nodes - 1, 2.0), (0, 1, 2.0)]
        batch = score_edges(setup.hierarchy, edges)
        for weight, bound, distortion in zip(batch.ws, batch.bounds, batch.distortions):
            assert distortion == pytest.approx(weight * bound)

    def test_long_range_ranks_above_local(self, setup_pair):
        _, sparsifier, setup = setup_pair
        n = sparsifier.num_nodes
        edges = [(0, 1, 1.0), (0, n - 1, 1.0)]
        batch = score_edges(setup.hierarchy, edges).sort()
        assert batch.edge(0) == (0, n - 1, 1.0)

    def test_sorting_is_descending(self, setup_pair):
        _, sparsifier, setup = setup_pair
        edges = random_pair_edges(sparsifier, 20, seed=3)
        values = score_edges(setup.hierarchy, edges).sort().distortions.tolist()
        assert values == sorted(values, reverse=True)

    def test_threshold_filtering(self, setup_pair):
        _, sparsifier, setup = setup_pair
        edges = random_pair_edges(sparsifier, 20, seed=4)
        batch = score_edges(setup.hierarchy, edges)
        kept, dropped = batch.split_by_threshold(0.0)
        assert len(kept) == 20 and len(dropped) == 0
        kept, dropped = batch.split_by_threshold(1.0)
        assert len(kept) + len(dropped) == 20
        assert all(k >= d for k in kept.distortions for d in dropped.distortions)


class TestSimilarityFilter:
    def _make_filter(self, sparsifier, level_override=None):
        hierarchy = lrd_decompose(sparsifier, LRDConfig(seed=0))
        level = hierarchy.num_levels - 2 if level_override is None else level_override
        level = max(0, min(level, hierarchy.num_levels - 1))
        return SimilarityFilter(sparsifier, hierarchy, level), hierarchy

    def test_intra_cluster_edge_redistributed(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        working = sparsifier.copy()
        similarity_filter, hierarchy = self._make_filter(working)
        level = similarity_filter.filtering_level
        labels = hierarchy.level(level).labels
        # Find a non-edge inside one cluster.
        cluster_nodes = np.flatnonzero(labels == labels[0])
        candidate = None
        for p in cluster_nodes:
            for q in cluster_nodes:
                if p < q and not working.has_edge(int(p), int(q)):
                    candidate = (int(p), int(q))
                    break
            if candidate:
                break
        if candidate is None:
            pytest.skip("no intra-cluster non-edge available")
        total_before = working.total_weight()
        edges_before = working.num_edges
        batch = score_edges(hierarchy, [(candidate[0], candidate[1], 2.0)])
        decisions, summary = similarity_filter.apply_batch(batch)
        assert summary.redistributed == 1
        assert working.num_edges == edges_before
        # Weight was spread over the cluster's internal edges (if any exist).
        assert working.total_weight() >= total_before

    def test_inter_cluster_merge(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        working = sparsifier.copy()
        similarity_filter, hierarchy = self._make_filter(working, level_override=0)
        labels = hierarchy.level(0).labels
        # Find an existing sparsifier edge crossing two clusters, then stream a
        # different node pair with the same cluster pair.
        target = None
        for u, v in working.edges():
            if labels[u] != labels[v]:
                target = (u, v)
                break
        assert target is not None
        u, v = target
        same_pair = None
        for p in np.flatnonzero(labels == labels[u]):
            for q in np.flatnonzero(labels == labels[v]):
                if (int(p), int(q)) != (u, v) and int(p) != int(q) and not working.has_edge(int(p), int(q)):
                    same_pair = (int(p), int(q))
                    break
            if same_pair:
                break
        if same_pair is None:
            pytest.skip("no alternative cluster-pair edge available")
        weight_before = working.weight(u, v)
        edges_before = working.num_edges
        batch = score_edges(hierarchy, [(same_pair[0], same_pair[1], 1.5)])
        decisions, summary = similarity_filter.apply_batch(batch)
        assert summary.merged == 1
        assert working.num_edges == edges_before
        assert working.weight(u, v) == pytest.approx(weight_before + 1.5)

    def test_unique_edge_added_and_registered(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        working = sparsifier.copy()
        similarity_filter, hierarchy = self._make_filter(working, level_override=0)
        labels = hierarchy.level(0).labels
        # Find two clusters not currently connected by any sparsifier edge.
        connected_pairs = {tuple(sorted((int(labels[u]), int(labels[v])))) for u, v in working.edges()}
        found = None
        num_clusters = int(labels.max()) + 1
        for a in range(num_clusters):
            for b in range(a + 1, num_clusters):
                if (a, b) not in connected_pairs:
                    p = int(np.flatnonzero(labels == a)[0])
                    q = int(np.flatnonzero(labels == b)[0])
                    if not working.has_edge(p, q):
                        found = (p, q)
                        break
            if found:
                break
        if found is None:
            pytest.skip("all cluster pairs already connected at level 0")
        edges_before = working.num_edges
        batch = score_edges(hierarchy, [(found[0], found[1], 1.0)])
        decisions, summary = similarity_filter.apply_batch(batch)
        assert summary.added == 1
        assert working.num_edges == edges_before + 1
        # A second edge between the same clusters must now be merged, not added.
        assert similarity_filter.connects_clusters(found[0], found[1])

    def test_invalid_level_rejected(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        hierarchy = lrd_decompose(sparsifier, LRDConfig(seed=0))
        with pytest.raises(ValueError):
            SimilarityFilter(sparsifier, hierarchy, hierarchy.num_levels)


class TestSetupAndUpdate:
    def test_setup_requires_connected_sparsifier(self):
        disconnected = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            run_setup(disconnected)

    def test_setup_result_contents(self, setup_pair):
        _, sparsifier, setup = setup_pair
        assert setup.hierarchy.num_nodes == sparsifier.num_nodes
        assert setup.setup_seconds >= 0.0
        assert setup.hierarchy.filtering_level_for_condition(1e9) == setup.hierarchy.num_levels - 1

    def test_update_mutates_sparsifier_consistently(self, setup_pair, stage_engine):
        graph, sparsifier, setup = setup_pair
        edges = random_pair_edges(graph, 25, seed=2)
        before = sparsifier.num_edges
        config = InGrassConfig()
        similarity_filter, maintainer = stage_engine(sparsifier, setup.hierarchy, config, 20.0)
        result = run_update(sparsifier, edges, config,
                            similarity_filter=similarity_filter, maintainer=maintainer)
        assert sparsifier.num_edges == before + result.summary.added
        assert result.summary.total == len(edges)
        assert is_connected(sparsifier)
        assert len(result.added_edges) == result.summary.added

    def test_update_distortion_threshold_drops_edges(self, setup_pair, stage_engine):
        graph, sparsifier, setup = setup_pair
        edges = mixed_edges(graph, 30, long_range_fraction=0.2, seed=3)
        config = InGrassConfig(distortion_threshold=1.0)
        similarity_filter, maintainer = stage_engine(sparsifier, setup.hierarchy, config, 20.0)
        result = run_update(sparsifier, edges, config,
                            similarity_filter=similarity_filter, maintainer=maintainer)
        assert result.dropped_low_distortion > 0


class TestInGrassSparsifier:
    def test_requires_setup_before_use(self):
        ingrass = InGrassSparsifier()
        with pytest.raises(RuntimeError):
            _ = ingrass.sparsifier
        with pytest.raises(RuntimeError):
            ingrass.apply_batch([])

    def test_setup_builds_sparsifier_when_missing(self, medium_grid):
        ingrass = InGrassSparsifier(InGrassConfig(seed=0))
        ingrass.setup(medium_grid, initial_offtree_density=0.15)
        assert is_connected(ingrass.sparsifier)
        assert ingrass.target_condition_number is not None

    def test_full_incremental_run_keeps_quality(self, medium_grid):
        """End-to-end: the updated sparsifier must stay connected, stay much
        sparser than blind inclusion, and keep kappa well below the
        never-update baseline."""
        ingrass = InGrassSparsifier(InGrassConfig(seed=0))
        from repro.sparsify import GrassConfig, GrassSparsifier

        initial = GrassSparsifier(GrassConfig(target_offtree_density=0.1, seed=0)).sparsify(
            medium_grid, evaluate_condition=False).sparsifier
        kappa0 = relative_condition_number(medium_grid, initial)
        ingrass.setup(medium_grid, initial, target_condition_number=kappa0)

        stream = mixed_edges(medium_grid, int(0.24 * medium_grid.num_nodes), long_range_fraction=0.3, seed=1)
        batches = split_into_batches(stream, 5)
        results = [ingrass.apply_batch(batch) for batch in batches]
        assert len(results) == 5
        assert len(ingrass.history) == 5

        final_graph = ingrass.graph
        assert final_graph.num_edges == medium_grid.num_edges + len(stream)
        # Sparsifier stayed connected and sparser than including everything.
        assert is_connected(ingrass.sparsifier)
        blind_density = offtree_density(initial.union_with_edges(stream))
        assert offtree_density(ingrass.sparsifier) <= blind_density + 1e-9
        # Quality: much better than never updating the sparsifier at all.
        kappa_never = relative_condition_number(final_graph, initial)
        kappa_updated = ingrass.condition_number()
        assert kappa_updated <= kappa_never * 1.2
        # Report is consistent.
        report = ingrass.report()
        assert report.sparsifier_edges == ingrass.sparsifier.num_edges

    def test_history_records_accumulate(self, medium_grid):
        ingrass = InGrassSparsifier(InGrassConfig(seed=0))
        ingrass.setup(medium_grid, initial_offtree_density=0.1)
        edges = random_pair_edges(medium_grid, 12, seed=2)
        ingrass.apply_batch(edges)
        record = ingrass.history[0]
        assert record.iteration == 1
        assert record.streamed_edges == 12
        assert record.added_edges + record.merged_edges + record.redistributed_edges + record.dropped_edges == 12
        assert ingrass.total_update_seconds >= record.update_seconds * 0.5

    def test_filtering_level_follows_target(self, medium_grid):
        """The driver fixes the level the hierarchy picks for the target κ at
        setup, and every batch filters at it."""
        ingrass = InGrassSparsifier(InGrassConfig(seed=0))
        ingrass.setup(medium_grid, initial_offtree_density=0.1, target_condition_number=10.0)
        level = ingrass.setup_result.hierarchy.filtering_level_for_condition(10.0)
        assert ingrass.filtering_level == level
        result = ingrass.apply_batch(random_pair_edges(medium_grid, 10, seed=3))
        assert result.insertion.filtering_level == level
        assert ingrass.snapshot().filtering_level == level

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            InGrassConfig(distortion_threshold=-0.5)
        with pytest.raises(ValueError):
            InGrassConfig(kappa_guard_factor=0.5)


class TestPaperFigure3Walkthrough:
    """The qualitative behaviour sketched in Figure 3 of the paper: of three
    new edges, one is merged into an existing inter-cluster edge, one is
    discarded inside a cluster, and one genuinely new connection is added."""

    def test_three_edge_filtering_story(self):
        graph = paper_figure2_graph()
        sparsifier = graph.copy()
        hierarchy = lrd_decompose(sparsifier, LRDConfig(resistance_method="exact", seed=0))
        # Pick the coarsest level that still separates the two 7-node halves.
        level = None
        for index in range(hierarchy.num_levels - 1, -1, -1):
            labels = hierarchy.level(index).labels
            if labels[0] != labels[9]:
                level = index
                break
        assert level is not None
        similarity_filter = SimilarityFilter(sparsifier, hierarchy, level)
        labels = hierarchy.level(level).labels

        # Edge 1: same cluster pair as the existing weak bridge (3, 9).
        bridge_pair = tuple(sorted((int(labels[3]), int(labels[9]))))
        merge_candidate = None
        for p in range(graph.num_nodes):
            for q in range(graph.num_nodes):
                if p < q and not sparsifier.has_edge(p, q):
                    if tuple(sorted((int(labels[p]), int(labels[q])))) == bridge_pair and labels[p] != labels[q]:
                        merge_candidate = (p, q)
                        break
            if merge_candidate:
                break
        # Edge 2: inside one cluster.
        cluster_nodes = np.flatnonzero(labels == labels[0])
        intra_candidate = None
        for p in cluster_nodes:
            for q in cluster_nodes:
                if p < q and not sparsifier.has_edge(int(p), int(q)):
                    intra_candidate = (int(p), int(q))
                    break
            if intra_candidate:
                break
        candidates = []
        if merge_candidate:
            candidates.append((merge_candidate[0], merge_candidate[1], 1.0))
        if intra_candidate:
            candidates.append((intra_candidate[0], intra_candidate[1], 1.0))
        assert candidates, "paper walkthrough graph should offer candidates"
        batch = score_edges(hierarchy, candidates).sort()
        decisions, summary = similarity_filter.apply_batch(batch)
        actions = {d.edge[:2]: d.action for d in decisions}
        if merge_candidate:
            assert actions[merge_candidate] is FilterAction.MERGED_INTO_EXISTING
        if intra_candidate:
            assert actions[intra_candidate] is FilterAction.REDISTRIBUTED_INTRA_CLUSTER
